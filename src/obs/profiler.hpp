// In-process sampling profiler: CPU flamegraphs via SIGPROF and sampled
// tensor-allocation attribution, emitted as collapsed stacks.
//
// CPU sampling uses setitimer(ITIMER_PROF): the kernel charges the timer
// against process CPU time and delivers SIGPROF to a thread that is
// actually running, so busy threads accumulate samples in proportion to the
// CPU they burn (the gperftools model). The handler captures a raw
// backtrace into a per-thread ring buffer and nothing else; symbolization,
// thread-name lookup and folding all happen offline in drain_cpu(), in
// normal context.
//
// Signal-safety contract (audited in DESIGN.md §Profiling): everything the
// handler touches is a preallocated static ring table addressed by
// syscall(SYS_gettid) with CAS claiming — no malloc, no locks, no TLS
// registration, no logging, no metrics. backtrace() is primed once in
// start_cpu() so glibc's lazy unwinder setup (which allocates) runs outside
// the handler. errno is saved and restored.
//
// Allocation sampling hooks Tensor's lifecycle accounting: every Nth
// allocation (ProfilerConfig::alloc_sample_every, default 8) of at least
// 64 KiB records a truncated stack and the byte count, weighted by the
// sampling rate so folded weights estimate total bytes. Capture runs in the
// allocating thread's normal context (backtrace + mutex are fine there).
//
// Environment:
//   TAAMR_PROFILE      off|cpu|alloc|both   (default off)
//   TAAMR_PROFILE_HZ   CPU sampling rate, 1..10000 (default 97)
//   TAAMR_PROFILE_OUT  artifact prefix; %p -> pid (default taamr_prof)
//
// Artifacts at process exit (Profiler::global()'s destructor):
//   <prefix>.cpu.folded   collapsed CPU stacks (flamegraph.pl / speedscope)
//   <prefix>.alloc.folded collapsed alloc stacks, weights in estimated bytes
//   <prefix>.profile.json run summary: hz, sample/drop counts, per-kernel
//                         allocation families
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/profile_stats.hpp"

namespace taamr::obs {

enum class ProfileMode { kOff, kCpu, kAlloc, kBoth };

const char* profile_mode_name(ProfileMode m);

struct ProfilerConfig {
  ProfileMode mode = ProfileMode::kOff;
  int hz = 97;  // prime, so sampling does not alias periodic work
  std::string out_prefix = "taamr_prof";  // already %p-expanded
  int alloc_sample_every = 8;

  bool cpu_enabled() const {
    return mode == ProfileMode::kCpu || mode == ProfileMode::kBoth;
  }
  bool alloc_enabled() const {
    return mode == ProfileMode::kAlloc || mode == ProfileMode::kBoth;
  }

  static ProfilerConfig from_env();
};

// Counters describing one profiler's collection so far (drained samples
// plus in-flight ring occupancy is NOT included; drain first for totals).
struct ProfilerCounts {
  std::uint64_t cpu_samples = 0;    // folded into the cumulative CPU profile
  std::uint64_t cpu_dropped = 0;    // ring full or no free ring slot
  std::uint64_t alloc_samples = 0;  // folded into the cumulative alloc profile
  std::uint64_t alloc_dropped = 0;  // sample store full
  std::uint64_t threads_seen = 0;   // distinct ring claims
};

// Facade over the process-wide sampling machinery (the signal handler and
// its ring table are necessarily global). At most one Profiler should have
// CPU sampling active at a time; start/stop/drain are mutex-serialized.
class Profiler {
 public:
  // Process-wide instance configured from the environment. First call
  // constructs it: autostarts CPU sampling and/or arms allocation sampling
  // per TAAMR_PROFILE, and its destructor writes the artifacts. Touch this
  // early (bench reporters and taamr_serve do) so profiling spans the run.
  static Profiler& global();

  explicit Profiler(ProfilerConfig cfg);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  const ProfilerConfig& config() const { return cfg_; }
  bool cpu_running() const;

  // Arms SIGPROF sampling at cfg.hz regardless of cfg.mode (the serve
  // profile op uses this for on-demand windows in otherwise unprofiled
  // processes). Primes the unwinder, installs the handler (SA_RESTART), and
  // starts the interval timer. No-op when already running.
  void start_cpu();

  // Disarms the timer, deactivates the handler, and waits ~1ms so in-flight
  // handlers retire before anyone reads the rings.
  void stop_cpu();

  // Folds every undrained ring sample (CPU must be stopped): symbolizes,
  // strips the handler/trampoline frames, prefixes the thread name (or
  // "tid<n>") as the root frame. Returns the newly drained window and
  // merges it into the cumulative profile. Rings are recycled afterwards.
  FoldedProfile drain_cpu();

  // Folds and clears pending allocation samples; same cumulative merge.
  FoldedProfile drain_alloc();

  // Cumulative profiles (drains pending data first; CPU drain only happens
  // when sampling is stopped).
  FoldedProfile cpu_profile();

  ProfilerCounts counts();

  // One on-demand window: flushes pre-window samples into the cumulative
  // profile, samples for `seconds` (clamped to [0.05, 60]), and returns the
  // window's folded stacks ("# no samples" comment when the process was
  // idle). Restores the previous running state; serialized, so concurrent
  // serve requests take turns.
  std::string profile_window_folded(double seconds);

  // Writes <prefix>.cpu.folded / <prefix>.alloc.folded (only when
  // non-empty) and <prefix>.profile.json (whenever mode != off or anything
  // was collected). Stops and restarts CPU sampling around the drain.
  void write_artifacts();

 private:
  FoldedProfile drain_cpu_locked();
  FoldedProfile drain_alloc_locked();

  ProfilerConfig cfg_;
};

}  // namespace taamr::obs

namespace taamr::prof {

namespace detail {
// -1 = not yet decided, 0 = off, 1 = on. Latched on first allocation (the
// same pattern as cost accounting) so Tensor hooks work even before anyone
// constructs Profiler::global().
extern std::atomic<int> g_alloc_state;
bool alloc_init_slow();
void on_alloc_slow(std::int64_t bytes);
}  // namespace detail

// Tensor-allocator hook. When allocation profiling is off this is a single
// relaxed atomic load, mirroring cost::track_alloc's fast path.
inline void on_alloc(std::int64_t bytes) {
  const int s = detail::g_alloc_state.load(std::memory_order_relaxed);
  if (s == 0) return;
  if (s < 0 && !detail::alloc_init_slow()) return;
  detail::on_alloc_slow(bytes);
}

}  // namespace taamr::prof
