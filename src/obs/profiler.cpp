#include "obs/profiler.hpp"

#ifdef __linux__
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/symbolize.hpp"
#include "util/env.hpp"
#include "util/thread_name.hpp"

namespace taamr::obs {

namespace {

// ---------------------------------------------------------------------------
// Global sampling state. Everything the SIGPROF handler touches lives here,
// preallocated: the handler may interrupt any thread at any instruction, so
// it can only do relaxed/acquire-release atomic traffic on static storage.
// ---------------------------------------------------------------------------

constexpr int kMaxDepth = 40;       // frames kept per CPU sample
constexpr std::uint32_t kRingCapacity = 1024;  // samples per thread per drain
constexpr int kMaxRings = 64;       // concurrent sampled threads

struct RawSample {
  std::int32_t depth;
  void* pcs[kMaxDepth];
};

struct Ring {
  // 0 = free. Claimed once by the first SIGPROF a thread takes, then owned
  // by that tid: only the owning thread writes samples/head, so head's
  // release store + the collector's acquire load is the whole protocol.
  std::atomic<long> tid{0};
  std::atomic<std::uint32_t> head{0};
  RawSample samples[kRingCapacity];
};

Ring g_rings[kMaxRings];  // BSS; pages commit only when sampled into

std::atomic<bool> g_active{false};      // handler gate
std::atomic<std::uint64_t> g_dropped{0};  // ring full / table full

Ring* claim_ring(long tid) {
  const int start = static_cast<int>(tid) & (kMaxRings - 1);
  for (int probe = 0; probe < kMaxRings; ++probe) {
    Ring& ring = g_rings[(start + probe) & (kMaxRings - 1)];
    long cur = ring.tid.load(std::memory_order_relaxed);
    if (cur == tid) return &ring;
    if (cur == 0 &&
        ring.tid.compare_exchange_strong(cur, tid,
                                         std::memory_order_acq_rel)) {
      return &ring;
    }
    // CAS lost to a different thread claiming this slot: keep probing.
  }
  return nullptr;
}

// Serializes start/stop/drain/window across Profiler instances; never taken
// by the handler.
std::mutex& control_mutex() {
  static std::mutex m;
  return m;
}

bool g_cpu_running = false;  // guarded by control_mutex()

// ---------------------------------------------------------------------------
// Allocation sampling store (normal-context writes under a mutex).
// ---------------------------------------------------------------------------

constexpr int kAllocDepth = 24;
constexpr std::size_t kMaxAllocSamples = 1 << 16;

struct AllocSample {
  std::int64_t weight;  // bytes * sampling rate (estimate of total bytes)
  long tid;
  std::int32_t depth;
  void* pcs[kAllocDepth];
};

struct AllocStore {
  std::mutex mutex;
  std::vector<AllocSample> samples;
  std::uint64_t dropped = 0;
  std::uint64_t taken = 0;
  int every = 8;
};

constexpr std::int64_t kAllocMinBytes = 64 * 1024;  // smaller allocations are ignored

AllocStore& alloc_store() {
  static auto* s = new AllocStore();  // leaked: alloc hooks run at any time
  return *s;
}

// ---------------------------------------------------------------------------
// Offline folding.
// ---------------------------------------------------------------------------

Symbolizer& symbolizer() {
  static auto* s = new Symbolizer();
  return *s;
}

bool is_profiler_frame(const std::string& name) {
  return name.find("taamr_prof_signal_handler") != std::string::npos ||
         name.find("__restore_rt") != std::string::npos ||
         name.find("backtrace") != std::string::npos ||
         name.find("_Unwind") != std::string::npos ||
         name.find("on_alloc_slow") != std::string::npos;
}

std::string root_frame(long tid) {
  std::string name = thread_name_for_tid(tid);
  if (!name.empty()) return name;
  return "tid" + std::to_string(tid);
}

// Builds "threadname;outer;...;leaf" from a raw pc array (innermost first),
// dropping the handler/trampoline frames the signal capture prepends.
// Non-leaf pcs are return addresses, so they are shifted back one byte
// before lookup to land inside the calling function.
std::string fold_stack(long tid, void* const* pcs, int depth, int max_scan) {
  int first_real = 0;
  const int scan = std::min(depth, max_scan);
  for (int i = 0; i < scan; ++i) {
    const std::string& name = symbolizer().name_for(pcs[i]);
    if (!is_profiler_frame(name)) continue;
    first_real = i + 1;
    // The kernel's signal trampoline (__restore_rt) sits directly above
    // the handler but has no dynamic symbol on most libcs, so it cannot be
    // matched by name — skip it positionally.
    if (name.find("taamr_prof_signal_handler") != std::string::npos) {
      first_real = i + 2;
    }
  }
  if (first_real >= depth) first_real = depth - 1;
  std::string stack = root_frame(tid);
  for (int i = depth - 1; i >= first_real; --i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(pcs[i]);
    void* lookup = (i == first_real) ? pcs[i]
                                     : reinterpret_cast<void*>(addr - 1);
    stack += ';';
    stack += symbolizer().name_for(lookup);
  }
  return stack;
}

}  // namespace

// The SIGPROF handler. extern "C" so the symbolizer can match it by name
// when stripping its own frames out of captured stacks.
extern "C" void taamr_prof_signal_handler(int /*signum*/) {
#ifdef __linux__
  const int saved_errno = errno;
  if (g_active.load(std::memory_order_acquire)) {
    const long tid = static_cast<long>(::syscall(SYS_gettid));
    Ring* ring = claim_ring(tid);
    if (ring == nullptr) {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      const std::uint32_t head = ring->head.load(std::memory_order_relaxed);
      if (head >= kRingCapacity) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& s = ring->samples[head];
        const int depth = ::backtrace(s.pcs, kMaxDepth);
        if (depth > 0) {
          s.depth = depth;
          ring->head.store(head + 1, std::memory_order_release);
        }
      }
    }
  }
  errno = saved_errno;
#endif
}

const char* profile_mode_name(ProfileMode m) {
  switch (m) {
    case ProfileMode::kOff: return "off";
    case ProfileMode::kCpu: return "cpu";
    case ProfileMode::kAlloc: return "alloc";
    case ProfileMode::kBoth: return "both";
  }
  return "off";
}

ProfilerConfig ProfilerConfig::from_env() {
  ProfilerConfig cfg;
  const char* mode = std::getenv("TAAMR_PROFILE");
  if (mode != nullptr) {
    const std::string m = mode;
    if (m == "cpu") cfg.mode = ProfileMode::kCpu;
    else if (m == "alloc") cfg.mode = ProfileMode::kAlloc;
    else if (m == "both") cfg.mode = ProfileMode::kBoth;
    else cfg.mode = ProfileMode::kOff;  // "off", "", and typos all mean off
  }
  cfg.hz = static_cast<int>(env::get_int("TAAMR_PROFILE_HZ", cfg.hz, 1, 10000));
  const char* out = std::getenv("TAAMR_PROFILE_OUT");
  if (out != nullptr && *out != '\0') cfg.out_prefix = out;
  cfg.out_prefix = expand_pid_path(cfg.out_prefix);
  return cfg;
}

namespace {

// Cumulative state is per-Profiler; the collection machinery is global.
struct Cumulative {
  FoldedProfile cpu;
  FoldedProfile alloc;
  std::uint64_t cpu_samples = 0;
  std::uint64_t alloc_samples = 0;
};

}  // namespace

// Private per-instance storage kept out of the header: the header stays
// free of <mutex>/<map> internals leaking into every includer.
static std::mutex g_cumulative_mutex;
static Cumulative* instance_state(const Profiler* p, bool erase = false) {
  static std::map<const Profiler*, Cumulative*> states;
  std::lock_guard<std::mutex> lock(g_cumulative_mutex);
  if (erase) {
    auto it = states.find(p);
    if (it != states.end()) {
      delete it->second;
      states.erase(it);
    }
    return nullptr;
  }
  auto it = states.find(p);
  if (it == states.end()) it = states.emplace(p, new Cumulative()).first;
  return it->second;
}

Profiler& Profiler::global() {
  static auto* p = new Profiler(ProfilerConfig::from_env());
  static struct ArtifactWriter {
    Profiler* profiler;
    ~ArtifactWriter() {
      if (profiler->config().mode != ProfileMode::kOff) {
        profiler->write_artifacts();
      }
      profiler->stop_cpu();
    }
  } writer{p};
  return *p;
}

namespace {

// Any binary becomes profileable by environment alone: this TU-level
// initializer touches the global profiler when TAAMR_PROFILE is set,
// arming collection at static-init time and scheduling artifact writing
// at exit. The object is pulled into every binary that allocates a Tensor
// (tensor.cpp references prof::on_alloc), so examples and tools need no
// explicit Profiler::global() call.
const bool g_env_autostart = [] {
  const char* mode = std::getenv("TAAMR_PROFILE");
  if (mode != nullptr && *mode != '\0' && std::strcmp(mode, "off") != 0) {
    (void)Profiler::global();
  }
  return true;
}();

}  // namespace

Profiler::Profiler(ProfilerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.alloc_enabled()) {
    AllocStore& store = alloc_store();
    {
      std::lock_guard<std::mutex> lock(store.mutex);
      store.every = cfg_.alloc_sample_every;
    }
    prof::detail::g_alloc_state.store(1, std::memory_order_release);
  }
  if (cfg_.cpu_enabled()) start_cpu();
}

Profiler::~Profiler() {
  {
    std::lock_guard<std::mutex> lock(control_mutex());
    if (g_cpu_running) {
#ifdef __linux__
      struct itimerval off {};
      ::setitimer(ITIMER_PROF, &off, nullptr);
#endif
      g_active.store(false, std::memory_order_release);
      g_cpu_running = false;
    }
  }
  instance_state(this, /*erase=*/true);
}

bool Profiler::cpu_running() const {
  std::lock_guard<std::mutex> lock(control_mutex());
  return g_cpu_running;
}

void Profiler::start_cpu() {
#ifdef __linux__
  std::lock_guard<std::mutex> lock(control_mutex());
  if (g_cpu_running) return;

  // Prime the glibc unwinder: its first backtrace() lazily initializes
  // libgcc state (which allocates). Doing it here keeps the handler clean.
  void* prime[4];
  ::backtrace(prime, 4);
  (void)symbolizer();  // ELF symtab load, also outside the handler

  struct sigaction sa {};
  sa.sa_handler = &taamr_prof_signal_handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, nullptr) != 0) return;

  g_active.store(true, std::memory_order_release);

  const long interval_us = std::max(1000000L / cfg_.hz, 100L);
  struct itimerval timer {};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_active.store(false, std::memory_order_release);
    return;
  }
  g_cpu_running = true;
#endif
}

void Profiler::stop_cpu() {
#ifdef __linux__
  std::lock_guard<std::mutex> lock(control_mutex());
  if (!g_cpu_running) return;
  struct itimerval off {};
  ::setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(false, std::memory_order_release);
  g_cpu_running = false;
  // Let handlers that were already past the g_active check retire before
  // any drain reads the rings.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
#endif
}

FoldedProfile Profiler::drain_cpu_locked() {
  FoldedProfile window;
  for (Ring& ring : g_rings) {
    const long tid = ring.tid.load(std::memory_order_acquire);
    if (tid == 0) continue;
    const std::uint32_t head = ring.head.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < head; ++i) {
      const RawSample& s = ring.samples[i];
      const int depth = std::min<std::int32_t>(s.depth, kMaxDepth);
      if (depth <= 0) continue;
      window.add(fold_stack(tid, s.pcs, depth, /*max_scan=*/6), 1);
    }
    ring.head.store(0, std::memory_order_relaxed);  // recycle; tid stays
  }
  Cumulative* state = instance_state(this);
  merge_folded(state->cpu, window);
  state->cpu_samples += window.total_weight();
  return window;
}

FoldedProfile Profiler::drain_cpu() {
  std::lock_guard<std::mutex> lock(control_mutex());
  return drain_cpu_locked();
}

FoldedProfile Profiler::drain_alloc_locked() {
  AllocStore& store = alloc_store();
  std::vector<AllocSample> pending;
  {
    std::lock_guard<std::mutex> lock(store.mutex);
    pending.swap(store.samples);
  }
  FoldedProfile window;
  for (const AllocSample& s : pending) {
    const int depth = std::min<std::int32_t>(s.depth, kAllocDepth);
    if (depth <= 0 || s.weight <= 0) continue;
    window.add(fold_stack(s.tid, s.pcs, depth, /*max_scan=*/3),
               static_cast<std::uint64_t>(s.weight));
  }
  Cumulative* state = instance_state(this);
  merge_folded(state->alloc, window);
  state->alloc_samples += pending.size();
  return window;
}

FoldedProfile Profiler::drain_alloc() {
  std::lock_guard<std::mutex> lock(control_mutex());
  return drain_alloc_locked();
}

FoldedProfile Profiler::cpu_profile() {
  std::lock_guard<std::mutex> lock(control_mutex());
  if (!g_cpu_running) drain_cpu_locked();
  return instance_state(this)->cpu;
}

ProfilerCounts Profiler::counts() {
  std::lock_guard<std::mutex> lock(control_mutex());
  ProfilerCounts c;
  Cumulative* state = instance_state(this);
  c.cpu_samples = state->cpu_samples;
  c.cpu_dropped = g_dropped.load(std::memory_order_relaxed);
  c.alloc_samples = state->alloc_samples;
  for (const Ring& ring : g_rings) {
    if (ring.tid.load(std::memory_order_relaxed) != 0) ++c.threads_seen;
  }
  AllocStore& store = alloc_store();
  std::lock_guard<std::mutex> alock(store.mutex);
  c.alloc_dropped = store.dropped;
  return c;
}

std::string Profiler::profile_window_folded(double seconds) {
  static std::mutex window_mutex;  // concurrent serve requests take turns
  std::lock_guard<std::mutex> window_lock(window_mutex);

  seconds = std::clamp(seconds, 0.05, 60.0);
  const bool was_running = cpu_running();
  if (was_running) {
    stop_cpu();
    drain_cpu();  // pre-window samples belong to the cumulative profile
  }
  start_cpu();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop_cpu();
  const FoldedProfile window = drain_cpu();
  if (was_running) start_cpu();

  if (window.empty()) return "# no samples (process idle during window)\n";
  return to_folded(window);
}

void Profiler::write_artifacts() {
  const bool was_running = cpu_running();
  if (was_running) stop_cpu();
  FoldedProfile cpu;
  FoldedProfile alloc;
  ProfilerCounts c;
  {
    std::lock_guard<std::mutex> lock(control_mutex());
    drain_cpu_locked();
    drain_alloc_locked();
    Cumulative* state = instance_state(this);
    cpu = state->cpu;
    alloc = state->alloc;
    c.cpu_samples = state->cpu_samples;
    c.alloc_samples = state->alloc_samples;
    c.cpu_dropped = g_dropped.load(std::memory_order_relaxed);
    for (const Ring& ring : g_rings) {
      if (ring.tid.load(std::memory_order_relaxed) != 0) ++c.threads_seen;
    }
    {
      AllocStore& store = alloc_store();
      std::lock_guard<std::mutex> alock(store.mutex);
      c.alloc_dropped = store.dropped;
    }
  }
  if (was_running) start_cpu();

  if (!cpu.empty()) {
    std::ofstream out(cfg_.out_prefix + ".cpu.folded");
    out << to_folded(cpu);
  }
  if (!alloc.empty()) {
    std::ofstream out(cfg_.out_prefix + ".alloc.folded");
    out << to_folded(alloc);
  }

  // Per-kernel-family allocation rollup for the JSON summary.
  std::map<std::string, std::uint64_t> by_kernel;
  for (const auto& [stack, weight] : alloc.stacks) {
    by_kernel[kernel_family_for_stack(stack)] += weight;
  }

  std::ofstream json(cfg_.out_prefix + ".profile.json");
  json << "{\n";
  json << "  \"mode\": \"" << profile_mode_name(cfg_.mode) << "\",\n";
  json << "  \"hz\": " << cfg_.hz << ",\n";
  json << "  \"cpu\": {\"samples\": " << c.cpu_samples
       << ", \"dropped\": " << c.cpu_dropped
       << ", \"threads\": " << c.threads_seen << "},\n";
  json << "  \"alloc\": {\"samples\": " << c.alloc_samples
       << ", \"dropped\": " << c.alloc_dropped
       << ", \"sampled_every\": " << cfg_.alloc_sample_every
       << ", \"estimated_bytes\": " << alloc.total_weight()
       << ", \"by_kernel\": {";
  bool first = true;
  for (const auto& [family, bytes] : by_kernel) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << json::escape(family) << "\": " << bytes;
  }
  json << "}}\n}\n";
}

}  // namespace taamr::obs

namespace taamr::prof {

namespace detail {

std::atomic<int> g_alloc_state{-1};

bool alloc_init_slow() {
  // Latch from the environment without requiring Profiler::global() to
  // exist yet: tensors allocate during static init of some binaries.
  const char* mode = std::getenv("TAAMR_PROFILE");
  const bool on =
      mode != nullptr &&
      (std::strcmp(mode, "alloc") == 0 || std::strcmp(mode, "both") == 0);
  int expected = -1;
  g_alloc_state.compare_exchange_strong(expected, on ? 1 : 0,
                                        std::memory_order_acq_rel);
  return g_alloc_state.load(std::memory_order_acquire) == 1;
}

void on_alloc_slow(std::int64_t bytes) {
#ifdef __linux__
  using obs::AllocStore;
  if (bytes < obs::kAllocMinBytes) return;
  AllocStore& store = obs::alloc_store();
  int every;
  {
    std::lock_guard<std::mutex> lock(store.mutex);
    every = store.every;
  }

  thread_local std::uint64_t counter = 0;
  if (counter++ % static_cast<std::uint64_t>(every) != 0) return;

  obs::AllocSample sample;
  sample.weight = bytes * every;
  sample.tid = current_tid();
  sample.depth = ::backtrace(sample.pcs, obs::kAllocDepth);
  if (sample.depth <= 0) return;

  std::lock_guard<std::mutex> lock(store.mutex);
  if (store.samples.size() >= obs::kMaxAllocSamples) {
    ++store.dropped;
    return;
  }
  ++store.taken;
  store.samples.push_back(sample);
#else
  (void)bytes;
#endif
}

}  // namespace detail

}  // namespace taamr::prof
