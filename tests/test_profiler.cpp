// Live-profiler tests: SIGPROF sampling end to end (collect, fold,
// thread-name roots), symbolization sanity on a GEMM-heavy workload (>=30%
// of samples must attribute to gemm/simd frames), sampled allocation
// attribution through the tensor allocator, the on-demand window used by
// the serve profile op, and a parallel_for storm under high sampling rate —
// the suite CI runs under TSAN to audit handler/collector synchronization.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "obs/symbolize.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_name.hpp"
#include "util/thread_pool.hpp"

namespace taamr::obs {
namespace {

ProfilerConfig cpu_config(int hz) {
  ProfilerConfig cfg;
  cfg.mode = ProfileMode::kCpu;
  cfg.hz = hz;
  return cfg;
}

// Burns CPU until at least `min_samples` have been captured or ~5 seconds
// elapse, whichever comes first, so the assertions are not timing-flaky.
void burn_until_samples(Profiler& profiler, std::uint64_t min_samples) {
  volatile double sink = 0.0;
  for (int rounds = 0; rounds < 500; ++rounds) {
    for (int i = 0; i < 4'000'000; ++i) {
      sink = sink + static_cast<double>(i) * 1e-9;
    }
    profiler.stop_cpu();
    const std::uint64_t seen = profiler.cpu_profile().total_weight();
    if (seen >= min_samples) return;
    profiler.start_cpu();
  }
}

TEST(ProfilerCpu, CollectsAndFoldsSamples) {
  set_current_thread_name("prof-test");
  Profiler profiler(cpu_config(997));
  burn_until_samples(profiler, 10);
  profiler.stop_cpu();
  const FoldedProfile profile = profiler.cpu_profile();
  ASSERT_GE(profile.total_weight(), 10u);

  // Most of the weight must root at this thread's name — the burn loop ran
  // here.
  std::uint64_t named = 0;
  for (const auto& [stack, weight] : profile.stacks) {
    if (stack.rfind("prof-test;", 0) == 0) named += weight;
  }
  EXPECT_GT(named, 0u) << to_folded(profile);

  // The folded emission of a live profile must survive the strict parser.
  const FoldedProfile reparsed = parse_folded(to_folded(profile));
  EXPECT_EQ(reparsed.total_weight(), profile.total_weight());

  const ProfilerCounts counts = profiler.counts();
  EXPECT_GE(counts.cpu_samples, 10u);
  EXPECT_GE(counts.threads_seen, 1u);
}

TEST(ProfilerCpu, GemmWorkloadAttributesToKernelFrames) {
  set_current_thread_name("prof-gemm");
  Profiler profiler(cpu_config(997));

  // GEMM-heavy workload: large enough that the SIMD panel kernel dominates.
  // Each round burns many timer intervals of CPU before stopping — the
  // stop/start cycle disarms ITIMER_PROF and resets its accumulated
  // interval, so a round shorter than one interval would never sample.
  Tensor a({192, 192}, 0.5f);
  Tensor b({192, 192}, 0.25f);
  volatile float sink = 0.0f;
  for (int rounds = 0; rounds < 100; ++rounds) {
    for (int reps = 0; reps < 40; ++reps) {
      const Tensor c = ops::matmul(a, b);
      sink = sink + c.data()[0];
    }
    profiler.stop_cpu();
    if (profiler.cpu_profile().total_weight() >= 40) break;
    profiler.start_cpu();
  }
  profiler.stop_cpu();
  const FoldedProfile profile = profiler.cpu_profile();
  ASSERT_GE(profile.total_weight(), 20u) << "too few samples to attribute";

  // Symbolization sanity: at least 30% of sampled weight must land on
  // stacks naming a gemm/simd/matmul frame. This is what catches the
  // dladdr-only failure mode where anonymous-namespace kernels misattribute
  // to neighboring exported symbols.
  std::uint64_t kernel_weight = 0;
  for (const auto& [stack, weight] : profile.stacks) {
    if (stack.find("gemm") != std::string::npos ||
        stack.find("simd") != std::string::npos ||
        stack.find("matmul") != std::string::npos) {
      kernel_weight += weight;
    }
  }
  const double share = static_cast<double>(kernel_weight) /
                       static_cast<double>(profile.total_weight());
  EXPECT_GE(share, 0.30) << "only " << share * 100.0
                         << "% of samples attribute to gemm/simd frames:\n"
                         << to_folded(profile);
}

TEST(ProfilerCpu, OnDemandWindowReturnsParseableFolded) {
  // The serve profile op path: no autostart (mode off), one explicit
  // window while a busy thread runs.
  ProfilerConfig cfg;
  cfg.mode = ProfileMode::kOff;
  cfg.hz = 997;
  Profiler profiler(cfg);

  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    set_current_thread_name("window-busy");
    volatile double sink = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 100'000; ++i) {
        sink = sink + static_cast<double>(i);
      }
    }
  });
  const std::string folded = profiler.profile_window_folded(0.4);
  stop.store(true);
  busy.join();

  EXPECT_FALSE(profiler.cpu_running()) << "window must restore stopped state";
  if (folded.rfind("# no samples", 0) == 0) {
    GTEST_SKIP() << "machine too contended to sample the busy thread";
  }
  const FoldedProfile profile = parse_folded(folded);
  EXPECT_GT(profile.total_weight(), 0u);
}

TEST(ProfilerAlloc, SamplesTensorAllocationsWithRateWeighting) {
  ProfilerConfig cfg;
  cfg.mode = ProfileMode::kAlloc;
  cfg.alloc_sample_every = 1;  // every large allocation, deterministic
  Profiler profiler(cfg);
  profiler.drain_alloc();  // discard anything earlier tests allocated

  // 64 KiB per tensor — exactly the large-alloc floor.
  constexpr int kTensors = 8;
  constexpr std::uint64_t kBytes = 64 * 1024;
  for (int i = 0; i < kTensors; ++i) {
    Tensor t({static_cast<std::int64_t>(kBytes / sizeof(float))}, 1.0f);
    ASSERT_EQ(t.numel() * static_cast<std::int64_t>(sizeof(float)),
              static_cast<std::int64_t>(kBytes));
  }
  const FoldedProfile profile = profiler.drain_alloc();
  ASSERT_FALSE(profile.empty());
  // rate 1 => weight == bytes, no estimation scaling.
  EXPECT_GE(profile.total_weight(), kTensors * kBytes);
  bool tensor_frame = false;
  for (const auto& [stack, weight] : profile.stacks) {
    if (stack.find("Tensor") != std::string::npos) tensor_frame = true;
  }
  EXPECT_TRUE(tensor_frame) << to_folded(profile);
}

TEST(ProfilerAlloc, SmallAllocationsAreNotSampled) {
  ProfilerConfig cfg;
  cfg.mode = ProfileMode::kAlloc;
  cfg.alloc_sample_every = 1;
  Profiler profiler(cfg);
  profiler.drain_alloc();
  for (int i = 0; i < 64; ++i) {
    Tensor t({16}, 0.0f);  // 64 bytes: far under the 64 KiB floor
    (void)t;
  }
  EXPECT_TRUE(profiler.drain_alloc().empty());
}

TEST(ProfilerStress, ParallelForStormUnderHighRate) {
  // Handler fires at 5 kHz into pool workers while the collector drains
  // concurrently-stopped windows. TSAN runs this suite in CI; any
  // handler/collector race on the rings or thread-name registry surfaces
  // here.
  Profiler profiler(cpu_config(5000));
  ThreadPool pool(4);
  std::atomic<std::uint64_t> work{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(0, 256, [&work](std::size_t i) {
      volatile double sink = 0.0;
      for (std::size_t j = 0; j < 20'000; ++j) {
        sink = sink + static_cast<double>(i * j);
      }
      work.fetch_add(1, std::memory_order_relaxed);
    });
    if (round % 5 == 4) {
      profiler.stop_cpu();
      profiler.drain_cpu();
      profiler.start_cpu();
    }
  }
  profiler.stop_cpu();
  const FoldedProfile profile = profiler.cpu_profile();
  EXPECT_EQ(work.load(), 20u * 256u);
  EXPECT_GT(profile.total_weight(), 0u);
  // Worker stacks root at their pool names.
  bool worker_rooted = false;
  for (const auto& [stack, weight] : profile.stacks) {
    if (stack.rfind("taamr-p", 0) == 0) worker_rooted = true;
  }
  EXPECT_TRUE(worker_rooted) << to_folded(profile);
}

TEST(ProfilerSymbolize, TidySymbolCutsParamsKeepsAnonymousNamespace) {
  EXPECT_EQ(tidy_symbol("foo(int, float)"), "foo");
  EXPECT_EQ(tidy_symbol("(anonymous namespace)::report_gemm(long)"),
            "(anonymous namespace)::report_gemm");
  EXPECT_EQ(tidy_symbol(
                "taamr::simd::(anonymous namespace)::gemm_panel(float*, int)"),
            "taamr::simd::(anonymous namespace)::gemm_panel");
  // The '(' inside template args must not cut the name.
  EXPECT_EQ(tidy_symbol("std::function<void (unsigned long)>::operator()("
                        "unsigned long) const"),
            "std::function<void (unsigned long)>::operator()");
  // ';' would corrupt the folded format.
  EXPECT_EQ(tidy_symbol("weird;name"), "weird:name");
}

TEST(ProfilerSymbolize, ExecutableSymtabResolvesLocalFunctions) {
  Symbolizer symbolizer;
  // Test binaries are linked with full symtabs; if this is zero the
  // profiler silently degrades to dladdr-only naming — fail loudly instead.
  ASSERT_GT(symbolizer.symtab_size(), 0u);
  const std::string name = symbolizer.name_for(
      reinterpret_cast<void*>(&taamr::ops::gemm_nn_blocked));
  EXPECT_NE(name.find("gemm_nn_blocked"), std::string::npos) << name;
}

}  // namespace
}  // namespace taamr::obs
