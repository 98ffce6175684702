// google-benchmark microbenchmarks of the substrates: GEMM, conv lowering,
// CNN forward/backward, attack steps, recommender epochs and ranking.
// These document where the wall-clock of the table benches goes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "attack/attack.hpp"
#include "bench_common.hpp"
#include "data/amazon_synth.hpp"
#include "data/dataset.hpp"
#include "nn/classifier.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "tensor/conv_lowering.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"

namespace {

using namespace taamr;

// Off/on pairs behind gemm_profiler_overhead_pct.
constexpr int kProfilerPairs = 20;

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  for (float& v : a.storage()) v = rng.uniform_f();
  for (float& v : b.storage()) v = rng.uniform_f();
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  conv::ConvGeometry g;
  g.in_channels = 12;
  g.in_h = g.in_w = 32;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  Rng rng(2);
  Tensor img({12, 32, 32});
  for (float& v : img.storage()) v = rng.uniform_f();
  for (auto _ : state) {
    Tensor cols = conv::im2col(img, g);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

// The pipeline's CNN at three times its width.
nn::Classifier make_bench_classifier() {
  nn::MiniResNetConfig cfg = core::PipelineConfig{}.cnn_config();
  cfg.base_width = 12;
  Rng rng(3);
  return nn::Classifier(cfg, rng);
}

void BM_CnnForward(benchmark::State& state) {
  nn::Classifier c = make_bench_classifier();
  const std::int64_t batch = state.range(0);
  Rng rng(4);
  Tensor x({batch, 3, 32, 32});
  for (float& v : x.storage()) v = rng.uniform_f();
  for (auto _ : state) {
    Tensor logits = c.logits(x);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(16)->Arg(64);

void BM_CnnInputGradient(benchmark::State& state) {
  nn::Classifier c = make_bench_classifier();
  const std::int64_t batch = state.range(0);
  Rng rng(5);
  Tensor x({batch, 3, 32, 32});
  for (float& v : x.storage()) v = rng.uniform_f();
  const std::vector<std::int64_t> labels(static_cast<std::size_t>(batch), 1);
  for (auto _ : state) {
    Tensor g = c.loss_input_gradient(x, labels);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CnnInputGradient)->Arg(1)->Arg(16);

void BM_FgsmPerImage(benchmark::State& state) {
  nn::Classifier c = make_bench_classifier();
  Rng rng(6);
  Tensor x({8, 3, 32, 32});
  for (float& v : x.storage()) v = rng.uniform_f();
  const std::vector<std::int64_t> targets(8, 2);
  attack::AttackConfig cfg;
  auto fgsm = attack::make("fgsm", cfg);
  for (auto _ : state) {
    Tensor adv = fgsm->perturb(c, x, targets, rng);
    benchmark::DoNotOptimize(adv.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_FgsmPerImage);

void BM_Pgd10PerImage(benchmark::State& state) {
  nn::Classifier c = make_bench_classifier();
  Rng rng(7);
  Tensor x({8, 3, 32, 32});
  for (float& v : x.storage()) v = rng.uniform_f();
  const std::vector<std::int64_t> targets(8, 2);
  attack::AttackConfig cfg;
  auto pgd = attack::make("pgd", cfg);
  for (auto _ : state) {
    Tensor adv = pgd->perturb(c, x, targets, rng);
    benchmark::DoNotOptimize(adv.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Pgd10PerImage);

struct RecsysFixture {
  data::ImplicitDataset dataset;
  Tensor features;
  std::unique_ptr<recsys::Vbpr> model;

  RecsysFixture() {
    dataset = data::generate_synthetic_dataset(data::amazon_men_spec(0.01));
    Rng rng(8);
    features = Tensor({dataset.num_items, 48});
    for (float& v : features.storage()) v = rng.gaussian_f(0.0f, 1.0f);
    recsys::VbprConfig cfg;
    model = std::make_unique<recsys::Vbpr>(dataset, features, cfg, rng);
    model->set_item_features(features);
  }
};

void BM_VbprTrainEpoch(benchmark::State& state) {
  RecsysFixture fx;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model->train_epoch(fx.dataset, rng));
  }
  fx.model->set_item_features(fx.features);
  state.SetItemsProcessed(state.iterations() * fx.dataset.num_train_feedback());
}
BENCHMARK(BM_VbprTrainEpoch);

void BM_TopNRanking(benchmark::State& state) {
  RecsysFixture fx;
  for (auto _ : state) {
    auto lists = recsys::top_n_lists(*fx.model, fx.dataset, 100);
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.dataset.num_users);
}
BENCHMARK(BM_TopNRanking);

void BM_RenderItemImage(benchmark::State& state) {
  const auto& style = data::fashion_taxonomy()[0].style;
  data::ImageGenConfig cfg;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Tensor img = data::render_item_image(style, seed++, cfg);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_RenderItemImage);

// GEMM thread-scaling probe: times ops::gemm_nn_blocked against explicit
// 1- and 4-worker pools and books single- vs multi-thread GFLOP/s (and the
// speedup ratio) into the BENCH_micro_substrate.json artifact, which is
// what the regression gate tracks across commits. With the CPU profiler
// configured it also books gemm_profiler_overhead_pct. Returns false if the
// pooled result is not bitwise identical to the serial one.
bool report_gemm_scaling(taamr::bench::Reporter& reporter) {
  const std::int64_t n = 256;
  const double flops_per_iter = 2.0 * static_cast<double>(n) * n * n;
  Rng rng(10);
  Tensor a({n, n}), b({n, n});
  for (float& v : a.storage()) v = rng.uniform_f();
  for (float& v : b.storage()) v = rng.uniform_f();
  Tensor c_serial({n, n}), c_pooled({n, n});

  const int iters = 6;
  ThreadPool pool1(1), pool4(4);
  const auto time_gflops = [&](Tensor& c, ThreadPool* pool) {
    Stopwatch timer;
    for (int it = 0; it < iters; ++it) {
      std::fill(c.storage().begin(), c.storage().end(), 0.0f);
      ops::gemm_nn_blocked(c.data(), a.data(), b.data(), n, n, n, pool);
    }
    return iters * flops_per_iter / timer.seconds() / 1e9;
  };
  const double g1 = time_gflops(c_serial, &pool1);
  const double g4 = time_gflops(c_pooled, &pool4);
  reporter.add_metric("gemm_gflops", {{"threads", "1"}}, g1);
  reporter.add_metric("gemm_gflops", {{"threads", "4"}}, g4);
  reporter.add_metric("gemm_speedup_4_over_1", {}, g4 / g1);

  // Sampling-profiler cost (TAAMR_PROFILE=cpu only): alternating off/on
  // pairs of the threads=1 timing inside this one process, booked as the
  // median pair's GFLOP/s loss. prof_overhead_gate judges it.
  obs::Profiler& profiler = obs::Profiler::global();
  if (profiler.config().cpu_enabled()) {
    std::vector<double> loss_pct;
    for (int pair = 0; pair < kProfilerPairs; ++pair) {
      double gflops[2] = {0.0, 0.0};  // [0] profiler off, [1] on
      for (const bool on : {pair % 2 == 1, pair % 2 == 0}) {
        // stop_cpu() idles ~2 ms; idle as long before every timing so the
        // off timings are not the only ones that start on a rested core.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (on) {
          profiler.start_cpu();
        } else {
          profiler.stop_cpu();
        }
        gflops[on ? 1 : 0] = time_gflops(c_serial, &pool1);
      }
      loss_pct.push_back((gflops[0] - gflops[1]) / gflops[0] * 100.0);
    }
    profiler.start_cpu();
    std::sort(loss_pct.begin(), loss_pct.end());
    reporter.add_metric("gemm_profiler_overhead_pct", {},
                        loss_pct[loss_pct.size() / 2]);
  }

  // Re-run serially (nullptr pool) and demand bit-identity with the pooled
  // run — the kernel's panel decomposition must not change the math.
  std::fill(c_serial.storage().begin(), c_serial.storage().end(), 0.0f);
  ops::gemm_nn_blocked(c_serial.data(), a.data(), b.data(), n, n, n, nullptr);
  return std::memcmp(c_serial.data(), c_pooled.data(),
                     static_cast<std::size_t>(n * n) * sizeof(float)) == 0;
}

// SIMD substrate probe: times the scalar and AVX2 GEMM panel kernels
// directly (single thread, whole matrix as one panel) and books per-variant
// GFLOP/s plus the gemm_simd_speedup ratio into the artifact; the regression
// gate pins the speedup. When the host (or build) lacks AVX2+FMA the probe
// books speedup = 1 and skips the comparison. Also enforces the documented
// accuracy contract: AVX2 must match scalar elementwise within epsilon.
bool report_gemm_simd(taamr::bench::Reporter& reporter) {
  const std::int64_t n = 256;
  const double flops_per_iter = 2.0 * static_cast<double>(n) * n * n;
  Rng rng(11);
  Tensor a({n, n}), b({n, n});
  for (float& v : a.storage()) v = rng.uniform_f();
  for (float& v : b.storage()) v = rng.uniform_f();

  const int iters = 6;
  const auto time_gflops = [&](const simd::Kernels& kern, Tensor& c) {
    Stopwatch timer;
    for (int it = 0; it < iters; ++it) {
      std::fill(c.storage().begin(), c.storage().end(), 0.0f);
      kern.gemm_panel(c.data(), a.data(), b.data(), 0, n, n, n);
    }
    return iters * flops_per_iter / timer.seconds() / 1e9;
  };

  Tensor c_scalar({n, n});
  const simd::Kernels* scalar = simd::kernels_for(simd::Variant::kScalar);
  const double g_scalar = time_gflops(*scalar, c_scalar);
  reporter.add_metric("gemm_gflops",
                      {{"threads", "1"}, {"simd_variant", "scalar"}}, g_scalar);

  const simd::Kernels* avx2 = simd::kernels_for(simd::Variant::kAvx2);
  if (avx2 == nullptr || !simd::avx2_supported()) {
    std::fprintf(stderr, "gemm simd probe: AVX2 unavailable, skipping\n");
    reporter.add_metric("gemm_simd_speedup", {}, 1.0);
    return true;
  }
  Tensor c_avx2({n, n});
  const double g_avx2 = time_gflops(*avx2, c_avx2);
  reporter.add_metric("gemm_gflops",
                      {{"threads", "1"}, {"simd_variant", "avx2"}}, g_avx2);
  reporter.add_metric("gemm_simd_speedup", {}, g_avx2 / g_scalar);

  // Accuracy contract: different accumulation order, so epsilon not
  // bit-identity — k = 256 dot products of uniform [0,1) values stay well
  // inside 1e-3 absolute.
  for (std::int64_t i = 0; i < n * n; ++i) {
    if (std::abs(c_scalar[i] - c_avx2[i]) > 1e-3f) {
      std::fprintf(stderr, "gemm simd probe: |scalar - avx2| = %g at %lld\n",
                   static_cast<double>(std::abs(c_scalar[i] - c_avx2[i])),
                   static_cast<long long>(i));
      return false;
    }
  }
  return true;
}

}  // namespace

// Expanded BENCHMARK_MAIN() so the run also leaves a BENCH_micro_substrate.json
// artifact (wall time + kernel FLOP/byte totals across all microbenchmarks).
int main(int argc, char** argv) {
  taamr::bench::Reporter reporter("micro_substrate");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!report_gemm_scaling(reporter)) {
    std::fprintf(stderr, "gemm scaling probe: pooled result != serial result\n");
    return 1;
  }
  if (!report_gemm_simd(reporter)) {
    std::fprintf(stderr, "gemm simd probe: scalar/avx2 parity failed\n");
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
