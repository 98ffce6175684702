// Per-layer measurement shared by the workloads' traced runs: the stage
// calls every replay makes (each wrapped in a bench-side span), the nn
// per-layer probe, the tensor cost counters, and the span -> metric rules.
//
// Span names are the layer map: core/prepare, recsys/train_*, recsys/rank,
// attack/<key>, nn/extract, metrics/{success,visual,chr}. A traced run opens
// one root span "replay" around the workload's own replay; whatever the root
// spends outside its child spans is core.unattributed_s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/success.hpp"
#include "result.hpp"
#include "spans.hpp"

namespace taamr::bench {

// utime + stime of this process, seconds.
double process_cpu_seconds();

// Pipeline::prepare under a core/prepare span, accumulating its wall and CPU
// time for core.prepare_cpu_util.
struct PrepareClock {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
void traced_prepare(core::Pipeline& pipeline, SpanRecorder* spans, PrepareClock& clock);

// Kernel cost counters (tensor/cost.hpp) at one instant; the traced run
// enables accounting and reports deltas as the tensor.* metrics.
struct CostSnapshot {
  double gemm_flops = 0.0;
  double gemm_bytes = 0.0;
  double im2col_bytes = 0.0;
  double elementwise_bytes = 0.0;
  static CostSnapshot now();
};
void set_tensor_metrics(Result& result, const CostSnapshot& before);

// The attacked images of one (scenario, attack, eps) and their
// model-independent metrics: what core::run_dataset_experiment computes once
// per key and reuses for both recommenders.
struct AttackProducts {
  core::Pipeline::AttackedBatch batch;
  metrics::SuccessStats success;
  metrics::VisualQuality visual;
  Tensor merged_features;
};
// Runs the stage calls under attack/<key>, metrics/success, metrics/visual
// and nn/extract spans, and checks every attacked image stays within eps in
// L-infinity and inside [0, 1].
AttackProducts make_attack_products(core::Pipeline& pipeline,
                                    const core::AttackScenario& scenario,
                                    const std::string& attack_key, float eps_255,
                                    SpanRecorder* spans, Result& result);

// Times Classifier::network().layer(i).forward/backward on a 32-image batch
// (median of `reps` calls each) and sets nn.fwd_ms.<tag> / nn.bwd_ms.<tag>.
// Probes a copy, so the caller's classifier is untouched.
void nn_layer_probe(const nn::Classifier& classifier, const Tensor& images, Result& result,
                    int reps = 20);

// Sets core.prepare_*, core.unattributed_s, recsys.*, attack.*,
// nn.extract_ms_per_image and metrics.* from the recorded spans.
void set_stage_metrics(Result& result, const std::vector<Span>& spans,
                       const PrepareClock& prepare);

}  // namespace taamr::bench
