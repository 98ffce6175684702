#include "probes.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include <sys/resource.h>

#include "attack/attack.hpp"
#include "stats.hpp"
#include "tensor/cost.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace taamr::bench {

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void traced_prepare(core::Pipeline& pipeline, SpanRecorder* spans, PrepareClock& clock) {
  const double cpu0 = process_cpu_seconds();
  const Stopwatch t0;
  {
    ScopedSpan span(spans, "core/prepare");
    pipeline.prepare();
  }
  clock.wall_s += t0.seconds();
  clock.cpu_s += process_cpu_seconds() - cpu0;
}

CostSnapshot CostSnapshot::now() {
  CostSnapshot s;
  const cost::KernelTotals gemm = cost::totals(cost::Kernel::kGemm);
  s.gemm_flops = gemm.flops;
  s.gemm_bytes = gemm.bytes;
  s.im2col_bytes = cost::totals(cost::Kernel::kIm2col).bytes;
  s.elementwise_bytes = cost::totals(cost::Kernel::kElementwise).bytes;
  return s;
}

void set_tensor_metrics(Result& result, const CostSnapshot& before) {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  const CostSnapshot after = CostSnapshot::now();
  result.set("tensor.gemm_gflop", (after.gemm_flops - before.gemm_flops) * 1e-9);
  result.set("tensor.gemm_gib", (after.gemm_bytes - before.gemm_bytes) / kGiB);
  result.set("tensor.im2col_gib", (after.im2col_bytes - before.im2col_bytes) / kGiB);
  result.set("tensor.elementwise_gib",
             (after.elementwise_bytes - before.elementwise_bytes) / kGiB);
  result.set("tensor.high_water_mb",
             static_cast<double>(cost::tensor_bytes_high_water()) / (1024.0 * 1024.0));
}

AttackProducts make_attack_products(core::Pipeline& pipeline,
                                    const core::AttackScenario& scenario,
                                    const std::string& attack_key, float eps_255,
                                    SpanRecorder* spans, Result& result) {
  AttackProducts p;
  {
    ScopedSpan span(spans, "attack/" + attack_key);
    p.batch = pipeline.attack_category(scenario.source_category, scenario.target_category,
                                       attack_key, eps_255);
    span.set_calls(p.batch.items.size());
  }
  // The attack's contract: every pixel moves by at most eps and stays a
  // valid intensity.
  const float eps = attack::epsilon_from_255(eps_255);
  const Tensor& clean = p.batch.clean_images;
  const Tensor& adv = p.batch.attacked_images;
  bool within = clean.shape() == adv.shape();
  for (std::int64_t i = 0; within && i < adv.numel(); ++i) {
    const float a = adv.data()[i];
    within = a >= 0.0f && a <= 1.0f && std::fabs(a - clean.data()[i]) <= eps + 1e-6f;
  }
  result.check(within, attack_key + " eps " + std::to_string(eps_255) +
                           ": attacked batch leaves the eps L-inf ball or [0,1]");
  {
    ScopedSpan span(spans, "metrics/success");
    p.success = metrics::attack_success(pipeline.classifier(), adv, scenario.target_category,
                                        attack::display_name(attack_key));
  }
  {
    ScopedSpan span(spans, "metrics/visual");
    p.visual = metrics::average_visual_quality(pipeline.classifier(), clean, adv);
  }
  {
    ScopedSpan span(spans, "nn/extract", 0, p.batch.items.size());
    p.merged_features = pipeline.features_with_attack(p.batch.items, adv);
  }
  return p;
}

namespace {
// "Conv2d(3->4, k=3, ...)" -> "conv2d".
std::string layer_kind(const std::string& name) {
  std::string kind;
  for (const char c : name.substr(0, name.find('('))) {
    kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return kind;
}

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Stopwatch t0;
    fn();
    ms.push_back(t0.millis());
  }
  return median(ms);
}
}  // namespace

void nn_layer_probe(const nn::Classifier& classifier, const Tensor& images, Result& result,
                    int reps) {
  constexpr std::int64_t kBatch = 32;
  if (images.dim(0) < kBatch) throw std::invalid_argument("nn probe needs 32 images");
  nn::Classifier probe = classifier.clone();
  nn::Sequential& net = probe.network();
  const std::vector<std::string>& tags = cnn_layer_tags();
  if (net.size() != tags.size()) {
    throw std::logic_error("CNN has " + std::to_string(net.size()) + " layers, metrics declare " +
                           std::to_string(tags.size()));
  }
  Tensor x = nn::slice_rows(images, 0, kBatch);
  for (std::size_t i = 0; i < net.size(); ++i) {
    nn::Layer& layer = net.layer(i);
    const std::string tag = std::to_string(i) + "_" + layer_kind(layer.name());
    if (tag != tags[i]) throw std::logic_error("CNN layer " + tag + " where metrics declare " + tags[i]);
    Tensor out;
    result.set("nn.fwd_ms." + tag, median_ms(reps, [&] { out = layer.forward(x, true); }));
    const Tensor grad(out.shape(), 1.0f);
    result.set("nn.bwd_ms." + tag, median_ms(reps, [&] { layer.backward(grad); }));
    x = std::move(out);
  }
}

void set_stage_metrics(Result& result, const std::vector<Span>& spans,
                       const PrepareClock& prepare) {
  const auto totals = aggregate_spans(spans);
  auto wall = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.wall_s;
  };
  auto calls = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  auto per_call_ms = [&](const std::string& name) {
    return calls(name) > 0.0 ? wall(name) * 1e3 / calls(name) : 0.0;
  };
  result.set("core.prepare_s", prepare.wall_s);
  result.set("core.prepare_cpu_util",
             prepare.wall_s > 0.0
                 ? prepare.cpu_s / (prepare.wall_s * static_cast<double>(env_thread_count()))
                 : 0.0);
  const auto replay = totals.find("replay");
  result.set("core.unattributed_s", replay == totals.end() ? 0.0 : replay->second.self_s);
  result.set("recsys.train_vbpr_s", wall("recsys/train_vbpr"));
  result.set("recsys.train_s",
             wall("recsys/train_vbpr") + wall("recsys/train_amr") + wall("recsys/train_bpr_mf"));
  result.set("recsys.rank_s", wall("recsys/rank"));
  result.set("recsys.rank_calls", calls("recsys/rank"));
  result.set("attack.fgsm_ms_per_image", per_call_ms("attack/fgsm"));
  result.set("attack.pgd_ms_per_image", per_call_ms("attack/pgd"));
  result.set("nn.extract_ms_per_image", per_call_ms("nn/extract"));
  result.set("metrics.visual_s", wall("metrics/visual"));
  result.set("metrics.success_s", wall("metrics/success"));
  result.set("metrics.chr_s", wall("metrics/chr"));
}

}  // namespace taamr::bench
