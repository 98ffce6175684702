#include "attack/pgd.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace taamr::attack {

Tensor Pgd::perturb(nn::Classifier& classifier, const Tensor& images,
                    const std::vector<std::int64_t>& labels, Rng& rng) {
  TAAMR_TRACE_SPAN("attack/pgd");
  auto& step_loss_hist = obs::MetricsRegistry::global().histogram(
      "attack_step_loss", {{"attack", "pgd"}},
      obs::exponential_bounds(1e-3, 2.0, 20));
  Tensor adversarial = images;
  if (config_.random_start) {
    for (float& v : adversarial.storage()) {
      v += rng.uniform_f(-config_.epsilon, config_.epsilon);
    }
    project(adversarial, images);
  }
  const float step =
      config_.targeted ? -config_.effective_step() : config_.effective_step();
  for (std::int64_t it = 0; it < config_.iterations; ++it) {
    TAAMR_TRACE_SPAN("attack/pgd/step");
    float loss = 0.0f;
    const Tensor grad = classifier.loss_input_gradient(adversarial, labels, &loss);
    step_loss_hist.observe(static_cast<double>(loss));
    ops::axpy_inplace(adversarial, step, ops::sign(grad));
    project(adversarial, images);
  }
  return adversarial;
}

}  // namespace taamr::attack
