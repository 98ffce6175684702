#include "attack/fgsm.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace taamr::attack {

Tensor Fgsm::perturb(nn::Classifier& classifier, const Tensor& images,
                     const std::vector<std::int64_t>& labels, Rng& /*rng*/) {
  TAAMR_TRACE_SPAN("attack/fgsm");
  float loss = 0.0f;
  const Tensor grad = classifier.loss_input_gradient(images, labels, &loss);
  obs::MetricsRegistry::global()
      .histogram("attack_step_loss", {{"attack", "fgsm"}},
                 obs::exponential_bounds(1e-3, 2.0, 20))
      .observe(static_cast<double>(loss));
  // Targeted: descend the loss toward the target class (minus sign, Eq. 5).
  // Untargeted: ascend the loss of the true class.
  const float step = config_.targeted ? -config_.epsilon : config_.epsilon;
  Tensor adversarial = images;
  ops::axpy_inplace(adversarial, step, ops::sign(grad));
  project(adversarial, images);
  return adversarial;
}

}  // namespace taamr::attack
