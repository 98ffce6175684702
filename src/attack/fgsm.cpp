#include "attack/fgsm.hpp"

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace taamr::attack {

Tensor Fgsm::perturb(nn::Classifier& classifier, const Tensor& images,
                     const std::vector<std::int64_t>& labels, Rng& /*rng*/) {
  TAAMR_TRACE_SPAN("attack/fgsm");
  const Tensor grad = classifier.loss_input_gradient(images, labels);
  // Targeted: descend the loss toward the target class (minus sign, Eq. 5).
  // Untargeted: ascend the loss of the true class.
  const float step = config_.targeted ? -config_.epsilon : config_.epsilon;
  Tensor adversarial = images;
  ops::axpy_inplace(adversarial, step, ops::sign(grad));
  project(adversarial, images);
  return adversarial;
}

}  // namespace taamr::attack
