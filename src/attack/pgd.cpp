#include "attack/pgd.hpp"

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace taamr::attack {

Tensor Pgd::perturb(nn::Classifier& classifier, const Tensor& images,
                    const std::vector<std::int64_t>& labels, Rng& rng) {
  TAAMR_TRACE_SPAN("attack/pgd");
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
    const Tensor grad = classifier.loss_input_gradient(adversarial, labels);
    ops::axpy_inplace(adversarial, step, ops::sign(grad));
    project(adversarial, images);
  }
  return adversarial;
}

}  // namespace taamr::attack
