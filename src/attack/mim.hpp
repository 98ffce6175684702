// Momentum Iterative Method (Dong et al., CVPR 2018): iterative FGSM with a
// decaying accumulated-gradient direction. One of the "novel adversarial
// attacks" the paper's future-work section proposes integrating into TAaMR.
#pragma once

#include "attack/attack.hpp"

namespace taamr::attack {

class Mim : public Attack {
 public:
  // The decay factor mu of the MIM paper comes from params["decay"]
  // (default 1.0, the recommended setting).
  explicit Mim(AttackConfig config)
      : Attack(std::move(config)), decay_(config_.param("decay", 1.0f)) {}

  Tensor perturb(nn::Classifier& classifier, const Tensor& images,
                 const std::vector<std::int64_t>& labels, Rng& rng) override;

  std::string name() const override { return "MIM"; }

 private:
  float decay_;
};

}  // namespace taamr::attack
