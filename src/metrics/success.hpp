// Attack success probability (Table III): the fraction of attacked images
// the classifier assigns to the adversary's target class.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nn/classifier.hpp"
#include "tensor/tensor.hpp"

namespace taamr::metrics {

struct SuccessStats {
  double success_rate = 0.0;       // P[argmax F(x*) == target]
  double mean_target_prob = 0.0;   // mean softmax probability of the target
  std::int64_t num_images = 0;
};

// `attack_label` is ignored. It stays only because the benchmark's probes
// (benchmark/src/probes.cpp) still pass it.
SuccessStats attack_success(nn::Classifier& classifier, const Tensor& attacked_images,
                            std::int64_t target_class,
                            std::string_view attack_label = {});

// Untargeted counterpart: fraction whose prediction moved away from
// `source_class` (used by the untargeted-attack extension benches).
double misclassification_rate(nn::Classifier& classifier, const Tensor& attacked_images,
                              std::int64_t source_class);

}  // namespace taamr::metrics
