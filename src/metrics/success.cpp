#include "metrics/success.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace taamr::metrics {

SuccessStats attack_success(const Tensor& logits, std::int64_t target_class) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("attack_success: expected [N, classes] logits");
  }
  if (target_class < 0 || target_class >= logits.dim(1)) {
    throw std::invalid_argument("attack_success: target class out of range");
  }
  const Tensor probs = ops::softmax_rows(logits);
  const std::vector<std::int64_t> pred = ops::argmax_rows(probs);
  SuccessStats stats;
  stats.num_images = probs.dim(0);
  double prob_sum = 0.0;
  std::int64_t successes = 0;
  for (std::int64_t i = 0; i < stats.num_images; ++i) {
    if (pred[static_cast<std::size_t>(i)] == target_class) ++successes;
    prob_sum += probs.at(i, target_class);
  }
  stats.success_rate =
      static_cast<double>(successes) / static_cast<double>(stats.num_images);
  stats.mean_target_prob = prob_sum / static_cast<double>(stats.num_images);
  return stats;
}

SuccessStats attack_success(nn::Classifier& classifier, const Tensor& attacked_images,
                            std::int64_t target_class, std::string_view) {
  if (target_class < 0 || target_class >= classifier.num_classes()) {
    throw std::invalid_argument("attack_success: target class out of range");
  }
  return attack_success(classifier.logits(attacked_images), target_class);
}

double misclassification_rate(nn::Classifier& classifier, const Tensor& attacked_images,
                              std::int64_t source_class) {
  if (source_class < 0 || source_class >= classifier.num_classes()) {
    throw std::invalid_argument("misclassification_rate: class out of range");
  }
  const std::vector<std::int64_t> pred = classifier.predict(attacked_images);
  std::int64_t moved = 0;
  for (std::int64_t p : pred) {
    if (p != source_class) ++moved;
  }
  return pred.empty() ? 0.0 : static_cast<double>(moved) / static_cast<double>(pred.size());
}

}  // namespace taamr::metrics
