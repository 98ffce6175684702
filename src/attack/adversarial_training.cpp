#include "attack/adversarial_training.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "attack/pgd.hpp"
#include "nn/loss.hpp"
#include "util/logging.hpp"

namespace taamr::attack {

double fit_robust(nn::Classifier& classifier, const Tensor& images,
                  const std::vector<std::int64_t>& labels,
                  const RobustTrainingConfig& config, Rng& rng) {
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("fit_robust: label count mismatch");
  }
  if (config.adversarial_fraction < 0.0f || config.adversarial_fraction > 1.0f) {
    throw std::invalid_argument("fit_robust: adversarial_fraction outside [0, 1]");
  }
  AttackConfig threat = config.threat;
  threat.targeted = false;  // robustness targets the true-label loss
  Pgd attacker(threat);

  nn::Sgd optimizer(config.sgd);
  const std::int64_t row_elems = images.numel() / n;
  nn::SoftmaxCrossEntropy loss;
  double last_clean_accuracy = 0.0;

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer.set_learning_rate(
        nn::step_decay_lr(config.sgd.learning_rate, epoch, config.epochs));
    const std::vector<std::int64_t> order = nn::shuffled_order(n, rng);
    std::int64_t correct = 0;
    for (std::int64_t start = 0; start < n; start += config.batch_size) {
      const std::int64_t end = std::min(n, start + config.batch_size);
      const std::int64_t bsz = end - start;
      Tensor batch = nn::gather_rows(images, order, start, end);
      std::vector<std::int64_t> batch_labels(order.begin() + start, order.begin() + end);
      for (std::int64_t& label : batch_labels) label = labels[static_cast<std::size_t>(label)];

      // Clean accuracy bookkeeping before perturbing.
      const auto pred = classifier.predict(batch);
      for (std::size_t b = 0; b < pred.size(); ++b) {
        if (pred[b] == batch_labels[b]) ++correct;
      }

      // Replace a prefix of the (already shuffled) batch with adversarial
      // versions crafted against the current weights.
      const std::int64_t adv_count = static_cast<std::int64_t>(
          config.adversarial_fraction * static_cast<float>(bsz) + 0.5f);
      if (adv_count > 0) {
        const Tensor sub = nn::slice_rows(batch, 0, adv_count);
        const std::vector<std::int64_t> sub_labels(batch_labels.begin(),
                                                   batch_labels.begin() + adv_count);
        const Tensor adv = attacker.perturb(classifier, sub, sub_labels, rng);
        std::memcpy(batch.data(), adv.data(),
                    static_cast<std::size_t>(adv_count * row_elems) * sizeof(float));
      }

      // One SGD step on the (partially) adversarial batch.
      classifier.network().zero_grad();
      const Tensor logits = classifier.network().forward(batch, /*train=*/true);
      loss.forward(logits, batch_labels);
      classifier.network().backward(loss.backward());
      optimizer.step(classifier.network().params());
    }
    last_clean_accuracy = static_cast<double>(correct) / static_cast<double>(n);
    log_info() << "robust cnn epoch " << (epoch + 1) << "/" << config.epochs
               << " clean-acc=" << last_clean_accuracy;
  }
  return last_clean_accuracy;
}

}  // namespace taamr::attack
