#include "attack/distillation.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace taamr::attack {

void DistillationConfig::validate() const {
  if (temperature <= 0.0f) {
    throw std::invalid_argument("DistillationConfig: non-positive temperature");
  }
  if (teacher_epochs <= 0 || student_epochs <= 0 || batch_size <= 0) {
    throw std::invalid_argument("DistillationConfig: non-positive schedule field");
  }
}

namespace {

// Shared epoch loop for both distillation phases: targets are soft
// distributions, the loss is tempered cross-entropy.
void train_on_soft_targets(nn::Classifier& model, const Tensor& images,
                           const Tensor& targets, const DistillationConfig& config,
                           std::int64_t epochs, Rng& rng) {
  const std::int64_t n = images.dim(0);
  nn::Sgd optimizer(config.sgd);
  nn::SoftTargetCrossEntropy loss;

  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    // Note: the tempered softmax scales logit gradients by 1/T, so
    // distillation needs a longer schedule (or a larger base lr) than
    // hard-label training at the same architecture — callers choose.
    optimizer.set_learning_rate(nn::step_decay_lr(config.sgd.learning_rate, epoch, epochs));
    const std::vector<std::int64_t> order = nn::shuffled_order(n, rng);
    for (std::int64_t start = 0; start < n; start += config.batch_size) {
      const std::int64_t end = std::min(n, start + config.batch_size);
      const Tensor batch = nn::gather_rows(images, order, start, end);
      const Tensor batch_targets = nn::gather_rows(targets, order, start, end);
      model.network().zero_grad();
      const Tensor logits = model.network().forward(batch, /*train=*/true);
      loss.forward(logits, batch_targets, config.temperature);
      model.network().backward(loss.backward());
      optimizer.step(model.network().params());
    }
  }
}

}  // namespace

nn::Classifier distill(const nn::MiniResNetConfig& architecture, const Tensor& images,
                       const std::vector<std::int64_t>& labels,
                       const DistillationConfig& config, Rng& rng) {
  config.validate();
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("distill: label count mismatch");
  }
  const std::int64_t classes = architecture.num_classes;

  // Phase 1: teacher on hard labels (as one-hot soft targets) at temperature T.
  Tensor hard_targets({n, classes}, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    hard_targets.at(i, labels[static_cast<std::size_t>(i)]) = 1.0f;
  }
  Rng teacher_rng = rng.fork(1);
  nn::Classifier teacher(architecture, teacher_rng);
  train_on_soft_targets(teacher, images, hard_targets, config, config.teacher_epochs,
                        teacher_rng);
  log_info() << "distillation: teacher clean accuracy "
             << teacher.evaluate_accuracy(images, labels);

  // Phase 2: the teacher's tempered probabilities become the student's
  // targets (the "soft labels" carrying dark knowledge).
  const Tensor soft_targets =
      ops::softmax_rows(ops::scale(teacher.logits(images), 1.0f / config.temperature));

  Rng student_rng = rng.fork(2);
  nn::Classifier student(architecture, student_rng);
  train_on_soft_targets(student, images, soft_targets, config, config.student_epochs,
                        student_rng);
  log_info() << "distillation: student clean accuracy "
             << student.evaluate_accuracy(images, labels);
  return student;  // deployed at T = 1: its logits are T-times sharper
}

}  // namespace taamr::attack
