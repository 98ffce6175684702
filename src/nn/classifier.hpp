// Classifier: the deep feature extractor F of the paper, wrapped with a
// training loop, batched prediction, feature extraction at layer e and —
// crucially for the attacks — the gradient of the classification loss
// w.r.t. the input pixels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "util/rng.hpp"

namespace taamr::nn {

struct TrainStats {
  float loss = 0.0f;
  double accuracy = 0.0;
  // L2 norm of the parameter gradient after the epoch's last batch — a
  // cheap convergence/explosion signal for the run log.
  double grad_norm = 0.0;
};

class Classifier {
 public:
  Classifier(MiniResNetConfig config, Rng& rng);

  // ---- training ----

  // One epoch of SGD over (images [N, C, H, W], labels). Shuffles sample
  // order with rng; returns epoch-average training loss / accuracy.
  TrainStats train_epoch(const Tensor& images, const std::vector<std::int64_t>& labels,
                         std::int64_t batch_size, Sgd& optimizer, Rng& rng);

  // Full training run with a simple step learning-rate schedule.
  void fit(const Tensor& images, const std::vector<std::int64_t>& labels,
           std::int64_t epochs, std::int64_t batch_size, SgdConfig sgd, Rng& rng,
           bool verbose = true);

  // ---- inference (eval mode; batched) ----

  Tensor logits(const Tensor& images);
  Tensor probabilities(const Tensor& images);
  std::vector<std::int64_t> predict(const Tensor& images);
  double evaluate_accuracy(const Tensor& images, const std::vector<std::int64_t>& labels,
                           std::int64_t batch_size = 64);

  // Learned image features f_e(x) at the global-average-pool layer: [N, D].
  Tensor features(const Tensor& images);

  // d/dx of the mean softmax cross-entropy of `labels` — the quantity both
  // FGSM and PGD consume. For a targeted attack pass the *target* class
  // as the label and descend; for untargeted pass the true class and ascend.
  Tensor loss_input_gradient(const Tensor& images, const std::vector<std::int64_t>& labels,
                             float* out_loss = nullptr);

  // Pullback of an arbitrary logit cotangent: given grad_logits [N, C],
  // returns d(sum_i grad_logits_i . Z(x_i))/dx. The building block for
  // margin-based attacks (Carlini-Wagner). Optionally returns the logits.
  Tensor logits_input_gradient(const Tensor& images, const Tensor& grad_logits,
                               Tensor* out_logits = nullptr);

  // d/dx of the per-image squared feature distance ||f_e(x) - target||^2 —
  // the objective of the feature-matching attack (the paper's future-work
  // "finer-grained" single-item attack). target_features: [N, D].
  Tensor feature_input_gradient(const Tensor& images, const Tensor& target_features,
                                float* out_distance = nullptr);

  std::int64_t feature_dim() const { return model_.config.feature_dim(); }
  std::int64_t num_classes() const { return model_.config.num_classes; }
  std::int64_t image_size() const { return model_.config.image_size; }
  std::int64_t in_channels() const { return model_.config.in_channels; }
  const MiniResNetConfig& config() const { return model_.config; }
  std::int64_t parameter_count() { return count_parameters(model_.net); }

  Sequential& network() { return model_.net; }
  std::size_t feature_end() const { return model_.feature_end; }

  // Deep copy (independent parameters and caches).
  Classifier clone() const { return Classifier(*this); }

  // Checkpointing (format defined in nn/serialize.hpp).
  void save(const std::string& path) const;
  static Classifier load(const std::string& path);

 private:
  friend Classifier load_classifier(std::istream& is);
  friend void save_classifier(std::ostream& os, const Classifier& c);
  explicit Classifier(MiniResNet model) : model_(std::move(model)) {}

  // Batched apply of `fn` over row-blocks of images to bound peak memory.
  template <typename Fn>
  Tensor batched(const Tensor& images, std::int64_t batch, std::int64_t out_cols, Fn fn);

  MiniResNet model_;
};

// Slices rows [begin, end) of a [N, ...] tensor into a new tensor.
Tensor slice_rows(const Tensor& t, std::int64_t begin, std::int64_t end);

// Batch size of every inference pass (logits, features, input gradients)
// and of the pipeline's catalog extraction. Peak im2col scratch memory is
// O(this), independent of catalog size.
constexpr std::int64_t kInferenceBatch = 64;

}  // namespace taamr::nn
