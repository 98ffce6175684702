// Classifier: the deep feature extractor F of the paper, wrapped with a
// training loop, batched prediction, feature extraction at layer e and —
// crucially for the attacks — the gradient of the classification loss
// w.r.t. the input pixels.
#pragma once

#include <cstdint>
#include <functional>
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
  double evaluate_accuracy(const Tensor& images, const std::vector<std::int64_t>& labels);

  // Learned image features f_e(x) at the global-average-pool layer: [N, D].
  Tensor features(const Tensor& images);

  // Cotangent of one chunk's output: given the [rows, ...] output of layers
  // [0, layer_end) for images [begin, begin + rows), returns dL/d(output).
  using Cotangent = std::function<Tensor(const Tensor& out, std::int64_t begin)>;

  // Pullback to the pixels: d(sum_i <cotangent_i, h(x_i)>)/dx, where h is
  // layers [0, layer_end) in eval mode. Every attack gradient comes from here.
  // It runs the network in input-only backward mode (see nn/layer.hpp): no
  // parameter gradient is computed, every Param::grad is left as it was, and
  // the network is back in full mode on return, also when cotangent throws.
  Tensor input_gradient(const Tensor& images, std::size_t layer_end,
                        const Cotangent& cotangent);

  // d/dx of the per-image softmax cross-entropy of `labels` — the quantity
  // both FGSM and PGD consume. For a targeted attack pass the *target* class
  // as the label and descend; for untargeted pass the true class and ascend.
  // out_loss receives the mean loss.
  Tensor loss_input_gradient(const Tensor& images, const std::vector<std::int64_t>& labels,
                             float* out_loss = nullptr);

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

  // The one chunk loop of nn/: runs fn(chunk, begin) over kInferenceBatch-row
  // blocks of images (bounding peak memory) and stacks the returned
  // [rows, ...] blocks into a tensor of out_shape ([N, ...]).
  template <typename Fn>
  Tensor batched(const Tensor& images, const Shape& out_shape, Fn fn);

  MiniResNet model_;
};

// Slices rows [begin, end) of a [N, ...] tensor into a new tensor.
Tensor slice_rows(const Tensor& t, std::int64_t begin, std::int64_t end);

// The training loops' batch gather: rows order[begin, end) of a [N, ...]
// tensor (images or soft targets) stacked into a new tensor.
Tensor gather_rows(const Tensor& t, const std::vector<std::int64_t>& order,
                   std::int64_t begin, std::int64_t end);

// 0..n-1 in a fresh random order: one epoch's sample order.
std::vector<std::int64_t> shuffled_order(std::int64_t n, Rng& rng);

// The step schedule of every CNN training loop: `base` decayed 10x at 60%
// and 100x at 85% of `epochs`.
float step_decay_lr(float base, std::int64_t epoch, std::int64_t epochs);

// Batch size of every inference pass (logits, features, input gradients),
// the pipeline's catalog extraction included. Peak activation memory is
// O(this), independent of catalog size; Conv2d's im2col scratch is per
// thread and sized for one sample.
constexpr std::int64_t kInferenceBatch = 64;

}  // namespace taamr::nn
