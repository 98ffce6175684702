#include "nn/classifier.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/cost.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/logging.hpp"

namespace taamr::nn {

Tensor slice_rows(const Tensor& t, std::int64_t begin, std::int64_t end) {
  if (t.ndim() < 1 || begin < 0 || end > t.dim(0) || begin >= end) {
    throw std::invalid_argument("slice_rows: bad range");
  }
  const std::int64_t row_elems = t.numel() / t.dim(0);
  Shape out_shape = t.shape();
  out_shape[0] = end - begin;
  Tensor out(out_shape);
  std::memcpy(out.data(), t.data() + begin * row_elems,
              static_cast<std::size_t>((end - begin) * row_elems) * sizeof(float));
  return out;
}

Tensor gather_rows(const Tensor& t, const std::vector<std::int64_t>& order,
                   std::int64_t begin, std::int64_t end) {
  const std::int64_t row_elems = t.numel() / t.dim(0);
  Shape out_shape = t.shape();
  out_shape[0] = end - begin;
  Tensor out(out_shape);
  for (std::int64_t b = 0; b < end - begin; ++b) {
    const std::int64_t src = order[static_cast<std::size_t>(begin + b)];
    std::memcpy(out.data() + b * row_elems, t.data() + src * row_elems,
                static_cast<std::size_t>(row_elems) * sizeof(float));
  }
  return out;
}

std::vector<std::int64_t> shuffled_order(std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  return order;
}

float step_decay_lr(float base, std::int64_t epoch, std::int64_t epochs) {
  if (epoch >= (epochs * 85) / 100) return base * 0.01f;
  if (epoch >= (epochs * 60) / 100) return base * 0.1f;
  return base;
}

Classifier::Classifier(MiniResNetConfig config, Rng& rng)
    : model_(build_mini_resnet(config, rng)) {}

TrainStats Classifier::train_epoch(const Tensor& images,
                                   const std::vector<std::int64_t>& labels,
                                   std::int64_t batch_size, Sgd& optimizer, Rng& rng) {
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("train_epoch: label count mismatch");
  }
  const std::vector<std::int64_t> order = shuffled_order(n, rng);
  SoftmaxCrossEntropy loss;
  double loss_sum = 0.0;
  std::int64_t correct = 0;

  for (std::int64_t start = 0; start < n; start += batch_size) {
    const std::int64_t end = std::min(n, start + batch_size);
    const Tensor batch = gather_rows(images, order, start, end);
    std::vector<std::int64_t> batch_labels(order.begin() + start, order.begin() + end);
    for (std::int64_t& label : batch_labels) label = labels[static_cast<std::size_t>(label)];

    model_.net.zero_grad();
    const Tensor logits = model_.net.forward(batch, /*train=*/true);
    const float batch_loss = loss.forward(logits, batch_labels);
    model_.net.backward(loss.backward());
    optimizer.step(model_.net.params());

    loss_sum += static_cast<double>(batch_loss) * static_cast<double>(end - start);
    const auto pred = ops::argmax_rows(logits);
    for (std::size_t b = 0; b < pred.size(); ++b) {
      if (pred[b] == batch_labels[b]) ++correct;
    }
  }
  return TrainStats{static_cast<float>(loss_sum / static_cast<double>(n)),
                    static_cast<double>(correct) / static_cast<double>(n)};
}

void Classifier::fit(const Tensor& images, const std::vector<std::int64_t>& labels,
                     std::int64_t epochs, std::int64_t batch_size, SgdConfig sgd_config,
                     Rng& rng, bool verbose) {
  Sgd optimizer(sgd_config);
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    TAAMR_TRACE_SPAN("cnn/epoch");
    optimizer.set_learning_rate(step_decay_lr(sgd_config.learning_rate, epoch, epochs));
    const TrainStats stats = train_epoch(images, labels, batch_size, optimizer, rng);
    if (verbose) {
      log_info() << "cnn epoch " << (epoch + 1) << "/" << epochs << " loss=" << stats.loss
                 << " acc=" << stats.accuracy;
    }
  }
}

template <typename Fn>
Tensor Classifier::batched(const Tensor& images, const Shape& out_shape, Fn fn) {
  if (images.ndim() != 4) throw std::invalid_argument("Classifier: expected [N, C, H, W]");
  const std::int64_t n = images.dim(0);
  Tensor out(out_shape);
  const std::int64_t out_row = n > 0 ? out.numel() / n : 0;
  for (std::int64_t start = 0; start < n; start += kInferenceBatch) {
    const std::int64_t end = std::min(n, start + kInferenceBatch);
    const Tensor res = fn(slice_rows(images, start, end), start);
    if (res.dim(0) != end - start || res.numel() != (end - start) * out_row) {
      throw std::logic_error("Classifier::batched: inner fn returned bad shape");
    }
    std::memcpy(out.data() + start * out_row, res.data(),
                static_cast<std::size_t>(res.numel()) * sizeof(float));
  }
  return out;
}

Tensor Classifier::logits(const Tensor& images) {
  return batched(images, {images.dim(0), num_classes()},
                 [this](const Tensor& x, std::int64_t) { return model_.net.forward(x, false); });
}

Tensor Classifier::probabilities(const Tensor& images) {
  return ops::softmax_rows(logits(images));
}

std::vector<std::int64_t> Classifier::predict(const Tensor& images) {
  return ops::argmax_rows(logits(images));
}

double Classifier::evaluate_accuracy(const Tensor& images,
                                     const std::vector<std::int64_t>& labels) {
  return accuracy(logits(images), labels);
}

Tensor Classifier::features(const Tensor& images) {
  return batched(images, {images.dim(0), feature_dim()}, [this](const Tensor& x, std::int64_t) {
    return model_.net.forward_to(x, model_.feature_end, false);
  });
}

namespace {

// Holds a network in input-only backward mode for one scope, and puts it
// back in full mode on the way out, a throwing cotangent included.
class InputOnlyScope {
 public:
  explicit InputOnlyScope(Layer& net) : net_(net) { net_.set_input_only(true); }
  ~InputOnlyScope() { net_.set_input_only(false); }
  InputOnlyScope(const InputOnlyScope&) = delete;
  InputOnlyScope& operator=(const InputOnlyScope&) = delete;

 private:
  Layer& net_;
};

}  // namespace

Tensor Classifier::input_gradient(const Tensor& images, std::size_t layer_end,
                                  const Cotangent& cotangent) {
  const InputOnlyScope input_only(model_.net);
  return batched(images, images.shape(), [&](const Tensor& x, std::int64_t begin) {
    const Tensor out = model_.net.forward_to(x, layer_end, /*train=*/false);
    return model_.net.backward_to(cotangent(out, begin), layer_end);
  });
}

Tensor Classifier::loss_input_gradient(const Tensor& images,
                                       const std::vector<std::int64_t>& labels,
                                       float* out_loss) {
  const std::int64_t n = images.ndim() == 4 ? images.dim(0) : 0;
  if (images.ndim() != 4 || static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("loss_input_gradient: expected [N, C, H, W] and N labels");
  }
  SoftmaxCrossEntropy loss;
  double loss_sum = 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;  // (begin, rows)
  Tensor grad = input_gradient(
      images, model_.net.size(), [&](const Tensor& logits, std::int64_t begin) {
        const std::int64_t rows = logits.dim(0);
        const std::vector<std::int64_t> chunk_labels(labels.begin() + begin,
                                                     labels.begin() + begin + rows);
        loss_sum += static_cast<double>(loss.forward(logits, chunk_labels)) * rows;
        chunks.emplace_back(begin, rows);
        return loss.backward();
      });
  // loss.backward() averages over the chunk; rescale each chunk by its size
  // so the result is the per-image gradient of the per-image loss (attack
  // steps must not depend on how images were batched).
  const std::int64_t row_elems = images.dim(1) * images.dim(2) * images.dim(3);
  for (const auto& [begin, rows] : chunks) {
    cost::add(cost::Kernel::kElementwise, static_cast<double>(rows * row_elems),
              8.0 * static_cast<double>(rows * row_elems));
    simd::active().scale(grad.data() + begin * row_elems, static_cast<float>(rows),
                         rows * row_elems);
  }
  if (out_loss != nullptr) {
    *out_loss = static_cast<float>(loss_sum / static_cast<double>(n));
  }
  return grad;
}

Tensor Classifier::feature_input_gradient(const Tensor& images,
                                          const Tensor& target_features,
                                          float* out_distance) {
  const std::int64_t n = images.ndim() == 4 ? images.dim(0) : 0;
  const std::int64_t d = feature_dim();
  if (images.ndim() != 4 || target_features.ndim() != 2 || target_features.dim(0) != n ||
      target_features.dim(1) != d) {
    throw std::invalid_argument(
        "feature_input_gradient: expected [N, C, H, W] images and [N, D] targets");
  }
  double distance_sum = 0.0;
  Tensor grad = input_gradient(
      images, model_.feature_end, [&](const Tensor& feats, std::int64_t begin) {
        // dL/df of per-image ||f - t||^2 is 2 (f - t); each image's loss is
        // independent, so no batch averaging is involved.
        Tensor g_feat = feats;
        for (std::int64_t b = 0; b < feats.dim(0); ++b) {
          for (std::int64_t j = 0; j < d; ++j) {
            const float diff = feats.at(b, j) - target_features.at(begin + b, j);
            g_feat.at(b, j) = 2.0f * diff;
            distance_sum += static_cast<double>(diff) * diff;
          }
        }
        return g_feat;
      });
  if (out_distance != nullptr) {
    *out_distance = static_cast<float>(distance_sum / static_cast<double>(n));
  }
  return grad;
}

}  // namespace taamr::nn
