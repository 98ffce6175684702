#include "nn/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
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

Classifier::Classifier(MiniResNetConfig config, Rng& rng)
    : model_(build_mini_resnet(config, rng)) {}

TrainStats Classifier::train_epoch(const Tensor& images,
                                   const std::vector<std::int64_t>& labels,
                                   std::int64_t batch_size, Sgd& optimizer, Rng& rng) {
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("train_epoch: label count mismatch");
  }
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  const std::int64_t row_elems = images.numel() / n;
  SoftmaxCrossEntropy loss;
  double loss_sum = 0.0;
  std::int64_t correct = 0;

  for (std::int64_t start = 0; start < n; start += batch_size) {
    const std::int64_t bsz = std::min(batch_size, n - start);
    Shape batch_shape = images.shape();
    batch_shape[0] = bsz;
    Tensor batch(batch_shape);
    std::vector<std::int64_t> batch_labels(static_cast<std::size_t>(bsz));
    for (std::int64_t b = 0; b < bsz; ++b) {
      const std::int64_t src = order[static_cast<std::size_t>(start + b)];
      std::memcpy(batch.data() + b * row_elems, images.data() + src * row_elems,
                  static_cast<std::size_t>(row_elems) * sizeof(float));
      batch_labels[static_cast<std::size_t>(b)] = labels[static_cast<std::size_t>(src)];
    }

    model_.net.zero_grad();
    const Tensor logits = model_.net.forward(batch, /*train=*/true);
    const float batch_loss = loss.forward(logits, batch_labels);
    model_.net.backward(loss.backward());
    optimizer.step(model_.net.params());

    loss_sum += static_cast<double>(batch_loss) * bsz;
    const auto pred = ops::argmax_rows(logits);
    for (std::int64_t b = 0; b < bsz; ++b) {
      if (pred[static_cast<std::size_t>(b)] == batch_labels[static_cast<std::size_t>(b)]) {
        ++correct;
      }
    }
  }
  double grad_sq = 0.0;
  for (const Param* p : model_.net.params()) {
    if (!p->trainable) continue;
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      grad_sq += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  return TrainStats{static_cast<float>(loss_sum / static_cast<double>(n)),
                    static_cast<double>(correct) / static_cast<double>(n),
                    std::sqrt(grad_sq)};
}

void Classifier::fit(const Tensor& images, const std::vector<std::int64_t>& labels,
                     std::int64_t epochs, std::int64_t batch_size, SgdConfig sgd_config,
                     Rng& rng, bool verbose) {
  Sgd optimizer(sgd_config);
  auto& loss_hist = obs::MetricsRegistry::global().histogram(
      "cnn_epoch_loss", {}, obs::exponential_bounds(1e-3, 2.0, 20));
  auto& epochs_total = obs::MetricsRegistry::global().counter("cnn_epochs_total");
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    TAAMR_TRACE_SPAN("cnn/epoch");
    // Step schedule: decay 10x at 60% and 85% of the run.
    float lr = sgd_config.learning_rate;
    if (epoch >= (epochs * 85) / 100) {
      lr *= 0.01f;
    } else if (epoch >= (epochs * 60) / 100) {
      lr *= 0.1f;
    }
    optimizer.set_learning_rate(lr);
    const TrainStats stats = train_epoch(images, labels, batch_size, optimizer, rng);
    loss_hist.observe(static_cast<double>(stats.loss));
    epochs_total.increment();
    if (verbose) {
      log_info() << "cnn epoch " << (epoch + 1) << "/" << epochs << " loss=" << stats.loss
                 << " acc=" << stats.accuracy;
    }
  }
}

template <typename Fn>
Tensor Classifier::batched(const Tensor& images, std::int64_t batch,
                           std::int64_t out_cols, Fn fn) {
  if (images.ndim() != 4) throw std::invalid_argument("Classifier: expected [N, C, H, W]");
  const std::int64_t n = images.dim(0);
  Tensor out({n, out_cols});
  for (std::int64_t start = 0; start < n; start += batch) {
    const std::int64_t end = std::min(n, start + batch);
    const Tensor chunk = slice_rows(images, start, end);
    const Tensor res = fn(chunk);
    if (res.dim(1) != out_cols || res.dim(0) != end - start) {
      throw std::logic_error("Classifier::batched: inner fn returned bad shape");
    }
    std::memcpy(out.data() + start * out_cols, res.data(),
                static_cast<std::size_t>((end - start) * out_cols) * sizeof(float));
  }
  return out;
}

Tensor Classifier::logits(const Tensor& images) {
  return batched(images, kInferenceBatch, num_classes(),
                 [this](const Tensor& x) { return model_.net.forward(x, false); });
}

Tensor Classifier::probabilities(const Tensor& images) {
  return ops::softmax_rows(logits(images));
}

std::vector<std::int64_t> Classifier::predict(const Tensor& images) {
  return ops::argmax_rows(logits(images));
}

double Classifier::evaluate_accuracy(const Tensor& images,
                                     const std::vector<std::int64_t>& labels,
                                     std::int64_t batch_size) {
  (void)batch_size;
  return accuracy(logits(images), labels);
}

Tensor Classifier::features(const Tensor& images) {
  return batched(images, kInferenceBatch, feature_dim(), [this](const Tensor& x) {
    return model_.net.forward_to(x, model_.feature_end, false);
  });
}

Tensor Classifier::loss_input_gradient(const Tensor& images,
                                       const std::vector<std::int64_t>& labels,
                                       float* out_loss) {
  if (images.ndim() != 4) {
    throw std::invalid_argument("loss_input_gradient: expected [N, C, H, W]");
  }
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("loss_input_gradient: label count mismatch");
  }
  Tensor grad(images.shape());
  const std::int64_t row_elems = images.numel() / n;
  double loss_sum = 0.0;
  SoftmaxCrossEntropy loss;
  for (std::int64_t start = 0; start < n; start += kInferenceBatch) {
    const std::int64_t end = std::min(n, start + kInferenceBatch);
    const Tensor chunk = slice_rows(images, start, end);
    const std::vector<std::int64_t> chunk_labels(labels.begin() + start,
                                                 labels.begin() + end);
    model_.net.zero_grad();
    const Tensor chunk_logits = model_.net.forward(chunk, /*train=*/false);
    const float chunk_loss = loss.forward(chunk_logits, chunk_labels);
    Tensor gx = model_.net.backward(loss.backward());
    // loss.backward() averages over the chunk; rescale so the returned
    // tensor is the per-image gradient of the per-image loss (attack steps
    // must not depend on how images were batched).
    ops::scale_inplace(gx, static_cast<float>(end - start));
    std::memcpy(grad.data() + start * row_elems, gx.data(),
                static_cast<std::size_t>((end - start) * row_elems) * sizeof(float));
    loss_sum += static_cast<double>(chunk_loss) * (end - start);
  }
  if (out_loss != nullptr) {
    *out_loss = static_cast<float>(loss_sum / static_cast<double>(n));
  }
  return grad;
}

Tensor Classifier::logits_input_gradient(const Tensor& images,
                                          const Tensor& grad_logits,
                                          Tensor* out_logits) {
  if (images.ndim() != 4) {
    throw std::invalid_argument("logits_input_gradient: expected [N, C, H, W]");
  }
  const std::int64_t n = images.dim(0);
  if (grad_logits.ndim() != 2 || grad_logits.dim(0) != n ||
      grad_logits.dim(1) != num_classes()) {
    throw std::invalid_argument("logits_input_gradient: cotangent must be [N, classes]");
  }
  Tensor grad(images.shape());
  if (out_logits != nullptr) *out_logits = Tensor({n, num_classes()});
  const std::int64_t row_elems = images.numel() / n;
  for (std::int64_t start = 0; start < n; start += kInferenceBatch) {
    const std::int64_t end = std::min(n, start + kInferenceBatch);
    const Tensor chunk = slice_rows(images, start, end);
    const Tensor chunk_logits = model_.net.forward(chunk, /*train=*/false);
    const Tensor chunk_cot = slice_rows(grad_logits, start, end);
    const Tensor gx = model_.net.backward(chunk_cot);
    std::memcpy(grad.data() + start * row_elems, gx.data(),
                static_cast<std::size_t>((end - start) * row_elems) * sizeof(float));
    if (out_logits != nullptr) {
      std::memcpy(out_logits->data() + start * num_classes(), chunk_logits.data(),
                  static_cast<std::size_t>((end - start) * num_classes()) *
                      sizeof(float));
    }
  }
  return grad;
}

Tensor Classifier::feature_input_gradient(const Tensor& images,
                                          const Tensor& target_features,
                                          float* out_distance) {
  if (images.ndim() != 4) {
    throw std::invalid_argument("feature_input_gradient: expected [N, C, H, W]");
  }
  const std::int64_t n = images.dim(0);
  const std::int64_t d = feature_dim();
  if (target_features.ndim() != 2 || target_features.dim(0) != n ||
      target_features.dim(1) != d) {
    throw std::invalid_argument("feature_input_gradient: targets must be [N, D]");
  }
  Tensor grad(images.shape());
  const std::int64_t row_elems = images.numel() / n;
  double distance_sum = 0.0;
  for (std::int64_t start = 0; start < n; start += kInferenceBatch) {
    const std::int64_t end = std::min(n, start + kInferenceBatch);
    const Tensor chunk = slice_rows(images, start, end);
    const Tensor feats = model_.net.forward_to(chunk, model_.feature_end, false);
    // dL/df of per-image ||f - t||^2 is 2 (f - t); each image's loss is
    // independent, so no batch averaging is involved.
    Tensor g_feat = feats;
    for (std::int64_t b = 0; b < end - start; ++b) {
      for (std::int64_t j = 0; j < d; ++j) {
        const float diff = feats.at(b, j) - target_features.at(start + b, j);
        g_feat.at(b, j) = 2.0f * diff;
        distance_sum += static_cast<double>(diff) * diff;
      }
    }
    const Tensor gx = model_.net.backward_to(g_feat, model_.feature_end);
    std::memcpy(grad.data() + start * row_elems, gx.data(),
                static_cast<std::size_t>((end - start) * row_elems) * sizeof(float));
  }
  if (out_distance != nullptr) {
    *out_distance = static_cast<float>(distance_sum / static_cast<double>(n));
  }
  return grad;
}

}  // namespace taamr::nn
