#include "attack/carlini_wagner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace taamr::attack {

CarliniWagner::CarliniWagner(AttackConfig config)
    : Attack(std::move(config)),
      binary_search_steps_(
          static_cast<std::int64_t>(config_.param("binary_search_steps", 4.0f))),
      initial_c_(config_.param("initial_c", 1.0f)),
      learning_rate_(config_.param("learning_rate", 0.05f)),
      confidence_(config_.param("confidence", 0.0f)),
      project_linf_(config_.param("project_linf", 0.0f) != 0.0f) {
  if (binary_search_steps_ <= 0) {
    throw std::invalid_argument("CarliniWagner: non-positive binary_search_steps");
  }
  if (initial_c_ <= 0.0f || learning_rate_ <= 0.0f) {
    throw std::invalid_argument("CarliniWagner: non-positive c / learning rate");
  }
  if (confidence_ < 0.0f) {
    throw std::invalid_argument("CarliniWagner: negative confidence");
  }
}

namespace {

// atanh with the argument pulled just inside (-1, 1) for stability.
inline float safe_atanh(float v) {
  constexpr float kBound = 1.0f - 1e-6f;
  return std::atanh(std::clamp(v, -kBound, kBound));
}

}  // namespace

Tensor CarliniWagner::perturb(nn::Classifier& classifier, const Tensor& images,
                              const std::vector<std::int64_t>& labels,
                              Rng& /*rng*/) {
  TAAMR_TRACE_SPAN("attack/cw");
  if (images.ndim() != 4) {
    throw std::invalid_argument("CarliniWagner: expected [N, C, H, W] images");
  }
  const std::int64_t n = images.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("CarliniWagner: label count mismatch");
  }
  const std::int64_t classes = classifier.num_classes();
  for (std::int64_t t : labels) {
    if (t < 0 || t >= classes) {
      throw std::invalid_argument("CarliniWagner: target class out of range");
    }
  }
  const std::int64_t per_image = images.numel() / n;
  const float lo = config_.clip_min, hi = config_.clip_max;
  const float range = hi - lo;

  // Change of variables: x = lo + range * (tanh(w) + 1) / 2.
  auto to_image_space = [&](const Tensor& w) {
    Tensor x = w;
    for (float& v : x.storage()) v = lo + range * (std::tanh(v) + 1.0f) * 0.5f;
    return x;
  };

  // Per-image binary-search state.
  std::vector<float> c(static_cast<std::size_t>(n), initial_c_);
  std::vector<float> c_low(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> c_high(static_cast<std::size_t>(n),
                            std::numeric_limits<float>::infinity());
  std::vector<float> best_l2(static_cast<std::size_t>(n),
                             std::numeric_limits<float>::infinity());
  Tensor best = images;  // images with no successful attack stay clean

  Tensor w0(images.shape());
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    w0[i] = safe_atanh((images[i] - lo) / range * 2.0f - 1.0f);
  }

  auto& margin_hist = obs::MetricsRegistry::global().histogram(
      "attack_cw_margin", {}, obs::exponential_bounds(1e-3, 2.0, 20));

  for (std::int64_t step = 0; step < binary_search_steps_; ++step) {
    TAAMR_TRACE_SPAN("attack/cw/search_step");
    Tensor w = w0;
    std::vector<bool> succeeded(static_cast<std::size_t>(n), false);
    double last_margin_sum = 0.0;

    for (std::int64_t it = 0; it < config_.iterations; ++it) {
      const Tensor x = to_image_space(w);

      // One forward + backward per iteration: the margin cotangent is built
      // from each chunk's logits inside the pullback.
      std::vector<float> margins(static_cast<std::size_t>(n));
      Tensor grad_x = classifier.input_gradient(
          x, classifier.network().size(), [&](const Tensor& logits, std::int64_t begin) {
            Tensor cot(logits.shape(), 0.0f);
            for (std::int64_t b = 0; b < logits.dim(0); ++b) {
              const std::size_t i = static_cast<std::size_t>(begin + b);
              const std::int64_t t = labels[i];
              std::int64_t runner_up = t == 0 ? 1 : 0;
              for (std::int64_t j = 0; j < classes; ++j) {
                if (j != t && logits.at(b, j) > logits.at(b, runner_up)) runner_up = j;
              }
              const float margin = logits.at(b, runner_up) - logits.at(b, t);
              margins[i] = margin;
              // d f / d logits, only while the margin constraint is active.
              if (margin > -confidence_) {
                cot.at(b, runner_up) = c[i];
                cot.at(b, t) = -c[i];
              }
            }
            return cot;
          });
      if (it == config_.iterations - 1) {
        for (const float margin : margins) last_margin_sum += margin;
      }

      // Gradient in image space: 2 (x - x0) + c * d f/dx, then chain through
      // the tanh reparameterization.
      for (std::int64_t i = 0; i < images.numel(); ++i) {
        grad_x[i] += 2.0f * (x[i] - images[i]);
      }
      for (std::int64_t i = 0; i < images.numel(); ++i) {
        const float th = std::tanh(w[i]);
        w[i] -= learning_rate_ * grad_x[i] * (1.0f - th * th) * 0.5f * range;
      }

      // Record any new best successful example.
      for (std::int64_t i = 0; i < n; ++i) {
        if (margins[static_cast<std::size_t>(i)] >= -confidence_) continue;
        succeeded[static_cast<std::size_t>(i)] = true;
        float l2 = 0.0f;
        for (std::int64_t p = 0; p < per_image; ++p) {
          const float d = x[i * per_image + p] - images[i * per_image + p];
          l2 += d * d;
        }
        if (l2 < best_l2[static_cast<std::size_t>(i)]) {
          best_l2[static_cast<std::size_t>(i)] = l2;
          std::memcpy(best.data() + i * per_image, x.data() + i * per_image,
                      static_cast<std::size_t>(per_image) * sizeof(float));
        }
      }
    }

    // Per-search-step telemetry: how deep the margin sits (negative = past
    // the decision boundary).
    margin_hist.observe(last_margin_sum / static_cast<double>(n));

    // Binary-search update of c.
    for (std::int64_t i = 0; i < n; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      if (succeeded[s]) {
        c_high[s] = c[s];
        c[s] = (c_low[s] + c_high[s]) * 0.5f;
      } else {
        c_low[s] = c[s];
        c[s] = std::isinf(c_high[s]) ? c[s] * 10.0f : (c_low[s] + c_high[s]) * 0.5f;
      }
    }
  }

  last_successes_ = 0;
  double l2_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::isfinite(best_l2[static_cast<std::size_t>(i)])) {
      ++last_successes_;
      l2_sum += std::sqrt(best_l2[static_cast<std::size_t>(i)]);
    }
  }
  last_mean_l2_ = last_successes_ > 0 ? l2_sum / static_cast<double>(last_successes_) : 0.0;
  // Under the registry contract the result must sit inside the epsilon
  // l_inf ball; the paper's unconstrained-L2 variant skips this.
  if (project_linf_) project(best, images);
  return best;
}

}  // namespace taamr::attack
