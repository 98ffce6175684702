#include "nn/batchnorm2d.hpp"

#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace taamr::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor::ones({channels})),
      beta_("beta", Tensor::zeros({channels})),
      running_mean_("running_mean", Tensor::zeros({channels})),
      running_var_("running_var", Tensor::ones({channels})) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: non-positive channels");
  running_mean_.trainable = false;
  running_var_.trainable = false;
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  if (x.ndim() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: expected [N, " + std::to_string(channels_) +
                                ", H, W], got " + shape_to_string(x.shape()));
  }
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  last_forward_training_ = train;
  cached_shape_ = x.shape();
  cached_invstd_ = Tensor({channels_});

  // Channels are independent: each reads its own planes and writes only its
  // own statistics, gradient slots and output planes. So the per-channel
  // loops run in parallel, and each channel keeps its serial double
  // accumulation, which gives the same result at any pool size.
  Tensor y(x.shape());
  if (train) {
    cached_xhat_ = Tensor(x.shape());
    parallel_for(0, static_cast<std::size_t>(channels_), [&](std::size_t ch) {
      const auto c = static_cast<std::int64_t>(ch);
      double mean = 0.0, var = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* p = x.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) mean += p[i];
      }
      mean /= static_cast<double>(count);
      for (std::int64_t s = 0; s < n; ++s) {
        const float* p = x.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) {
          const double d = p[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(count);  // biased variance, as in torch BN
      const float invstd = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_invstd_[c] = invstd;

      running_mean_.value[c] =
          (1.0f - momentum_) * running_mean_.value[c] + momentum_ * static_cast<float>(mean);
      running_var_.value[c] =
          (1.0f - momentum_) * running_var_.value[c] + momentum_ * static_cast<float>(var);

      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::int64_t s = 0; s < n; ++s) {
        const float* p = x.data() + (s * channels_ + c) * plane;
        float* xh = cached_xhat_.data() + (s * channels_ + c) * plane;
        float* out = y.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) {
          xh[i] = (p[i] - static_cast<float>(mean)) * invstd;
          out[i] = g * xh[i] + b;
        }
      }
    });
  } else {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float invstd = 1.0f / std::sqrt(running_var_.value[c] + eps_);
      cached_invstd_[c] = invstd;
      const float m = running_mean_.value[c];
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::int64_t s = 0; s < n; ++s) {
        const float* p = x.data() + (s * channels_ + c) * plane;
        float* out = y.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) out[i] = g * (p[i] - m) * invstd + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (cached_shape_.empty()) {
    throw std::logic_error("BatchNorm2d::backward called before forward");
  }
  if (grad_out.shape() != cached_shape_) {
    throw std::invalid_argument("BatchNorm2d::backward: grad shape mismatch");
  }
  const std::int64_t n = cached_shape_[0], h = cached_shape_[2], w = cached_shape_[3];
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor grad_in(cached_shape_);

  if (last_forward_training_) {
    // Standard BN backward:
    // dx = gamma*invstd/M * (M*dy - sum(dy) - xhat * sum(dy*xhat))
    parallel_for(0, static_cast<std::size_t>(channels_), [&](std::size_t ch) {
      const auto c = static_cast<std::int64_t>(ch);
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* dy = grad_out.data() + (s * channels_ + c) * plane;
        const float* xh = cached_xhat_.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);

      const float scale = gamma_.value[c] * cached_invstd_[c] / static_cast<float>(count);
      for (std::int64_t s = 0; s < n; ++s) {
        const float* dy = grad_out.data() + (s * channels_ + c) * plane;
        const float* xh = cached_xhat_.data() + (s * channels_ + c) * plane;
        float* dx = grad_in.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) {
          dx[i] = scale * (static_cast<float>(count) * dy[i] -
                           static_cast<float>(sum_dy) -
                           xh[i] * static_cast<float>(sum_dy_xhat));
        }
      }
    });
  } else {
    // Inference mode is an affine map per channel: dx = dy * gamma * invstd.
    // Parameter gradients are still accumulated for completeness.
    parallel_for(0, static_cast<std::size_t>(channels_), [&](std::size_t ch) {
      const auto c = static_cast<std::int64_t>(ch);
      const float scale = gamma_.value[c] * cached_invstd_[c];
      double sum_dy = 0.0;
      for (std::int64_t s = 0; s < n; ++s) {
        const float* dy = grad_out.data() + (s * channels_ + c) * plane;
        float* dx = grad_in.data() + (s * channels_ + c) * plane;
        for (std::int64_t i = 0; i < plane; ++i) {
          dx[i] = dy[i] * scale;
          sum_dy += dy[i];
        }
      }
      beta_.grad[c] += static_cast<float>(sum_dy);
    });
  }
  return grad_in;
}

std::vector<Param*> BatchNorm2d::params() {
  return {&gamma_, &beta_, &running_mean_, &running_var_};
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  return std::make_unique<BatchNorm2d>(*this);
}

std::string BatchNorm2d::name() const {
  return "BatchNorm2d(" + std::to_string(channels_) + ")";
}

}  // namespace taamr::nn
