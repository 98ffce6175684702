#include "nn/activations.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace taamr::nn {

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  cached_mask_ = Tensor(x.shape());
  Tensor y = x;
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const bool on = x[i] > 0.0f;
    cached_mask_[i] = on ? 1.0f : 0.0f;
    if (!on) y[i] = 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, cached_mask_, "ReLU::backward");
  return ops::mul(grad_out, cached_mask_);
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

}  // namespace taamr::nn
