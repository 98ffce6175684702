#include "nn/pooling.hpp"

#include <stdexcept>

#include "tensor/simd/dispatch.hpp"

namespace taamr::nn {

Tensor GlobalAvgPool2d::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 4) throw std::invalid_argument("GlobalAvgPool2d: expected [N, C, H, W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  cached_in_shape_ = x.shape();
  Tensor y({n, c});
  const float inv = 1.0f / static_cast<float>(plane);
  const auto& kern = simd::active();
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (s * c + ch) * plane;
      // Lane-striped float sum (see tensor/simd/dispatch.hpp), so scalar and
      // AVX2 dispatch produce bitwise-identical features.
      y.at(s, ch) = kern.sum_f32(p, plane) * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_out) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("GlobalAvgPool2d::backward called before forward");
  }
  const std::int64_t n = cached_in_shape_[0], c = cached_in_shape_[1];
  const std::int64_t plane = cached_in_shape_[2] * cached_in_shape_[3];
  if (grad_out.ndim() != 2 || grad_out.dim(0) != n || grad_out.dim(1) != c) {
    throw std::invalid_argument("GlobalAvgPool2d::backward: grad shape mismatch");
  }
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(s, ch) * inv;
      float* p = grad_in.data() + (s * c + ch) * plane;
      for (std::int64_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> GlobalAvgPool2d::clone() const {
  return std::make_unique<GlobalAvgPool2d>(*this);
}

}  // namespace taamr::nn
