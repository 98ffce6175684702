#include "nn/linear.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace taamr::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_("weight", Tensor({out_features, in_features})),
      bias_("bias", Tensor({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: non-positive feature count");
  }
  bias_.trainable = bias;
}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected [N, " + std::to_string(in_) +
                                "], got " + shape_to_string(x.shape()));
  }
  cached_input_ = x;
  Tensor y = ops::matmul(x, weight_.value, /*trans_a=*/false, /*trans_b=*/true);
  if (has_bias_) {
    const std::int64_t n = y.dim(0);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) y.at(i, j) += bias_.value[j];
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (grad_out.ndim() != 2 || grad_out.dim(1) != out_ ||
      grad_out.dim(0) != cached_input_.dim(0)) {
    throw std::invalid_argument("Linear::backward: grad shape " +
                                shape_to_string(grad_out.shape()) +
                                " inconsistent with cached forward");
  }
  // dW = g^T x, db = colsum(g), dx = g W; input-only mode computes dx alone.
  if (input_only_) return ops::matmul(grad_out, weight_.value);
  ops::matmul_accumulate(weight_.grad, grad_out, cached_input_, /*trans_a=*/true,
                         /*trans_b=*/false);
  if (has_bias_) {
    const std::int64_t n = grad_out.dim(0);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) bias_.grad[j] += grad_out.at(i, j);
    }
  }
  return ops::matmul(grad_out, weight_.value);
}

std::vector<Param*> Linear::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::unique_ptr<Layer> Linear::clone() const { return std::make_unique<Linear>(*this); }

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

}  // namespace taamr::nn
