#include "nn/conv2d.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace taamr::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("weight", Tensor({out_channels, in_channels * kernel * kernel})),
      bias_("bias", Tensor({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0) {
    throw std::invalid_argument("Conv2d: non-positive channel count");
  }
  bias_.trainable = bias;
}

conv::ConvGeometry Conv2d::geometry_for(const Tensor& x) const {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected [N, " + std::to_string(in_channels_) +
                                ", H, W], got " + shape_to_string(x.shape()));
  }
  conv::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  g.validate();
  return g;
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  const conv::ConvGeometry g = geometry_for(x);
  cached_input_ = x;
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_plane = out_channels_ * oh * ow;
  Tensor y({n, out_channels_, oh, ow});

  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t s) {
    Tensor sample({g.in_channels, g.in_h, g.in_w});
    std::memcpy(sample.data(), x.data() + static_cast<std::int64_t>(s) * in_plane,
                static_cast<std::size_t>(in_plane) * sizeof(float));
    const Tensor cols = conv::im2col(sample, g);
    Tensor out = ops::matmul(weight_.value, cols);  // [C_out, oh*ow]
    if (has_bias_) {
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        float* row = out.data() + c * oh * ow;
        const float b = bias_.value[c];
        for (std::int64_t p = 0; p < oh * ow; ++p) row[p] += b;
      }
    }
    std::memcpy(y.data() + static_cast<std::int64_t>(s) * out_plane, out.data(),
                static_cast<std::size_t>(out_plane) * sizeof(float));
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward called before forward");
  }
  const conv::ConvGeometry g = geometry_for(cached_input_);
  const std::int64_t n = cached_input_.dim(0), oh = g.out_h(), ow = g.out_w();
  if (grad_out.ndim() != 4 || grad_out.dim(0) != n || grad_out.dim(1) != out_channels_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: grad shape " +
                                shape_to_string(grad_out.shape()) +
                                " inconsistent with cached forward");
  }
  const std::int64_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_plane = out_channels_ * oh * ow;
  Tensor grad_in({n, in_channels_, g.in_h, g.in_w});
  // Per-sample parameter gradients, summed in sample order after the loop:
  // float addition is not associative, so summing in thread-finish order
  // would make training depend on the schedule and the pool size.
  std::vector<Tensor> dw(static_cast<std::size_t>(n));
  std::vector<Tensor> db(static_cast<std::size_t>(n));

  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t s) {
    // Recompute im2col of the cached input (memory-for-compute trade: the
    // patch matrices are too large to cache for all layers of a batch).
    Tensor sample({g.in_channels, g.in_h, g.in_w});
    std::memcpy(sample.data(),
                cached_input_.data() + static_cast<std::int64_t>(s) * in_plane,
                static_cast<std::size_t>(in_plane) * sizeof(float));
    const Tensor cols = conv::im2col(sample, g);

    Tensor g_sample({out_channels_, oh * ow});
    std::memcpy(g_sample.data(),
                grad_out.data() + static_cast<std::int64_t>(s) * out_plane,
                static_cast<std::size_t>(out_plane) * sizeof(float));

    // dW_s = g_s * cols^T ; dx_s = col2im(W^T * g_s).
    dw[s] = ops::matmul(g_sample, cols, /*trans_a=*/false, /*trans_b=*/true);
    Tensor dcols = ops::matmul(weight_.value, g_sample, /*trans_a=*/true);
    Tensor dx = conv::col2im(dcols, g);
    std::memcpy(grad_in.data() + static_cast<std::int64_t>(s) * in_plane, dx.data(),
                static_cast<std::size_t>(in_plane) * sizeof(float));

    if (has_bias_) {
      db[s] = Tensor({out_channels_});
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        const float* row = g_sample.data() + c * oh * ow;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < oh * ow; ++p) acc += row[p];
        db[s][c] = acc;
      }
    }
  });
  for (std::size_t s = 0; s < dw.size(); ++s) {
    ops::add_inplace(weight_.grad, dw[s]);
    if (has_bias_) ops::add_inplace(bias_.grad, db[s]);
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::unique_ptr<Layer> Conv2d::clone() const { return std::make_unique<Conv2d>(*this); }

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_channels_) + "->" + std::to_string(out_channels_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ", p=" + std::to_string(padding_) + ")";
}

}  // namespace taamr::nn
