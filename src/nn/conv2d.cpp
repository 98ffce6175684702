#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tensor/cost.hpp"
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

conv::ConvGeometry Conv2d::geometry_for(const Shape& x_shape) const {
  if (x_shape.size() != 4 || x_shape[1] != in_channels_) {
    throw std::invalid_argument("Conv2d: expected [N, " + std::to_string(in_channels_) +
                                ", H, W], got " + shape_to_string(x_shape));
  }
  conv::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = x_shape[2];
  g.in_w = x_shape[3];
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  g.validate();
  return g;
}

namespace {

// Per-thread scratch sized for one sample. A patch matrix is
// C_in*K*K x outH*outW floats: 144 KiB for MiniResNet's largest at 32x32
// inputs, so it stays in L2. Pool threads live as long as the process, so
// after the first batch no call allocates.
float* scratch(std::vector<float>& buf, std::int64_t n) {
  if (buf.size() < static_cast<std::size_t>(n)) buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

thread_local std::vector<float> t_cols;    // im2col of one sample, then W^T * g_s
thread_local std::vector<float> t_grad_t;  // g_s transposed, [P, C_out]

}  // namespace

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  const conv::ConvGeometry g = geometry_for(x.shape());
  cached_shape_ = x.shape();
  // Only dW reads the input again; an input-only backward needs its shape.
  // clear() keeps the buffer, so the next full forward copies into it
  // instead of faulting in fresh pages.
  if (input_only_) {
    cached_input_.storage().clear();
  } else {
    cached_input_ = x;
  }
  const std::int64_t n = x.dim(0), rows = g.patch_rows(), p = g.patch_cols();
  const std::int64_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_plane = out_channels_ * p;
  Tensor y({n, out_channels_, g.out_h(), g.out_w()});

  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t s) {
    float* cols = scratch(t_cols, rows * p);
    conv::im2col_into(x.data() + static_cast<std::int64_t>(s) * in_plane, g, cols);
    float* out = y.data() + static_cast<std::int64_t>(s) * out_plane;  // [C_out, P]
    ops::gemm_accumulate(out, weight_.value.data(), cols, out_channels_, rows, p);
    if (has_bias_) {
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        float* row = out + c * p;
        const float b = bias_.value[c];
        for (std::int64_t i = 0; i < p; ++i) row[i] += b;
      }
    }
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_shape_.empty()) {
    throw std::logic_error("Conv2d::backward called before forward");
  }
  if (!input_only_ && cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward: full backward after an input-only forward");
  }
  const conv::ConvGeometry g = geometry_for(cached_shape_);
  const std::int64_t n = cached_shape_[0], oh = g.out_h(), ow = g.out_w();
  if (grad_out.ndim() != 4 || grad_out.dim(0) != n || grad_out.dim(1) != out_channels_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: grad shape " +
                                shape_to_string(grad_out.shape()) +
                                " inconsistent with cached forward");
  }
  const std::int64_t co = out_channels_, rows = g.patch_rows(), p = g.patch_cols();
  const std::int64_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::int64_t out_plane = co * p;
  const std::int64_t w_size = co * rows;
  Tensor grad_in({n, in_channels_, g.in_h, g.in_w});  // col2im_add accumulates

  // W^T [rows, C_out], once per call.
  std::vector<float> w_t(static_cast<std::size_t>(w_size));
  const float* w = weight_.value.data();
  for (std::int64_t c = 0; c < co; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) w_t[r * co + c] = w[c * rows + r];
  }
  // Per-sample parameter gradients, summed in sample order after the loop:
  // float addition is not associative, so summing in thread-finish order
  // would make training depend on the schedule and the pool size. Each
  // sample's dW is kept transposed, [rows, C_out]. Input-only mode keeps
  // none of them.
  const bool param_grads = !input_only_;
  std::vector<float> dw_t(param_grads ? static_cast<std::size_t>(n * w_size) : 0);
  std::vector<float> db(param_grads && has_bias_ ? static_cast<std::size_t>(n * co) : 0);

  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t s) {
    const auto si = static_cast<std::int64_t>(s);
    float* cols = scratch(t_cols, rows * p);
    const float* g_s = grad_out.data() + si * out_plane;  // [C_out, P]

    if (param_grads) {
      // Recompute im2col of the cached input (memory-for-compute trade: the
      // patch matrices are too large to cache for all layers of a batch).
      conv::im2col_into(cached_input_.data() + si * in_plane, g, cols);
      // dW_s^T = cols * g_s^T: transposing the small g_s instead of the
      // patch matrix. Every element is the same products summed in the same
      // k order as dW_s = g_s * cols^T, so the result is bitwise that of
      // the latter.
      float* g_t = scratch(t_grad_t, out_plane);
      for (std::int64_t c = 0; c < co; ++c) {
        for (std::int64_t i = 0; i < p; ++i) g_t[i * co + c] = g_s[c * p + i];
      }
      ops::gemm_accumulate(dw_t.data() + si * w_size, cols, g_t, rows, p, co);
    }

    // dx_s = col2im(W^T * g_s), scattered straight into grad_in. The patch
    // matrix is dead now, so its scratch holds dcols.
    float* dcols = cols;
    std::fill(dcols, dcols + rows * p, 0.0f);
    ops::gemm_accumulate(dcols, w_t.data(), g_s, rows, co, p);
    conv::col2im_add(dcols, g, grad_in.data() + si * in_plane);

    if (param_grads && has_bias_) {
      for (std::int64_t c = 0; c < co; ++c) {
        const float* row = g_s + c * p;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < p; ++i) acc += row[i];
        db[static_cast<std::size_t>(si * co + c)] = acc;
      }
    }
  });
  if (!param_grads) return grad_in;

  // Ordered sums, booked as one elementwise add per sample and tensor.
  cost::add(cost::Kernel::kElementwise, static_cast<double>(n * w_size),
            12.0 * static_cast<double>(n * w_size));
  float* dw = weight_.grad.data();
  for (std::int64_t c = 0; c < co; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float acc = dw[c * rows + r];
      for (std::int64_t s = 0; s < n; ++s) acc += dw_t[(s * rows + r) * co + c];
      dw[c * rows + r] = acc;
    }
  }
  if (has_bias_) {
    cost::add(cost::Kernel::kElementwise, static_cast<double>(n * co),
              12.0 * static_cast<double>(n * co));
    for (std::int64_t c = 0; c < co; ++c) {
      float acc = bias_.grad[c];
      for (std::int64_t s = 0; s < n; ++s) acc += db[static_cast<std::size_t>(s * co + c)];
      bias_.grad[c] = acc;
    }
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
