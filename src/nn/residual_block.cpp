#include "nn/residual_block.hpp"

#include "nn/activations.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace taamr::nn {

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                             std::int64_t stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      has_projection_(stride != 1 || in_channels != out_channels) {
  main_.emplace<Conv2d>(in_channels, out_channels, /*kernel=*/3, stride, /*padding=*/1);
  main_.emplace<BatchNorm2d>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2d>(out_channels, out_channels, /*kernel=*/3, /*stride=*/1,
                        /*padding=*/1);
  main_.emplace<BatchNorm2d>(out_channels);
  if (has_projection_) {
    shortcut_.emplace<Conv2d>(in_channels, out_channels, /*kernel=*/1, stride,
                              /*padding=*/0);
    shortcut_.emplace<BatchNorm2d>(out_channels);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main_out = main_.forward(x, train);
  Tensor short_out = has_projection_ ? shortcut_.forward(x, train) : x;
  Tensor sum = ops::add(main_out, short_out);
  cached_sum_mask_ = Tensor(sum.shape());
  for (std::int64_t i = 0; i < sum.numel(); ++i) {
    const bool on = sum[i] > 0.0f;
    cached_sum_mask_[i] = on ? 1.0f : 0.0f;
    if (!on) sum[i] = 0.0f;
  }
  return sum;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, cached_sum_mask_, "ResidualBlock::backward");
  const Tensor g_sum = ops::mul(grad_out, cached_sum_mask_);
  Tensor g_in = main_.backward(g_sum);
  if (has_projection_) {
    ops::add_inplace(g_in, shortcut_.backward(g_sum));
  } else {
    ops::add_inplace(g_in, g_sum);
  }
  return g_in;
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> all = main_.params();
  for (Param* p : shortcut_.params()) all.push_back(p);
  return all;
}

void ResidualBlock::set_input_only(bool on) {
  main_.set_input_only(on);
  shortcut_.set_input_only(on);
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  return std::make_unique<ResidualBlock>(*this);
}

std::string ResidualBlock::name() const {
  return "ResidualBlock(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", s=" + std::to_string(stride_) + ")";
}

}  // namespace taamr::nn
