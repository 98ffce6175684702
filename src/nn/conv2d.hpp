// 2-d convolution (square kernel) implemented by im2col lowering + GEMM.
// Input [N, C_in, H, W] -> output [N, C_out, H', W'].
#pragma once

#include "nn/layer.hpp"
#include "tensor/conv_lowering.hpp"

namespace taamr::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride = 1, std::int64_t padding = 0, bool bias = false);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  // Weight stored pre-lowered as [C_out, C_in * K * K].
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

 private:
  conv::ConvGeometry geometry_for(const Shape& x_shape) const;

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t padding_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Shape cached_shape_;   // input shape of the last forward
  Tensor cached_input_;  // its input, for dW; empty after an input-only forward
};

}  // namespace taamr::nn
