// Basic pre-activationless residual block (He et al. 2016, the paper's
// ResNet50 building idea at MiniResNet scale):
//   y = ReLU( main(x) + shortcut(x) )
// where main = Conv(s)->BN->ReLU->Conv(1)->BN and shortcut is identity or a
// strided 1x1 Conv->BN projection when shape changes.
#pragma once

#include "nn/sequential.hpp"

namespace taamr::nn {

class ResidualBlock : public Layer {
 public:
  // stride > 1 or in_channels != out_channels implies a projection shortcut.
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride = 1);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  void set_input_only(bool on) override;

  bool has_projection() const { return has_projection_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t stride_;
  bool has_projection_;
  Sequential main_;
  Sequential shortcut_;       // empty when identity
  Tensor cached_sum_mask_;    // ReLU mask of (main + shortcut)
};

}  // namespace taamr::nn
