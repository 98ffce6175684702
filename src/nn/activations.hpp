// The pointwise activation layer of the MiniResNet.
#pragma once

#include "nn/layer.hpp"

namespace taamr::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_mask_;  // 1 where input > 0
};

}  // namespace taamr::nn
