// Spatial pooling.
#pragma once

#include "nn/layer.hpp"

namespace taamr::nn {

// Global average pooling: [N, C, H, W] -> [N, C]. Its output is the paper's
// feature layer *e* ("the output of the global average pooling right after
// the convolutional part").
class GlobalAvgPool2d : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override { return "GlobalAvgPool2d"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace taamr::nn
