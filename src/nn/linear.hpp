// Fully-connected layer: y = x W^T + b, x: [N, in], W: [out, in].
#pragma once

#include "nn/layer.hpp"

namespace taamr::nn {

class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace taamr::nn
