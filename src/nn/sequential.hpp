// Ordered composition of layers. Also provides partial execution of a
// prefix (forward_to / backward_to), which is how Classifier exposes the
// paper's feature layer *e* and pulls feature-space cotangents back to
// the pixels.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace taamr::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

  // Runs layers [0, layer_end) only. forward(x, t) == forward_to(x, size(), t).
  Tensor forward_to(const Tensor& x, std::size_t layer_end, bool train);
  // Backpropagates through layers [0, layer_end).
  // backward(g) == backward_to(g, size()).
  Tensor backward_to(const Tensor& grad_out, std::size_t layer_end);

  std::vector<Param*> params() override;
  std::unique_ptr<Layer> clone() const override;
  std::string name() const override;
  void set_input_only(bool on) override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace taamr::nn
