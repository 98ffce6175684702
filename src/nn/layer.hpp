// Layer abstraction for the NN substrate.
//
// Design notes:
//  - Layers are stateful: forward() caches whatever backward() needs, so a
//    Layer instance must not be used concurrently. Work runs in parallel
//    inside a layer (over samples or channels), not over layer instances;
//    a caller that wants to drive one network from several threads gives
//    each thread its own Classifier::clone().
//  - Inputs and activations are batched: convolutional layers take
//    [N, C, H, W], dense layers [N, D].
//  - backward(grad_out) returns the gradient w.r.t. the layer input and, in
//    the default full mode, accumulates parameter gradients (so gradients
//    over a batch sum naturally). The gradient w.r.t. the *network* input —
//    which is what the adversarial attacks consume — falls out of chaining
//    backward() to the first layer.
//  - Input-only mode (set_input_only(true)) is for that chain alone:
//    backward() computes the same input gradient, bit for bit, but leaves
//    every Param::grad untouched and skips the work only parameter
//    gradients need, and forward() caches only what the input gradient
//    needs. Classifier's batched passes turn it on: input_gradient, and
//    the eval-mode logits/features, which never run a backward and so
//    cache no more than an input gradient would need.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace taamr::nn {

// A learnable tensor plus its gradient accumulator and optimizer slot.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  Tensor momentum;  // lazily sized by the optimizer
  // BatchNorm running statistics and similar buffers are Params with
  // trainable=false: serialized with the model, ignored by the optimizer.
  bool trainable = true;

  explicit Param(std::string n = {}) : name(std::move(n)) {}
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape(), 0.0f) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // train=true selects training behaviour (e.g. batch statistics in BN).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  // Must be called after a forward() on the same instance.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  virtual std::vector<Param*> params() { return {}; }

  // Deep copy including parameters; caches may or may not be copied — a
  // clone is only guaranteed usable after its own forward().
  virtual std::unique_ptr<Layer> clone() const = 0;

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }

  // Selects input-only (true) or full (false) backward; set it before the
  // forward() that the backward() follows. Containers pass it on to every
  // child layer; the flag is per instance, so clones are independent.
  virtual void set_input_only(bool on) { input_only_ = on; }

 protected:
  bool input_only_ = false;
};

// Total number of scalar parameters (trainable only).
std::int64_t count_parameters(Layer& layer);

}  // namespace taamr::nn
