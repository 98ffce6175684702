#include "nn/sequential.hpp"

#include <stdexcept>

namespace taamr::nn {

Sequential::Sequential(const Sequential& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  return forward_to(x, layers_.size(), train);
}

Tensor Sequential::forward_to(const Tensor& x, std::size_t layer_end, bool train) {
  if (layer_end > layers_.size()) {
    throw std::out_of_range("Sequential::forward_to: layer_end out of range");
  }
  Tensor h = x;
  for (std::size_t i = 0; i < layer_end; ++i) h = layers_[i]->forward(h, train);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  return backward_to(grad_out, layers_.size());
}

Tensor Sequential::backward_to(const Tensor& grad_out, std::size_t layer_end) {
  if (layer_end > layers_.size()) {
    throw std::out_of_range("Sequential::backward_to: layer_end out of range");
  }
  Tensor g = grad_out;
  for (std::size_t i = layer_end; i > 0; --i) {
    g = layers_[i - 1]->backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& l : layers_) {
    for (Param* p : l->params()) all.push_back(p);
  }
  return all;
}

void Sequential::set_input_only(bool on) {
  for (auto& l : layers_) l->set_input_only(on);
}

std::unique_ptr<Layer> Sequential::clone() const {
  return std::make_unique<Sequential>(*this);
}

std::string Sequential::name() const {
  std::string s = "Sequential[";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i) s += ", ";
    s += layers_[i]->name();
  }
  s += "]";
  return s;
}

}  // namespace taamr::nn
