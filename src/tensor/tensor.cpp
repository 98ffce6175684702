#include "tensor/tensor.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "tensor/cost.hpp"
#include "util/io.hpp"

namespace taamr {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) throw std::invalid_argument("shape_numel: negative dimension");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {
  track_alloc();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_numel(shape_) != static_cast<std::int64_t>(data_.size())) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
  track_alloc();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    track_free();
    shape_ = other.shape_;
    data_ = other.data_;
    track_alloc();
  }
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    track_free();  // our buffer is released; other's moves over, books unchanged
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
  }
  return *this;
}

void Tensor::track_alloc() const {
  const auto bytes =
      static_cast<std::int64_t>(data_.capacity() * sizeof(float));
  cost::track_alloc(bytes);
  // Independent of cost accounting: allocation profiling samples stacks
  // even on runs where metrics are off (TAAMR_PROFILE=alloc alone).
  prof::on_alloc(bytes);
}

void Tensor::track_free() const {
  cost::track_free(static_cast<std::int64_t>(data_.capacity() * sizeof(float)));
}

Tensor& Tensor::reshape(Shape new_shape) {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: cannot reshape " + shape_to_string(shape_) +
                                " to " + shape_to_string(new_shape));
  }
  shape_ = std::move(new_shape);
  return *this;
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor copy = *this;
  copy.reshape(std::move(new_shape));
  return copy;
}

void Tensor::fill(float value) {
  for (float& v : data_) v = value;
}

std::string Tensor::to_string(std::int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor" << shape_to_string(shape_) << " {";
  const std::int64_t n = std::min<std::int64_t>(numel(), max_elems);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<std::size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << "}";
  return os.str();
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

void write_tensor(std::ostream& os, const Tensor& t) {
  io::write_i64_vector(os, t.shape());
  io::write_f32_vector(os, t.storage());
}

Tensor read_tensor(std::istream& is) {
  Shape shape = io::read_i64_vector(is);
  std::vector<float> data = io::read_f32_vector(is);
  if (shape_numel(shape) != static_cast<std::int64_t>(data.size())) {
    throw std::runtime_error("read_tensor: shape/payload mismatch");
  }
  return Tensor(std::move(shape), std::move(data));
}

}  // namespace taamr
