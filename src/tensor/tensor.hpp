// Dense row-major float tensor. Deliberately simple: owning, contiguous,
// no views or broadcasting machinery — the NN layers spell out their index
// arithmetic, which keeps backward passes auditable.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace taamr {

using Shape = std::vector<std::int64_t>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> data);

  // The special members exist only to feed the tensor-allocator byte
  // accounting (cost::tensor_bytes_in_use / high-water, see tensor/cost.hpp);
  // value semantics are exactly the rule-of-zero ones. Moves transfer the
  // buffer, so only copies and destruction touch the books.
  ~Tensor() { track_free(); }
  Tensor(const Tensor& other) : shape_(other.shape_), data_(other.data_) {
    track_alloc();
  }
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept;

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t ndim() const { return shape_.size(); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  // 2-d / 3-d / 4-d accessors with debug-mode bounds checking via .at in
  // shape lookups. Tensors are row-major: last index varies fastest.
  float& at(std::int64_t i, std::int64_t j) {
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }
  float at(std::int64_t i, std::int64_t j) const {
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }
  float& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  // In-place reshape; total element count must be preserved.
  Tensor& reshape(Shape new_shape);
  // Copying reshape.
  Tensor reshaped(Shape new_shape) const;

  void fill(float value);
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string to_string(std::int64_t max_elems = 32) const;

 private:
  void track_alloc() const;
  void track_free() const;

  Shape shape_;
  std::vector<float> data_;
};

// Throws std::invalid_argument if shapes differ; used as a precondition
// check at the top of elementwise kernels.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

// Binary form shared by the model checkpoints and the cached experiment
// results (util/io.hpp): the shape, then the values. read_tensor throws
// std::runtime_error on a truncated stream or a payload that does not
// match its shape.
void write_tensor(std::ostream& os, const Tensor& t);
Tensor read_tensor(std::istream& is);

}  // namespace taamr
