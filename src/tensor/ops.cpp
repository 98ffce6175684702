#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/cost.hpp"
#include "tensor/simd/dispatch.hpp"
#include "util/thread_pool.hpp"

namespace taamr::ops {

namespace {
// Cost-accounting shorthands (see tensor/cost.hpp). Nominal counts: one
// FLOP per output element for unary/binary maps, 2 per multiply-add.
inline void book_elementwise(std::int64_t n, double flops_per_elem,
                             double bytes_per_elem) {
  cost::add(cost::Kernel::kElementwise, flops_per_elem * static_cast<double>(n),
            bytes_per_elem * static_cast<double>(n));
}
inline void book_reduction(std::int64_t n, double flops_per_elem,
                           double bytes_per_elem) {
  cost::add(cost::Kernel::kReduction, flops_per_elem * static_cast<double>(n),
            bytes_per_elem * static_cast<double>(n));
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  book_elementwise(a.numel(), 1.0, 12.0);
  Tensor out = a;
  simd::active().mul(out.data(), b.data(), out.numel());
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  book_elementwise(a.numel(), 1.0, 8.0);
  Tensor out = a;
  simd::active().add_scalar(out.data(), s, out.numel());
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  book_elementwise(a.numel(), 1.0, 12.0);
  simd::active().add(a.data(), b.data(), a.numel());
}

void sub_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub_inplace");
  book_elementwise(a.numel(), 1.0, 12.0);
  simd::active().sub(a.data(), b.data(), a.numel());
}

void scale_inplace(Tensor& a, float s) {
  book_elementwise(a.numel(), 1.0, 8.0);
  simd::active().scale(a.data(), s, a.numel());
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  book_elementwise(a.numel(), 2.0, 12.0);
  simd::active().axpy(a.data(), s, b.data(), a.numel());
}

Tensor apply(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out = a;
  apply_inplace(out, f);
  return out;
}

void apply_inplace(Tensor& a, const std::function<float(float)>& f) {
  book_elementwise(a.numel(), 1.0, 8.0);
  for (float& v : a.storage()) v = f(v);
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  Tensor out = a;
  clamp_inplace(out, lo, hi);
  return out;
}

void clamp_inplace(Tensor& a, float lo, float hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  book_elementwise(a.numel(), 2.0, 8.0);
  simd::active().clamp(a.data(), lo, hi, a.numel());
}

Tensor sign(const Tensor& a) {
  book_elementwise(a.numel(), 2.0, 8.0);
  Tensor out = a;
  simd::active().sign(out.data(), out.numel());
  return out;
}

namespace {

void require_matrix(const Tensor& t, const char* name) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string("matmul: ") + name + " must be 2-d, got " +
                                shape_to_string(t.shape()));
  }
}

// Row-panel width handed to each parallel task; matches the scalar panel
// kernel's internal i-block so a panel's per-row loop order is exactly the
// serial kernel's (bitwise-identical outputs at any pool size — the AVX2
// panel kernel accumulates each row independently, so it holds there too).
constexpr std::int64_t kGemmBlock = 64;
// Below this nominal FLOP count a launch stays serial: chunk bookkeeping
// and the enqueue round-trip would outweigh the multiply-adds.
constexpr double kGemmParallelMinFlops = 1.5e6;

Tensor transposed(const Tensor& t) {
  const std::int64_t r = t.dim(0), c = t.dim(1);
  Tensor out({c, r});
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

}  // namespace

void gemm_nn_blocked(float* c, const float* a, const float* b, std::int64_t m,
                     std::int64_t k, std::int64_t n, ThreadPool* pool) {
  const auto& kern = simd::active();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  const std::int64_t num_panels = (m + kGemmBlock - 1) / kGemmBlock;
  if (pool == nullptr || pool->size() <= 1 || num_panels <= 1 ||
      flops < kGemmParallelMinFlops) {
    kern.gemm_panel(c, a, b, 0, m, k, n);
    return;
  }
  pool->parallel_for(0, static_cast<std::size_t>(num_panels), [&](std::size_t p) {
    const std::int64_t i0 = static_cast<std::int64_t>(p) * kGemmBlock;
    kern.gemm_panel(c, a, b, i0, std::min(m, i0 + kGemmBlock), k, n);
  });
}

void gemm_accumulate(float* c, const float* a, const float* b, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  cost::add(cost::Kernel::kGemm,
            2.0 * static_cast<double>(m) * static_cast<double>(k) *
                static_cast<double>(n),
            4.0 * (static_cast<double>(m) * static_cast<double>(k) +
                   static_cast<double>(k) * static_cast<double>(n) +
                   2.0 * static_cast<double>(m) * static_cast<double>(n)));
  gemm_nn_blocked(c, a, b, m, k, n, &ThreadPool::global());
}

void matmul_accumulate(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                       bool trans_b) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  require_matrix(c, "C");
  // Normalize to the NN case. Transposing the (smaller) operand up front is
  // cheaper and simpler than four kernel variants at our sizes.
  const Tensor& an = trans_a ? transposed(a) : a;
  const Tensor& bn = trans_b ? transposed(b) : b;
  const std::int64_t m = an.dim(0), k = an.dim(1), k2 = bn.dim(0), n = bn.dim(1);
  if (k != k2) {
    throw std::invalid_argument("matmul: inner dimensions differ: " +
                                shape_to_string(an.shape()) + " x " +
                                shape_to_string(bn.shape()));
  }
  if (c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_accumulate: C has shape " +
                                shape_to_string(c.shape()) + ", expected [" +
                                std::to_string(m) + ", " + std::to_string(n) + "]");
  }
  gemm_accumulate(c.data(), an.data(), bn.data(), m, k, n);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  require_matrix(a, "A");
  require_matrix(b, "B");
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  matmul_accumulate(c, a, b, trans_a, trans_b);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  require_matrix(a, "A");
  if (x.ndim() != 1 || x.dim(0) != a.dim(1)) {
    throw std::invalid_argument("matvec: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(x.shape()));
  }
  const std::int64_t m = a.dim(0), n = a.dim(1);
  cost::add(cost::Kernel::kGemm,
            2.0 * static_cast<double>(m) * static_cast<double>(n),
            4.0 * (static_cast<double>(m) * static_cast<double>(n) +
                   static_cast<double>(n) + static_cast<double>(m)));
  Tensor y({m});
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

float sum(const Tensor& a) {
  book_reduction(a.numel(), 1.0, 4.0);
  // Accumulates in double (these sums feed loss reporting) under the fixed
  // lane spec of tensor/simd/dispatch.hpp, so every variant agrees bitwise.
  return static_cast<float>(simd::active().sum(a.data(), a.numel()));
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean: empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
  book_reduction(a.numel(), 2.0, 4.0);
  return simd::active().max_abs(a.data(), a.numel());
}

float min(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min: empty tensor");
  book_reduction(a.numel(), 1.0, 4.0);
  return simd::active().min(a.data(), a.numel());
}

float max(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max: empty tensor");
  book_reduction(a.numel(), 1.0, 4.0);
  return simd::active().max(a.data(), a.numel());
}

float dot(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "dot");
  book_reduction(a.numel(), 2.0, 8.0);
  return static_cast<float>(simd::active().dot(a.data(), b.data(), a.numel()));
}

float l2_norm(const Tensor& a) { return std::sqrt(std::max(0.0f, dot(a, a))); }

float squared_distance(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "squared_distance");
  book_reduction(a.numel(), 3.0, 8.0);
  return static_cast<float>(
      simd::active().squared_distance(a.data(), b.data(), a.numel()));
}

float linf_distance(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "linf_distance");
  book_reduction(a.numel(), 3.0, 8.0);
  return simd::active().max_abs_diff(a.data(), b.data(), a.numel());
}

std::int64_t argmax(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("argmax: empty tensor");
  book_reduction(a.numel(), 1.0, 4.0);
  std::int64_t best = 0;
  float best_v = a[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) {
    if (a[i] > best_v) {
      best_v = a[i];
      best = i;
    }
  }
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("argmax_rows: expected matrix");
  book_reduction(a.numel(), 1.0, 4.0);
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = a.data() + i * cols;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < cols; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.ndim() != 2) throw std::invalid_argument("softmax_rows: expected matrix");
  book_reduction(logits.numel(), 4.0, 8.0);
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  const auto& kern = simd::active();
  Tensor out = logits;
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = out.data() + i * cols;
    const float mx = kern.max(row, cols);
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    kern.scale(row, inv, cols);
  }
  return out;
}

}  // namespace taamr::ops
