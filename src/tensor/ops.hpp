// Elementwise kernels, GEMM and reductions over Tensor. All functions are
// pure unless suffixed _inplace / prefixed with "into"-style out-params.
#pragma once

#include <cstdint>
#include <functional>

#include "tensor/tensor.hpp"

namespace taamr {
class ThreadPool;
}

namespace taamr::ops {

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard product
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);

void add_inplace(Tensor& a, const Tensor& b);
void sub_inplace(Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float s);
// a += s * b (the SGD / attack-step primitive).
void axpy_inplace(Tensor& a, float s, const Tensor& b);

Tensor apply(const Tensor& a, const std::function<float(float)>& f);
void apply_inplace(Tensor& a, const std::function<float(float)>& f);

// Clamp every element into [lo, hi].
Tensor clamp(const Tensor& a, float lo, float hi);
void clamp_inplace(Tensor& a, float lo, float hi);

// Elementwise sign in {-1, 0, +1}.
Tensor sign(const Tensor& a);

// ---- GEMM ------------------------------------------------------------------

// C = op(A) * op(B) where op is optional transposition. A is [m, k] (or
// [k, m] if trans_a), B is [k, n] (or [n, k] if trans_b). Cache-blocked
// i-k-j kernel, parallelized over row panels on the global thread pool for
// large launches (nested calls from pool workers run inline).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// Low-level blocked GEMM: C += A[m, k] * B[k, n], all plain row-major.
// Row panels execute on `pool` when the launch is large enough (nullptr =
// always serial). The output is bitwise-identical for every pool size —
// panels partition the rows and each row's accumulation order is fixed —
// so serial and parallel runs of the same shapes agree exactly.
void gemm_nn_blocked(float* c, const float* a, const float* b, std::int64_t m,
                     std::int64_t k, std::int64_t n, ThreadPool* pool);

// C += A[m, k] * B[k, n] on raw row-major buffers: books the launch's
// nominal cost (as matmul does) and runs gemm_nn_blocked on the global pool.
void gemm_accumulate(float* c, const float* a, const float* b, std::int64_t m,
                     std::int64_t k, std::int64_t n);

// C += op(A) * op(B); C must already have the right shape.
void matmul_accumulate(Tensor& c, const Tensor& a, const Tensor& b,
                       bool trans_a = false, bool trans_b = false);

// y = A * x for matrix [m, n] and vector [n]. Returns [m].
Tensor matvec(const Tensor& a, const Tensor& x);

// ---- reductions & vector math ----------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
float min(const Tensor& a);
float max(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);
float l2_norm(const Tensor& a);
// Squared Euclidean distance between two same-shaped tensors.
float squared_distance(const Tensor& a, const Tensor& b);
// Largest |a_i - b_i|; the l-infinity distance the threat model constrains.
float linf_distance(const Tensor& a, const Tensor& b);

// Index of the maximum element (first on ties).
std::int64_t argmax(const Tensor& a);
// Row-wise argmax of a [rows, cols] matrix.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

// Numerically stable row-wise softmax of a [rows, cols] matrix.
Tensor softmax_rows(const Tensor& logits);

}  // namespace taamr::ops
