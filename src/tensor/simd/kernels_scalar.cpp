// Portable scalar kernel table — the always-compiled fallback and the
// reference the AVX2 variant must match (bitwise for elementwise and
// lane-spec reductions, within epsilon for GEMM). This TU is built without
// vector ISA flags, so the compiler cannot contract multiply+add into FMA
// and the arithmetic below is exactly what the table advertises.
#include "tensor/simd/dispatch.hpp"

#include <algorithm>
#include <cmath>

namespace taamr::simd {
namespace {

// Cache block for rows and the k dimension. Matches the row-panel width the
// parallel GEMM driver hands out, so a panel's per-row loop order is exactly
// the serial kernel's (bitwise-identical outputs at any pool size).
constexpr std::int64_t kBlock = 64;

// Serial blocked panel: C[i_begin:i_end, :] += A[i_begin:i_end, :] * B,
// i-k-j loop order so the innermost loop streams both B and C rows.
void gemm_panel(float* c, const float* a, const float* b, std::int64_t i_begin,
                std::int64_t i_end, std::int64_t k, std::int64_t n) {
  for (std::int64_t i0 = i_begin; i0 < i_end; i0 += kBlock) {
    const std::int64_t i1 = std::min(i_end, i0 + kBlock);
    for (std::int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const std::int64_t p1 = std::min(k, p0 + kBlock);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = c + i * n;
        const float* arow = a + i * k;
        for (std::int64_t p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void add(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += b[i];
}

void sub(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] -= b[i];
}

void mul(float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] *= b[i];
}

void scale(float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] *= s;
}

void add_scalar(float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += s;
}

void axpy(float* a, float s, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] += s * b[i];
}

void clamp(float* a, float lo, float hi, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) a[i] = std::clamp(a[i], lo, hi);
}

void sign(float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(a[i] > 0.0f) - static_cast<float>(a[i] < 0.0f);
  }
}

void project_linf(float* c, const float* o, float eps, float lo, float hi,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    // Not std::clamp: l > h when o is outside [lo, hi]. Operands as in maxps/minps.
    const float l = std::max(lo, o[i] - eps);
    const float h = std::min(hi, o[i] + eps);
    c[i] = std::min(h, std::max(l, c[i]));
  }
}

double sum(const float* a, std::int64_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::int64_t i = 0; i < n; ++i) {
    lanes[i & 3] += static_cast<double>(a[i]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

float sum_f32(const float* a, std::int64_t n) {
  float lanes[8] = {};
  for (std::int64_t i = 0; i < n; ++i) lanes[i & 7] += a[i];
  float f4[4], f2[2];
  for (int j = 0; j < 4; ++j) f4[j] = lanes[j] + lanes[j + 4];
  for (int j = 0; j < 2; ++j) f2[j] = f4[j] + f4[j + 2];
  return f2[0] + f2[1];
}

double dot(const float* a, const float* b, std::int64_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::int64_t i = 0; i < n; ++i) {
    // The double product of two floats is exact, so this matches the AVX2
    // cvtps_pd + mul_pd + add_pd sequence bit for bit.
    lanes[i & 3] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double squared_distance(const float* a, const float* b, std::int64_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    lanes[i & 3] += d * d;
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

float max(const float* a, std::int64_t n) {
  float m = a[0];
  for (std::int64_t i = 1; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

float min(const float* a, std::int64_t n) {
  float m = a[0];
  for (std::int64_t i = 1; i < n; ++i) m = std::min(m, a[i]);
  return m;
}

float max_abs(const float* a, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

float max_abs_diff(const float* a, const float* b, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

const Kernels kTable = {
    gemm_panel, add,      sub,  mul,     scale, add_scalar,
    axpy,       clamp,    sign, project_linf,
    sum,        sum_f32,  dot,  squared_distance,
    max,        min,      max_abs, max_abs_diff,
};

}  // namespace

namespace detail {
const Kernels* scalar_kernels() { return &kTable; }
}  // namespace detail

}  // namespace taamr::simd
