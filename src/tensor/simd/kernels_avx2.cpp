// AVX2+FMA kernel table. This TU is the only one compiled with
// -mavx2 -mfma (plus -ffp-contract=off so scalar tail code cannot be
// contracted into FMA behind our back; the GEMM microkernel uses explicit
// _mm256_fmadd_ps, which fp-contract does not touch). When the toolchain
// lacks AVX2 the whole file degrades to a nullptr table and dispatch stays
// on the scalar fallback.
#include "tensor/simd/dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace taamr::simd {
namespace {

// ---- GEMM: 6x16 register-tile microkernel ----------------------------------
//
// Each tile holds a 6-row by 16-column block of C in 12 ymm accumulators;
// the k-loop broadcasts one A element per row and issues two FMAs against a
// streamed 16-wide B slab (one cache line per B row). Row results depend
// only on their own k-order, so any row partition (the parallel panel
// driver, remainder handling below) is bitwise-identical.

inline __m256i tail_mask(std::int64_t rem) {  // rem in [1, 7]
  alignas(32) static const int kMaskSrc[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskSrc + 8 - rem));
}

template <int MR>
void tile_x16(float* c, const float* a, const float* b, std::int64_t i,
              std::int64_t j, std::int64_t k, std::int64_t n) {
  __m256 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = _mm256_loadu_ps(c + (i + r) * n + j);
    acc1[r] = _mm256_loadu_ps(c + (i + r) * n + j + 8);
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
    const __m256 b1 = _mm256_loadu_ps(b + p * n + j + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + (i + r) * k + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + (i + r) * n + j, acc0[r]);
    _mm256_storeu_ps(c + (i + r) * n + j + 8, acc1[r]);
  }
}

template <int MR>
void tile_x8(float* c, const float* a, const float* b, std::int64_t i,
             std::int64_t j, std::int64_t k, std::int64_t n) {
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm256_loadu_ps(c + (i + r) * n + j);
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256 bv = _mm256_loadu_ps(b + p * n + j);
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i + r) * k + p), bv,
                               acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) _mm256_storeu_ps(c + (i + r) * n + j, acc[r]);
}

template <int MR>
void tile_tail(float* c, const float* a, const float* b, std::int64_t i,
               std::int64_t j, std::int64_t k, std::int64_t n,
               std::int64_t rem) {
  const __m256i mask = tail_mask(rem);
  __m256 acc[MR];
  for (int r = 0; r < MR; ++r) {
    acc[r] = _mm256_maskload_ps(c + (i + r) * n + j, mask);
  }
  for (std::int64_t p = 0; p < k; ++p) {
    // Masked-out lanes load as 0 and are never stored, so garbage past the
    // row end cannot leak in.
    const __m256 bv = _mm256_maskload_ps(b + p * n + j, mask);
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i + r) * k + p), bv,
                               acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_maskstore_ps(c + (i + r) * n + j, mask, acc[r]);
  }
}

template <int MR>
void row_block(float* c, const float* a, const float* b, std::int64_t i,
               std::int64_t k, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) tile_x16<MR>(c, a, b, i, j, k, n);
  if (j + 8 <= n) {
    tile_x8<MR>(c, a, b, i, j, k, n);
    j += 8;
  }
  if (j < n) tile_tail<MR>(c, a, b, i, j, k, n, n - j);
}

void gemm_panel(float* c, const float* a, const float* b, std::int64_t i_begin,
                std::int64_t i_end, std::int64_t k, std::int64_t n) {
  std::int64_t i = i_begin;
  for (; i + 6 <= i_end; i += 6) row_block<6>(c, a, b, i, k, n);
  switch (i_end - i) {
    case 5: row_block<5>(c, a, b, i, k, n); break;
    case 4: row_block<4>(c, a, b, i, k, n); break;
    case 3: row_block<3>(c, a, b, i, k, n); break;
    case 2: row_block<2>(c, a, b, i, k, n); break;
    case 1: row_block<1>(c, a, b, i, k, n); break;
    default: break;
  }
}

// ---- elementwise ------------------------------------------------------------
// All of these use separate mul/add (never fmadd) so each lane performs
// exactly the scalar table's float arithmetic — bitwise-identical results.

void add(float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

void sub(float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] -= b[i];
}

void mul(float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) a[i] *= b[i];
}

void scale(float* a, float s, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) a[i] *= s;
}

void add_scalar(float* a, float s, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), sv));
  }
  for (; i < n; ++i) a[i] += s;
}

void axpy(float* a, float s, const float* b, std::int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), prod));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void clamp(float* a, float lo, float hi, std::int64_t n) {
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(a + i, _mm256_min_ps(_mm256_max_ps(v, lov), hiv));
  }
  for (; i < n; ++i) a[i] = std::clamp(a[i], lo, hi);
}

void sign(float* a, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    const __m256 pos = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), one);
    const __m256 neg = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), one);
    _mm256_storeu_ps(a + i, _mm256_sub_ps(pos, neg));
  }
  for (; i < n; ++i) {
    a[i] = static_cast<float>(a[i] > 0.0f) - static_cast<float>(a[i] < 0.0f);
  }
}

void project_linf(float* c, const float* o, float eps, float lo, float hi,
                  std::int64_t n) {
  const __m256 ev = _mm256_set1_ps(eps);
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 ov = _mm256_loadu_ps(o + i);
    const __m256 l = _mm256_max_ps(_mm256_sub_ps(ov, ev), lov);
    const __m256 h = _mm256_min_ps(_mm256_add_ps(ov, ev), hiv);
    const __m256 v = _mm256_loadu_ps(c + i);
    _mm256_storeu_ps(c + i, _mm256_min_ps(_mm256_max_ps(v, l), h));
  }
  for (; i < n; ++i) {
    // Not std::clamp: l > h when o is outside [lo, hi]. Operands as in maxps/minps.
    const float l = std::max(lo, o[i] - eps);
    const float h = std::min(hi, o[i] + eps);
    c[i] = std::min(h, std::max(l, c[i]));
  }
}

// ---- reductions -------------------------------------------------------------
// Lane spec (see dispatch.hpp): doubles accumulate in 4 lanes, element i
// lands in lane i%4, combined (l0+l1)+(l2+l3); floats use 8 lanes folded
// pairwise. The tails below keep the same lane assignment so the result is
// bitwise-identical to the scalar table for every n.

inline double combine4(__m256d acc) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  return (l[0] + l[1]) + (l[2] + l[3]);
}

inline double combine4_tail(__m256d acc, const double* tail_contrib) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  for (int j = 0; j < 4; ++j) l[j] += tail_contrib[j];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

double sum(const float* a, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(a + i)));
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) tail[i & 3] += static_cast<double>(a[i]);
  return combine4_tail(acc, tail);
}

float sum_f32(const float* a, std::int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) lanes[i & 7] += a[i];
  float f4[4], f2[2];
  for (int j = 0; j < 4; ++j) f4[j] = lanes[j] + lanes[j + 4];
  for (int j = 0; j < 2; ++j) f2[j] = f4[j] + f4[j + 2];
  return f2[0] + f2[1];
}

double dot(const float* a, const float* b, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d bv = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    // mul_pd of two float-valued doubles is exact, matching the scalar
    // table's (double)a * (double)b.
    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) {
    tail[i & 3] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return combine4_tail(acc, tail);
}

double squared_distance(const float* a, const float* b, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                    _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    tail[i & 3] += d * d;
  }
  return combine4_tail(acc, tail);
}

// max/min/max_abs are order-independent (the result is *the* extremal
// value), so fold order does not matter for finite inputs.

inline float hmax(__m256 acc) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x1));
  return _mm_cvtss_f32(m);
}

inline float hmin(__m256 acc) {
  __m128 m = _mm_min_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  m = _mm_min_ps(m, _mm_movehl_ps(m, m));
  m = _mm_min_ss(m, _mm_shuffle_ps(m, m, 0x1));
  return _mm_cvtss_f32(m);
}

const __m256 kAbsMask =
    _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));

float max(const float* a, std::int64_t n) {
  float m = a[0];
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 acc = _mm256_loadu_ps(a);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_loadu_ps(a + i));
    }
    m = hmax(acc);
  }
  for (; i < n; ++i) m = std::max(m, a[i]);
  return m;
}

float min(const float* a, std::int64_t n) {
  float m = a[0];
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 acc = _mm256_loadu_ps(a);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm256_min_ps(acc, _mm256_loadu_ps(a + i));
    }
    m = hmin(acc);
  }
  for (; i < n; ++i) m = std::min(m, a[i]);
  return m;
}

float max_abs(const float* a, std::int64_t n) {
  float m = 0.0f;
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 acc = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_and_ps(_mm256_loadu_ps(a + i), kAbsMask));
    }
    m = hmax(acc);
  }
  for (; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

float max_abs_diff(const float* a, const float* b, std::int64_t n) {
  float m = 0.0f;
  std::int64_t i = 0;
  if (n >= 8) {
    __m256 acc = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      const __m256 d =
          _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      acc = _mm256_max_ps(acc, _mm256_and_ps(d, kAbsMask));
    }
    m = hmax(acc);
  }
  for (; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
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
const Kernels* avx2_kernels() { return &kTable; }
}  // namespace detail

}  // namespace taamr::simd

#else  // toolchain without AVX2: dispatch stays on the scalar table

namespace taamr::simd::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace taamr::simd::detail

#endif
