// Pins the SIMD kernel layer's dispatch rules and the scalar-vs-AVX2
// tolerance contract documented in tensor/simd/dispatch.hpp: elementwise
// kernels and reductions must agree bitwise across variants, GEMM within an
// epsilon, and within one variant GEMM must be bitwise-stable under any row
// partitioning. AVX2 cases skip on hosts (or builds) without AVX2+FMA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/simd/dispatch.hpp"
#include "util/rng.hpp"

namespace taamr {
namespace {

std::vector<float> random_vec(std::int64_t n, Rng& rng, float lo = -1.0f,
                              float hi = 1.0f) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.uniform_f(lo, hi);
  return v;
}

const simd::Kernels& scalar() {
  return *simd::kernels_for(simd::Variant::kScalar);
}

// Fetches the AVX2 table or skips the test on hosts/builds without it.
#define REQUIRE_AVX2_OR_SKIP(avx2_var)                              \
  if (!simd::avx2_supported()) {                                    \
    GTEST_SKIP() << "AVX2+FMA unavailable on this host or build";   \
  }                                                                 \
  const simd::Kernels& avx2_var = *simd::kernels_for(simd::Variant::kAvx2)

TEST(SimdDispatch, ResolveVariantPinsTheRules) {
  using simd::Variant;
  // Unset: probe decides.
  EXPECT_EQ(simd::resolve_variant(nullptr, true), Variant::kAvx2);
  EXPECT_EQ(simd::resolve_variant(nullptr, false), Variant::kScalar);
  EXPECT_EQ(simd::resolve_variant("auto", true), Variant::kAvx2);
  EXPECT_EQ(simd::resolve_variant("auto", false), Variant::kScalar);
  // Forced off always wins.
  EXPECT_EQ(simd::resolve_variant("off", true), Variant::kScalar);
  EXPECT_EQ(simd::resolve_variant("scalar", true), Variant::kScalar);
  // Requested AVX2 degrades gracefully when unavailable.
  EXPECT_EQ(simd::resolve_variant("avx2", true), Variant::kAvx2);
  EXPECT_EQ(simd::resolve_variant("avx2", false), Variant::kScalar);
  // Unknown values warn and fall back to the probe.
  EXPECT_EQ(simd::resolve_variant("bogus", true), Variant::kAvx2);
  EXPECT_EQ(simd::resolve_variant("bogus", false), Variant::kScalar);
}

TEST(SimdDispatch, TablesAndNames) {
  ASSERT_NE(simd::kernels_for(simd::Variant::kScalar), nullptr);
  EXPECT_STREQ(simd::variant_name(simd::Variant::kScalar), "scalar");
  EXPECT_STREQ(simd::variant_name(simd::Variant::kAvx2), "avx2");
  // The active table is one of the two variant tables.
  EXPECT_EQ(&simd::active(), simd::kernels_for(simd::active_variant()));
  EXPECT_STREQ(simd::active_variant_name(),
               simd::variant_name(simd::active_variant()));
  if (simd::avx2_supported()) {
    EXPECT_NE(simd::kernels_for(simd::Variant::kAvx2), nullptr);
  }
}

TEST(SimdParity, GemmWithinEpsilonAcrossRemainderShapes) {
  REQUIRE_AVX2_OR_SKIP(avx2);
  Rng rng(42);
  // Shapes straddle every microkernel edge: m covers the 6-row tile and its
  // 1..5-row remainders, n covers the 16/8-wide paths and masked tails, k
  // covers the blocked and remainder k-loops.
  for (std::int64_t m : {1, 5, 6, 7, 64, 67}) {
    for (std::int64_t n : {1, 8, 16, 17, 33}) {
      for (std::int64_t k : {1, 3, 64, 65}) {
        const auto a = random_vec(m * k, rng);
        const auto b = random_vec(k * n, rng);
        std::vector<float> c_s(static_cast<std::size_t>(m * n), 0.0f);
        std::vector<float> c_v(static_cast<std::size_t>(m * n), 0.0f);
        scalar().gemm_panel(c_s.data(), a.data(), b.data(), 0, m, k, n);
        avx2.gemm_panel(c_v.data(), a.data(), b.data(), 0, m, k, n);
        for (std::int64_t i = 0; i < m * n; ++i) {
          EXPECT_NEAR(c_s[static_cast<std::size_t>(i)],
                      c_v[static_cast<std::size_t>(i)], 1e-4f)
              << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdParity, GemmRowPartitionIsBitwiseStablePerVariant) {
  // Rows accumulate independently, so computing [0, m) as one panel or as
  // arbitrary sub-panels must be bitwise-identical — this is what preserves
  // the serial-vs-pooled memcmp identity in ops::gemm_nn_blocked.
  Rng rng(43);
  const std::int64_t m = 13, k = 37, n = 29;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  for (simd::Variant v : {simd::Variant::kScalar, simd::Variant::kAvx2}) {
    const simd::Kernels* kern = simd::kernels_for(v);
    if (kern == nullptr || (v == simd::Variant::kAvx2 && !simd::avx2_supported())) {
      continue;
    }
    std::vector<float> whole(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> split(static_cast<std::size_t>(m * n), 0.0f);
    kern->gemm_panel(whole.data(), a.data(), b.data(), 0, m, k, n);
    kern->gemm_panel(split.data(), a.data(), b.data(), 0, 4, k, n);
    kern->gemm_panel(split.data(), a.data(), b.data(), 4, 11, k, n);
    kern->gemm_panel(split.data(), a.data(), b.data(), 11, m, k, n);
    EXPECT_EQ(std::memcmp(whole.data(), split.data(),
                          whole.size() * sizeof(float)),
              0)
        << simd::variant_name(v);
  }
}

TEST(SimdParity, ElementwiseKernelsAreBitwiseIdentical) {
  REQUIRE_AVX2_OR_SKIP(avx2);
  Rng rng(44);
  // Sizes cover full 8-lane blocks, tails, and the tiny-n path.
  for (std::int64_t n : {1, 7, 8, 9, 64, 1000, 1003}) {
    const auto base = random_vec(n, rng, -2.0f, 2.0f);
    const auto other = random_vec(n, rng, -2.0f, 2.0f);
    const float s = rng.uniform_f(-1.5f, 1.5f);

    const auto check = [&](const char* what, auto&& apply) {
      auto lhs = base;
      auto rhs = base;
      apply(scalar(), lhs);
      apply(avx2, rhs);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(lhs[static_cast<std::size_t>(i)],
                  rhs[static_cast<std::size_t>(i)])
            << what << " n=" << n << " i=" << i;
      }
    };
    using K = simd::Kernels;
    check("add", [&](const K& k, std::vector<float>& a) { k.add(a.data(), other.data(), n); });
    check("sub", [&](const K& k, std::vector<float>& a) { k.sub(a.data(), other.data(), n); });
    check("mul", [&](const K& k, std::vector<float>& a) { k.mul(a.data(), other.data(), n); });
    check("scale", [&](const K& k, std::vector<float>& a) { k.scale(a.data(), s, n); });
    check("add_scalar", [&](const K& k, std::vector<float>& a) { k.add_scalar(a.data(), s, n); });
    check("axpy", [&](const K& k, std::vector<float>& a) { k.axpy(a.data(), s, other.data(), n); });
    check("clamp", [&](const K& k, std::vector<float>& a) { k.clamp(a.data(), -0.5f, 0.75f, n); });
    check("sign", [&](const K& k, std::vector<float>& a) { k.sign(a.data(), n); });
    check("project_linf", [&](const K& k, std::vector<float>& a) {
      k.project_linf(a.data(), other.data(), 0.3f, 0.0f, 1.0f, n);
    });
  }
}

TEST(SimdParity, SignHandlesZeroExactly) {
  REQUIRE_AVX2_OR_SKIP(avx2);
  std::vector<float> v = {-3.5f, -0.0f, 0.0f, 2.0f, -1e-30f, 1e-30f, 7.0f, 0.0f, -2.0f};
  auto s = v, a = v;
  const std::int64_t n = static_cast<std::int64_t>(v.size());
  scalar().sign(s.data(), n);
  avx2.sign(a.data(), n);
  const std::vector<float> expect = {-1.0f, 0.0f, 0.0f, 1.0f, -1.0f,
                                     1.0f,  1.0f, 0.0f, -1.0f};
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(s[i], expect[i]) << i;
    EXPECT_EQ(a[i], expect[i]) << i;
  }
}

TEST(SimdParity, ProjectLinfWithOriginsOutsideTheBox) {
  // An origin below lo or above hi leaves an empty window (l > h): every
  // element lands on h = min(hi, o + eps). Eleven elements put three of
  // the outside origins in the AVX2 kernel's scalar tail; signed zeros sit
  // on the lo bound.
  const std::vector<float> origin = {-0.5f, 1.5f, 0.4f, -2.0f, 3.0f, -0.0f, 0.0f, 1.0f,
                                     -0.35f, 1.4f, 0.6f};
  const std::vector<float> start = {0.2f, 0.9f, 0.95f, -0.1f, 1.2f, 0.0f, -0.0f, 0.5f,
                                    0.7f, -3.0f, 0.1f};
  constexpr float kEps = 0.3f, kLo = 0.0f, kHi = 1.0f;
  const std::int64_t n = static_cast<std::int64_t>(origin.size());
  const auto project = [&](const simd::Kernels& k) {
    std::vector<float> c = start;
    k.project_linf(c.data(), origin.data(), kEps, kLo, kHi, n);
    return c;
  };
  const std::vector<float> s = project(scalar());
  for (std::size_t i = 0; i < origin.size(); ++i) {
    const float l = std::max(kLo, origin[i] - kEps);
    const float h = std::min(kHi, origin[i] + kEps);
    if (l > h) {
      EXPECT_EQ(s[i], h) << i;
    }
  }
  REQUIRE_AVX2_OR_SKIP(avx2);
  const std::vector<float> a = project(avx2);
  EXPECT_EQ(std::memcmp(s.data(), a.data(), s.size() * sizeof(float)), 0);
}

TEST(SimdParity, ReductionsAreBitwiseIdentical) {
  REQUIRE_AVX2_OR_SKIP(avx2);
  Rng rng(45);
  for (std::int64_t n : {1, 3, 4, 5, 7, 8, 9, 31, 32, 1000, 1003}) {
    const auto a = random_vec(n, rng, -3.0f, 3.0f);
    const auto b = random_vec(n, rng, -3.0f, 3.0f);
    EXPECT_EQ(scalar().sum(a.data(), n), avx2.sum(a.data(), n)) << n;
    EXPECT_EQ(scalar().sum_f32(a.data(), n), avx2.sum_f32(a.data(), n)) << n;
    EXPECT_EQ(scalar().dot(a.data(), b.data(), n), avx2.dot(a.data(), b.data(), n)) << n;
    EXPECT_EQ(scalar().squared_distance(a.data(), b.data(), n),
              avx2.squared_distance(a.data(), b.data(), n))
        << n;
    EXPECT_EQ(scalar().max(a.data(), n), avx2.max(a.data(), n)) << n;
    EXPECT_EQ(scalar().min(a.data(), n), avx2.min(a.data(), n)) << n;
    EXPECT_EQ(scalar().max_abs(a.data(), n), avx2.max_abs(a.data(), n)) << n;
    EXPECT_EQ(scalar().max_abs_diff(a.data(), b.data(), n),
              avx2.max_abs_diff(a.data(), b.data(), n))
        << n;
  }
}

TEST(SimdParity, ReductionsMatchDoubleReferenceClosely) {
  // The lane-striped spec is not plain left-to-right summation; sanity-check
  // it against a double-precision reference so the spec itself stays honest.
  REQUIRE_AVX2_OR_SKIP(avx2);
  Rng rng(46);
  const std::int64_t n = 1003;
  const auto a = random_vec(n, rng, -1.0f, 1.0f);
  double ref = 0.0;
  for (std::int64_t i = 0; i < n; ++i) ref += static_cast<double>(a[static_cast<std::size_t>(i)]);
  EXPECT_NEAR(avx2.sum(a.data(), n), ref, 1e-9 * n);
}

}  // namespace
}  // namespace taamr
