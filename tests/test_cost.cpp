#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "tensor/cost.hpp"
#include "tensor/simd/dispatch.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace taamr {
namespace {

// cost state is process-global; enable once and assert on deltas so tests
// stay order-independent.

cost::KernelTotals delta(cost::Kernel k, const cost::KernelTotals& before) {
  const cost::KernelTotals now = cost::totals(k);
  return {now.flops - before.flops, now.bytes - before.bytes};
}

TEST(Cost, EnableLatchesOn) {
  cost::enable();
  EXPECT_TRUE(cost::enabled());
}

TEST(Cost, MatmulBooksNominalGemmFlops) {
  cost::enable();
  const auto before = cost::totals(cost::Kernel::kGemm);
  const std::int64_t m = 7, k = 5, n = 3;
  Tensor a({m, k}, 1.0f), b({k, n}, 2.0f);
  Tensor c = ops::matmul(a, b);
  const auto d = delta(cost::Kernel::kGemm, before);
  EXPECT_DOUBLE_EQ(d.flops, static_cast<double>(2 * m * k * n));
  EXPECT_DOUBLE_EQ(d.bytes, static_cast<double>(4 * (m * k + k * n + 2 * m * n)));
}

TEST(Cost, ElementwiseAndReductionBookWork) {
  cost::enable();
  const auto ew_before = cost::totals(cost::Kernel::kElementwise);
  const auto red_before = cost::totals(cost::Kernel::kReduction);
  Tensor a({4, 4}, 1.0f), b({4, 4}, 2.0f);
  ops::add_inplace(a, b);
  const auto ew = delta(cost::Kernel::kElementwise, ew_before);
  EXPECT_DOUBLE_EQ(ew.flops, 16.0);
  (void)ops::sum(a);
  const auto red = delta(cost::Kernel::kReduction, red_before);
  EXPECT_DOUBLE_EQ(red.flops, 16.0);
  EXPECT_DOUBLE_EQ(red.bytes, 64.0);
}

TEST(Cost, CountersLandInMetricsRegistry) {
  cost::enable();
  Tensor a({2, 2}, 1.0f), b({2, 2}, 1.0f);
  Tensor c = ops::matmul(a, b);
  // The gemm family carries a simd_variant label recording which kernel
  // variant this process dispatched to. totals() reads these two counters.
  const obs::Labels gemm = {{"kernel", "gemm"},
                            {"simd_variant", simd::active_variant_name()}};
  auto& reg = obs::MetricsRegistry::global();
  const double flops = reg.counter("tensor_kernel_flops_total", gemm).value();
  const double bytes = reg.counter("tensor_kernel_bytes_total", gemm).value();
  EXPECT_GT(flops, 0.0);
  EXPECT_GT(bytes, 0.0);
  EXPECT_DOUBLE_EQ(cost::totals(cost::Kernel::kGemm).flops, flops);
  EXPECT_DOUBLE_EQ(cost::totals(cost::Kernel::kGemm).bytes, bytes);
}

TEST(Cost, TensorAllocationTracking) {
  cost::enable();
  const std::int64_t before = cost::tensor_bytes_in_use();
  {
    Tensor t({256, 256}, 0.0f);  // 256 KiB
    EXPECT_GE(cost::tensor_bytes_in_use() - before, 256 * 256 * 4);
    EXPECT_GE(cost::tensor_bytes_high_water(),
              cost::tensor_bytes_in_use());
  }
  // Destructor returned the buffer to the books.
  EXPECT_LE(cost::tensor_bytes_in_use() - before, 0);
}

TEST(Cost, HighWaterIsMonotonic) {
  cost::enable();
  const std::int64_t hw_before = cost::tensor_bytes_high_water();
  { Tensor big({512, 512}, 0.0f); }
  const std::int64_t hw_after = cost::tensor_bytes_high_water();
  EXPECT_GE(hw_after, hw_before);
  { Tensor small({2, 2}, 0.0f); }
  EXPECT_GE(cost::tensor_bytes_high_water(), hw_after);
}

TEST(Cost, CopyAndMoveKeepBooksBalanced) {
  cost::enable();
  const std::int64_t before = cost::tensor_bytes_in_use();
  {
    Tensor a({64, 64}, 1.0f);
    Tensor b = a;             // copy: +1 buffer
    Tensor c = std::move(a);  // move: buffer transfers, no net change
    b = std::move(c);         // move-assign frees b's old buffer
    EXPECT_GE(cost::tensor_bytes_in_use() - before, 64 * 64 * 4);
  }
  EXPECT_LE(cost::tensor_bytes_in_use() - before, 0);
}

TEST(Cost, KernelNamesAreStable) {
  EXPECT_STREQ(cost::kernel_name(cost::Kernel::kGemm), "gemm");
  EXPECT_STREQ(cost::kernel_name(cost::Kernel::kIm2col), "im2col");
  EXPECT_STREQ(cost::kernel_name(cost::Kernel::kElementwise), "elementwise");
  EXPECT_STREQ(cost::kernel_name(cost::Kernel::kReduction), "reduction");
  EXPECT_STREQ(cost::kernel_name(cost::Kernel::kRecsysScore), "recsys_score");
}

}  // namespace
}  // namespace taamr
