// Kernel cost accounting: nominal FLOPs and bytes moved per kernel family
// (GEMM, im2col conv lowering, elementwise, reductions, recommender
// scoring), plus tensor-allocator byte tracking (bytes in use and the
// process-lifetime high-water mark).
//
// Kernel counts accumulate into the obs::metrics registry under the labeled
// families
//
//   tensor_kernel_flops_total{kernel=<family>}
//   tensor_kernel_bytes_total{kernel=<family>}
//
// which totals() reads, so the bench reporter can derive GFLOP/s from wall
// time. Allocator bytes live in plain atomics, read through
// tensor_bytes_in_use() / tensor_bytes_high_water(). Accounting is off until
// cost::enable() (the bench reporter and the benchmark call it, so
// BENCH_*.json always has real counts). When disabled every hook is a
// single relaxed atomic load, so unaccounted runs are unchanged.
//
// Counts are *nominal*: GEMM books 2*m*k*n FLOPs even though the kernel
// skips zero multiplicands, and tensor byte tracking sees only the Tensor
// constructor/destructor/assignment sites (capacity changes through
// storage() are invisible). That is the right trade for a perf trajectory:
// the same run always books the same work.
#pragma once

#include <atomic>
#include <cstdint>

namespace taamr::cost {

enum class Kernel : int {
  kGemm = 0,      // matmul / matmul_accumulate / matvec
  kIm2col,        // im2col + col2im data movement (zero FLOPs)
  kElementwise,   // add/sub/mul/scale/axpy/clamp/sign/apply
  kReduction,     // sum/dot/norms/distances/argmax/softmax
  kRecsysScore,   // per-score work of Recommender::score_users outside GEMMs
  kCount,
};

const char* kernel_name(Kernel k);

namespace detail {
extern std::atomic<bool> g_state;
void add_slow(Kernel k, double flops, double bytes);
void track_alloc_slow(std::int64_t bytes);
void track_free_slow(std::int64_t bytes);
}  // namespace detail

// True once enable() has run.
inline bool enabled() { return detail::g_state.load(std::memory_order_relaxed); }

// Force accounting on for the rest of the process (bench reporter, tests).
void enable();

// Books one kernel launch. flops/bytes are the nominal totals for the
// whole launch, not per element.
inline void add(Kernel k, double flops, double bytes) {
  if (!enabled()) return;
  detail::add_slow(k, flops, bytes);
}

// Tensor-allocator accounting, called from Tensor's lifecycle hooks.
inline void track_alloc(std::int64_t bytes) {
  if (bytes == 0 || !enabled()) return;
  detail::track_alloc_slow(bytes);
}
inline void track_free(std::int64_t bytes) {
  if (bytes == 0 || !enabled()) return;
  detail::track_free_slow(bytes);
}

struct KernelTotals {
  double flops = 0.0;
  double bytes = 0.0;
};

// Current totals for one family / summed over all families. Weakly
// consistent, like every metrics read.
KernelTotals totals(Kernel k);
KernelTotals totals();

// Tensor bytes currently allocated (clamped at 0: tensors allocated before
// accounting was enabled free "untracked" bytes) and the high-water mark.
std::int64_t tensor_bytes_in_use();
std::int64_t tensor_bytes_high_water();

}  // namespace taamr::cost
