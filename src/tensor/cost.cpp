#include "tensor/cost.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "tensor/simd/dispatch.hpp"

namespace taamr::cost {

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kGemm:
      return "gemm";
    case Kernel::kIm2col:
      return "im2col";
    case Kernel::kElementwise:
      return "elementwise";
    case Kernel::kReduction:
      return "reduction";
    case Kernel::kRecsysScore:
      return "recsys_score";
    case Kernel::kCount:
      break;
  }
  return "unknown";
}

namespace detail {

std::atomic<bool> g_state{false};

namespace {

constexpr int kKernels = static_cast<int>(Kernel::kCount);

struct KernelCounters {
  obs::Counter* flops[kKernels] = {};
  obs::Counter* bytes[kKernels] = {};
  std::atomic<std::int64_t> in_use{0};
  std::atomic<std::int64_t> high_water{0};
};

// Leaked (like the other obs singletons): kernels may run from worker
// threads right up to static destruction.
KernelCounters& counters() {
  static KernelCounters* c = [] {
    auto* fresh = new KernelCounters;
    auto& reg = obs::MetricsRegistry::global();
    for (int k = 0; k < kKernels; ++k) {
      obs::Labels labels = {{"kernel", kernel_name(static_cast<Kernel>(k))}};
      if (static_cast<Kernel>(k) == Kernel::kGemm) {
        // The booked FLOPs are nominal and variant-independent; the label
        // records which kernel variant actually ran them this process.
        labels.emplace_back("simd_variant", simd::active_variant_name());
      }
      fresh->flops[k] = &reg.counter("tensor_kernel_flops_total", labels);
      fresh->bytes[k] = &reg.counter("tensor_kernel_bytes_total", labels);
    }
    return fresh;
  }();
  return *c;
}

}  // namespace

void add_slow(Kernel k, double flops, double bytes) {
  KernelCounters& c = counters();
  const int i = static_cast<int>(k);
  if (flops > 0.0) c.flops[i]->add(flops);
  if (bytes > 0.0) c.bytes[i]->add(bytes);
}

void track_alloc_slow(std::int64_t bytes) {
  KernelCounters& c = counters();
  const std::int64_t now =
      c.in_use.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t high = c.high_water.load(std::memory_order_relaxed);
  while (now > high &&
         !c.high_water.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
  }
}

void track_free_slow(std::int64_t bytes) {
  counters().in_use.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace detail

void enable() { detail::g_state.store(true, std::memory_order_relaxed); }

KernelTotals totals(Kernel k) {
  if (!enabled()) return {};
  auto& c = detail::counters();
  const int i = static_cast<int>(k);
  return {c.flops[i]->value(), c.bytes[i]->value()};
}

KernelTotals totals() {
  KernelTotals sum;
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
    const KernelTotals t = totals(static_cast<Kernel>(k));
    sum.flops += t.flops;
    sum.bytes += t.bytes;
  }
  return sum;
}

std::int64_t tensor_bytes_in_use() {
  if (!enabled()) return 0;
  return std::max<std::int64_t>(
      0, detail::counters().in_use.load(std::memory_order_relaxed));
}

std::int64_t tensor_bytes_high_water() {
  if (!enabled()) return 0;
  return detail::counters().high_water.load(std::memory_order_relaxed);
}

}  // namespace taamr::cost
