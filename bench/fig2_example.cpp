// Regenerates Fig. 2: a concrete product image before/after a PGD (eps=8)
// attack against VBPR — classifier probability and recommendation position
// of the same item in both states.
#include <filesystem>
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "util/ppm.hpp"

namespace {

// Writes the showcased item's clean and attacked images, the ones the
// printed numbers were measured on, to PPM files (under artifacts/, kept
// out of the repo root and of git) so the figure can actually be looked at.
void export_images(const taamr::core::Fig2Example& fig2, const std::string& tag) {
  using namespace taamr;
  if (fig2.item < 0) return;
  std::filesystem::create_directories("artifacts");
  const std::string stem = "artifacts/fig2_" + tag;
  write_ppm(stem + "_original.ppm", fig2.clean, /*upscale=*/8);
  write_ppm(stem + "_attacked.ppm", fig2.attacked, /*upscale=*/8);
  std::cout << "  wrote " << stem << "_original.ppm / _attacked.ppm (8x upscale)\n";
}

}  // namespace

int main() {
  using namespace taamr;
  bench::Reporter reporter("fig2_example");
  for (const std::string dataset : {"Amazon Men", "Amazon Women"}) {
    const auto results = bench::results_for(dataset);
    const obs::Labels ds = {{"dataset", results.dataset}};
    reporter.add_metric("fig2_source_prob_before", ds,
                        results.fig2.source_prob_before);
    reporter.add_metric("fig2_target_prob_after", ds,
                        results.fig2.target_prob_after);
    reporter.add_metric("fig2_median_rank_before", ds,
                        results.fig2.median_rank_before);
    reporter.add_metric("fig2_median_rank_after", ds,
                        results.fig2.median_rank_after);
    reporter.add_examples(1.0);
    std::cout << core::fig2_text(results);
    export_images(results.fig2, dataset == "Amazon Men" ? "men" : "women");
    std::cout << "\n";
  }
  return 0;
}
