// Regenerates Table I: dataset statistics of Amazon Men / Amazon Women,
// with the paper's published numbers side-by-side.
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "data/categories.hpp"

int main() {
  using namespace taamr;
  bench::Reporter reporter("table1_dataset_stats");
  const double scale = core::env_scale();

  std::vector<core::DatasetResults> stats;
  for (const std::string name : {"Amazon Men", "Amazon Women"}) {
    const auto ds = data::generate_synthetic_dataset(data::spec_by_name(name, scale));
    core::DatasetResults r;
    r.dataset = ds.name;
    r.scale = scale;
    r.stats = data::compute_stats(ds);
    reporter.add_metric("num_users", {{"dataset", ds.name}},
                        static_cast<double>(r.stats.num_users));
    reporter.add_metric("num_items", {{"dataset", ds.name}},
                        static_cast<double>(r.stats.num_items));
    reporter.add_metric("num_feedback", {{"dataset", ds.name}},
                        static_cast<double>(r.stats.num_feedback));
    reporter.add_examples(static_cast<double>(r.stats.num_items));
    stats.push_back(std::move(r));
  }

  core::table1_dataset_stats(stats).print(std::cout);

  // Supplementary: per-category composition (documents the popularity skew
  // that defines the attack scenarios).
  for (const auto& r : stats) {
    Table t("Category composition -- " + r.dataset);
    t.header({"Category", "items", "train feedback"});
    for (std::int32_t c = 0; c < data::num_categories(); ++c) {
      t.row({data::category_name(c),
             Table::count(r.stats.items_per_category[static_cast<std::size_t>(c)]),
             Table::count(r.stats.feedback_per_category[static_cast<std::size_t>(c)])});
    }
    std::cout << "\n";
    t.print(std::cout);
  }
  return 0;
}
