// Shared setup for the per-table bench binaries: one experiment
// configuration (the reproduction's "evaluation settings") and a disk
// cache so that table2/3/4/fig2 all reuse a single expensive run.
//
// Environment knobs:
//   TAAMR_SCALE        dataset scale factor   (default data::kBenchScale)
//   TAAMR_CACHE_DIR    cache directory        (default ./taamr_cache)
//   TAAMR_SEED         master seed            (default 42)
//   TAAMR_TRACE        Chrome trace-event JSON path (chrome://tracing)
//   TAAMR_THREADS      global thread-pool size (default: hardware)
//   TAAMR_BENCH_DIR    directory for the BENCH_<name>.json artifact each
//                      bench binary writes via bench::Reporter (default ".")
//   TAAMR_PROFILE      sampling profiler (off|cpu|alloc|both); Reporter
//                      construction touches obs::Profiler::global() so a
//                      profiled bench covers the whole run and writes
//                      TAAMR_PROFILE_OUT-prefixed .folded artifacts at exit
//
// Malformed TAAMR_SCALE / TAAMR_SEED values are rejected with a warning
// and the default is used instead (util/env.hpp), never parsed as 0.
#pragma once

#include <cstdlib>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/procstat.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tensor/cost.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_name.hpp"
#include "util/thread_pool.hpp"

namespace taamr::bench {

inline double env_scale() {
  return env::get_positive_real("TAAMR_SCALE", data::kBenchScale);
}

inline std::string env_cache_dir() {
  if (const char* s = std::getenv("TAAMR_CACHE_DIR")) return s;
  return "taamr_cache";
}

inline std::uint64_t env_seed() {
  return static_cast<std::uint64_t>(env::get_int("TAAMR_SEED", 42, 0));
}

inline core::ExperimentConfig experiment_config(const std::string& dataset) {
  core::ExperimentConfig cfg;
  cfg.pipeline.dataset_name = dataset;
  cfg.pipeline.scale = env_scale();
  cfg.pipeline.seed = env_seed();
  cfg.pipeline.cache_dir = env_cache_dir();
  return cfg;
}

inline core::DatasetResults results_for(const std::string& dataset) {
  TAAMR_TRACE_SPAN("bench/results_for");
  return core::run_or_load_experiment(experiment_config(dataset), env_cache_dir());
}

inline std::string env_bench_dir() {
  if (const char* s = std::getenv("TAAMR_BENCH_DIR")) return s;
  return ".";
}

// Collects the run into a BENCH_<name>.json artifact (schema in
// obs/bench_report.hpp). Construct at the top of main; write() (or the
// destructor) snapshots wall time, the kernel cost counters, memory
// telemetry and whatever paper metrics the bench added, and writes
// $TAAMR_BENCH_DIR/BENCH_<name>.json. Construction force-enables kernel
// cost accounting so the artifact has real FLOP counts even when no
// telemetry env knob is set.
class Reporter {
 public:
  explicit Reporter(std::string name) {
    cost::enable();
    // Arm the sampling profiler (no-op unless TAAMR_PROFILE is set) and
    // name the driver thread so it roots its own flamegraph column.
    obs::Profiler::global();
    set_current_thread_name("bench-main");
    report_.name = std::move(name);
    report_.scale = env_scale();
    report_.seed = env_seed();
    report_.threads = static_cast<std::int64_t>(env_thread_count());
#ifdef TAAMR_GIT_SHA
    report_.git_sha = TAAMR_GIT_SHA;
#endif
#ifdef TAAMR_BUILD_TYPE
    report_.build_type = TAAMR_BUILD_TYPE;
#endif
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() {
    if (!written_) write();
  }

  // Bench-defined unit of completed work (grid cells, attacked items, ...).
  void add_examples(double n) { report_.examples += n; }

  void add_metric(std::string name, obs::Labels labels, double value) {
    report_.metrics.push_back({std::move(name), std::move(labels), value});
  }

  // Bench-specific config entry, emitted as an extra key of the artifact's
  // config object (e.g. serve_load's requested Zipf alpha).
  void add_config(std::string name, double value) {
    report_.extra_config.emplace_back(std::move(name), value);
  }

  // Finalizes counters and writes the artifact. Idempotent; returns the
  // path written.
  std::string write() {
    written_ = true;
    report_.wall_seconds = wall_.seconds();
    report_.flops_total = 0.0;
    report_.bytes_total = 0.0;
    report_.kernels.clear();
    for (int k = 0; k < static_cast<int>(cost::Kernel::kCount); ++k) {
      const auto kernel = static_cast<cost::Kernel>(k);
      const cost::KernelTotals t = cost::totals(kernel);
      if (t.flops == 0.0 && t.bytes == 0.0) continue;
      report_.kernels.push_back({cost::kernel_name(kernel), t.flops, t.bytes});
      report_.flops_total += t.flops;
      report_.bytes_total += t.bytes;
    }
    report_.peak_rss_bytes = obs::peak_rss_bytes();
    report_.tensor_high_water_bytes = cost::tensor_bytes_high_water();
    const std::string path = env_bench_dir() + "/BENCH_" + report_.name + ".json";
    report_.write_json_file(path);
    log_info() << "bench report: " << path << " (" << Table::fmt(report_.gflops(), 2)
               << " GFLOP/s over " << Table::fmt(report_.wall_seconds, 1) << "s)";
    return path;
  }

  obs::BenchReport& report() { return report_; }

 private:
  obs::BenchReport report_;
  Stopwatch wall_;
  bool written_ = false;
};

// Books a full experiment-grid result set into the report: one labeled
// entry per paper metric per grid cell, the per-dataset sanity metrics, and
// cells.size() examples.
inline void report_results(Reporter& reporter, const core::DatasetResults& r) {
  const obs::Labels ds = {{"dataset", r.dataset}};
  reporter.add_metric("classifier_accuracy", ds, r.classifier_accuracy);
  reporter.add_metric("auc", {{"dataset", r.dataset}, {"model", "VBPR"}}, r.vbpr_auc);
  reporter.add_metric("auc", {{"dataset", r.dataset}, {"model", "AMR"}}, r.amr_auc);
  reporter.add_metric("hr", {{"dataset", r.dataset}, {"model", "VBPR"}}, r.vbpr_hr);
  reporter.add_metric("hr", {{"dataset", r.dataset}, {"model", "AMR"}}, r.amr_hr);
  for (const core::CellResult& cell : r.cells) {
    obs::Labels labels = {{"dataset", r.dataset},
                          {"model", cell.model},
                          {"attack", cell.attack},
                          {"eps", Table::fmt(cell.eps_255, 0)},
                          {"scenario", cell.semantically_similar ? "similar"
                                                                 : "dissimilar"}};
    reporter.add_metric("chr_before_source", labels, cell.chr_before_source);
    reporter.add_metric("chr_after_source", labels, cell.chr_after_source);
    reporter.add_metric("success_rate", labels, cell.success_rate);
    reporter.add_metric("psnr", labels, cell.psnr);
    reporter.add_metric("ssim", labels, cell.ssim);
    reporter.add_metric("psm", labels, cell.psm);
  }
  reporter.add_examples(static_cast<double>(r.cells.size()));
}

}  // namespace taamr::bench
