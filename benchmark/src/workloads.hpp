// The four benchmark workloads. Each returns a Result holding every
// end-to-end metric (untraced run) or every per-layer metric (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "result.hpp"
#include "spans.hpp"

namespace taamr::bench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   // length of the timed phase
  bool trace = false;      // per-layer run: untraced phase + traced replay
  bool smoke = false;      // tiny configuration for the ctest smoke run
  std::string trace_file;  // Chrome trace-event output of a traced run
  std::string work_dir;    // this run's own directory (caches, logs)
  std::string self_exe;    // this binary, for the checkpoint re-exec
};

Result run_pipeline_cold(const RunOptions& options);
Result run_attack_grid(const RunOptions& options);
Result run_serve_hot_swap(const RunOptions& options);
Result run_serve_cold_scan(const RunOptions& options);

// attack_grid's set-up, run in a child with TAAMR_THREADS=1: trains the CNN
// checkpoint into `cache_dir`. Returns the process exit code.
int train_checkpoint(const std::string& cache_dir, std::uint64_t seed, bool smoke);

// The pipeline workloads' view of the serving layers: the server binary
// over the workload's dataset under a short TCP leg, plus the same stack
// in-process. Sets the serve.*, server.*, gen.* and nn.update_extract_ms
// metrics; its spans go under a "probe/serve" root.
void serve_layer_probe(const std::string& dataset, double scale, const RunOptions& options,
                       Result& result, SpanRecorder* spans);

}  // namespace taamr::bench
