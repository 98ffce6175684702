// taamr_bench: the repository benchmark.
//
//   taamr_bench --workload <name>|all --seed <n> [--seconds <s>] [--trace 0|1]
//               [--trace-file <path>] [--smoke]
//
// Workloads: pipeline_cold, attack_grid, serve_hot_swap, serve_cold_scan.
// An untraced run (--trace 0, the default) prints every end-to-end metric as
// "name value unit"; a traced run (--trace 1) prints every per-layer metric
// and writes the run's spans as Chrome trace-event JSON (default
// bench-out/<workload>.trace.json). The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// when every correctness check passed, 1 when one failed, and 2 when the run
// could not complete (no JSON line then). `--workload all` runs each
// workload in a child process of its own and exits with the worst code.
//
// Working files live under bench-out/ in the working directory; each run's
// own directory is removed when it ends.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include <unistd.h>

#include "server_process.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using namespace taamr;
using namespace taamr::bench;

const std::map<std::string, std::function<Result(const RunOptions&)>>& workloads() {
  static const std::map<std::string, std::function<Result(const RunOptions&)>> table = {
      {"pipeline_cold", run_pipeline_cold},
      {"attack_grid", run_attack_grid},
      {"serve_hot_swap", run_serve_hot_swap},
      {"serve_cold_scan", run_serve_cold_scan},
  };
  return table;
}

// Removes a directory tree when the run ends, however it ends.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  RunOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.smoke = args.get_bool("smoke", false);

  if (args.has("train-checkpoint")) {
    return train_checkpoint(args.get("train-checkpoint"), options.seed, options.smoke);
  }

  const std::string workload = args.get("workload");
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_bool("trace", false);
  const std::string trace_file = args.get("trace-file", "");
  for (const std::string& flag : args.unused()) {
    std::cerr << "taamr_bench: unknown flag --" << flag << "\n";
    return 2;
  }
  if (options.seconds <= 0.0) {
    std::cerr << "taamr_bench: --seconds must be positive\n";
    return 2;
  }
  options.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  if (workload == "all") {
    // One process per workload, so each one's peak RSS and thread pool are
    // its own. Exits with the worst child's code.
    int worst = 0;
    for (const auto& [name, fn] : workloads()) {
      std::vector<std::string> argv_child = {
          options.self_exe, "--workload", name, "--seed", std::to_string(options.seed),
          "--seconds", std::to_string(options.seconds), "--trace", options.trace ? "1" : "0"};
      if (options.smoke) argv_child.push_back("--smoke");
      std::cout << std::flush;
      worst = std::max(worst, wait_process(spawn_process(argv_child, "")));
    }
    return worst;
  }
  if (workloads().count(workload) == 0) {
    std::cerr << "taamr_bench: unknown workload '" << workload << "'\n";
    return 2;
  }

  RunDir run_dir("bench-out/run-" + std::to_string(::getpid()) + "-" + workload);
  options.work_dir = run_dir.path();
  options.trace_file = trace_file.empty() ? "bench-out/" + workload + ".trace.json" : trace_file;
  std::cout << "== " << workload << " (seed " << options.seed << ", " << options.seconds << " s"
            << (options.trace ? ", traced" : "") << (options.smoke ? ", smoke" : "")
            << ")\nwarm-up " << warm_up_cpus() << " s\n";
  const Result r = workloads().at(workload)(options);
  const auto& decls = options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::cout << r.metric_lines(decls);
  if (options.trace) std::cout << "trace " << options.trace_file << "\n";
  std::cout << r.json(decls) << std::endl;
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fix_environment();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "taamr_bench: " << e.what() << "\n";
    return 2;
  }
}
