// The metrics a run reports, and the result object every workload fills.
//
// The declarations below are the benchmark's contract with BENCHMARK.json:
// an untraced run reports exactly the end-to-end metrics and a traced run
// exactly the per-layer metrics, for every workload (tests/test_bench.cpp
// checks both lists against the file).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace taamr::bench {

struct MetricDecl {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
};

const std::vector<MetricDecl>& end_to_end_metrics();
const std::vector<MetricDecl>& per_layer_metrics();

// Layer names of the pipeline's CNN as they appear in the nn.* metric names
// ("<index>_<kind>"); the nn probe derives them from the live network.
const std::vector<std::string>& cnn_layer_tags();

class Result {
 public:
  // Records a metric value; the name must be declared. A non-finite value
  // fails a check and is stored as 0.
  void set(const std::string& name, double value);

  // Records a correctness check; a false `ok` makes the run incorrect and
  // the message is printed.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // "name value unit" lines for `decls`, in declaration order. Throws
  // std::logic_error naming any declared metric the run did not set, or any
  // set metric outside `decls`.
  std::string metric_lines(const std::vector<MetricDecl>& decls) const;
  // The one-line JSON object: correct, attempted, failed and metrics.
  std::string json(const std::vector<MetricDecl>& decls) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

}  // namespace taamr::bench
