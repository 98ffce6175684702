#include "result.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace taamr::bench {

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> decls = {
      {"setup_s", "s", "lower"},
      {"throughput_per_s", "1/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return decls;
}

const std::vector<std::string>& cnn_layer_tags() {
  static const std::vector<std::string> tags = {
      "0_conv2d",        "1_batchnorm2d",   "2_relu",
      "3_residualblock", "4_residualblock", "5_residualblock",
      "6_globalavgpool2d", "7_linear"};
  return tags;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> decls = [] {
    std::vector<MetricDecl> d = {
        {"core.prepare_s", "s", "lower"},
        {"core.prepare_cpu_util", "fraction", "higher"},
        {"core.unattributed_s", "s", "lower"},
    };
    for (const std::string& tag : cnn_layer_tags()) d.push_back({"nn.fwd_ms." + tag, "ms", "lower"});
    for (const std::string& tag : cnn_layer_tags()) d.push_back({"nn.bwd_ms." + tag, "ms", "lower"});
    const std::vector<MetricDecl> rest = {
        {"nn.extract_ms_per_image", "ms", "lower"},
        {"nn.update_extract_ms.p50", "ms", "lower"},
        {"tensor.gemm_gflop", "GFLOP", "lower"},
        {"tensor.gemm_gib", "GiB", "lower"},
        {"tensor.im2col_gib", "GiB", "lower"},
        {"tensor.elementwise_gib", "GiB", "lower"},
        {"tensor.high_water_mb", "MiB", "lower"},
        {"attack.fgsm_ms_per_image", "ms", "lower"},
        {"attack.pgd_ms_per_image", "ms", "lower"},
        {"recsys.train_vbpr_s", "s", "lower"},
        {"recsys.train_s", "s", "lower"},
        {"recsys.rank_s", "s", "lower"},
        {"recsys.rank_calls", "count", "lower"},
        {"metrics.visual_s", "s", "lower"},
        {"metrics.success_s", "s", "lower"},
        {"metrics.chr_s", "s", "lower"},
        {"serve.parse_us.p50", "us", "lower"},
        {"serve.format_us.p50", "us", "lower"},
        {"serve.recommend_hit_us.p50", "us", "lower"},
        {"serve.recommend_hit_us.p99", "us", "lower"},
        {"serve.recommend_miss_us.p50", "us", "lower"},
        {"serve.recommend_miss_us.p99", "us", "lower"},
        {"serve.update_ms.p50", "ms", "lower"},
        {"serve.update_ms.p99", "ms", "lower"},
        {"serve.front_door_us.p50", "us", "lower"},
        {"serve.cache_hit_rate", "fraction", "higher"},
        {"serve.coalesced_batches", "count", "higher"},
        {"serve.revalidated", "count", "higher"},
        {"serve.evictions", "count", "lower"},
        {"server.cpu_ms_per_kreq", "ms", "lower"},
        {"gen.lag_p99_ms", "ms", "lower"},
        {"gen.cpu_util", "fraction", "lower"},
        {"trace.overhead_pct", "%", "lower"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return decls;
}

namespace {
bool declared(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDecl& d : *list) {
      if (d.name == name) return true;
    }
  }
  return false;
}

// Every digit of the measured value.
std::string number_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Result::set(const std::string& name, double value) {
  if (!declared(name)) throw std::logic_error("undeclared metric " + name);
  check(std::isfinite(value), "metric " + name + " is not finite");
  values_[name] = std::isfinite(value) ? value : 0.0;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::cerr << "taamr_bench: CHECK FAILED: " << what << "\n";
}

std::string Result::metric_lines(const std::vector<MetricDecl>& decls) const {
  std::string out;
  std::size_t used = 0;
  for (const MetricDecl& d : decls) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) throw std::logic_error("run did not measure metric " + d.name);
    ++used;
    out += d.name + " " + number_text(it->second) + " " + d.unit + "\n";
  }
  if (used != values_.size()) {
    for (const auto& [name, value] : values_) {
      bool listed = false;
      for (const MetricDecl& d : decls) listed |= d.name == name;
      if (!listed) throw std::logic_error("metric " + name + " is not reported by this run kind");
    }
  }
  return out;
}

std::string Result::json(const std::vector<MetricDecl>& decls) const {
  metric_lines(decls);  // same completeness checks
  std::string out = std::string("{\"correct\": ") + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDecl& d : decls) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += obs::json::escape(d.name);
    out += "\": {\"value\": ";
    out += number_text(values_.at(d.name));
    out += ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace taamr::bench
