#include "obs/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace taamr::obs {

std::string expand_pid_path(std::string path) {
  return expand_pid_path(std::move(path), static_cast<long>(::getpid()));
}

std::string expand_pid_path(std::string path, long pid) {
  const std::string token = "%p";
  const std::string value = std::to_string(pid);
  std::size_t pos = 0;
  while ((pos = path.find(token, pos)) != std::string::npos) {
    path.replace(pos, token.size(), value);
    pos += value.size();
  }
  return path;
}

bool telemetry_enabled() {
  static const bool enabled = std::getenv("TAAMR_METRICS_OUT") != nullptr ||
                              std::getenv("TAAMR_TRACE") != nullptr;
  return enabled;
}

std::vector<double> exponential_bounds(double start, double factor, int count) {
  if (start <= 0.0 || factor <= 1.0 || count <= 0) {
    throw std::invalid_argument("exponential_bounds: need start>0, factor>1");
  }
  std::vector<double> bounds(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i, b *= factor) {
    bounds[static_cast<std::size_t>(i)] = b;
  }
  return bounds;
}

namespace {
// 1µs .. ~268s — wide enough for everything from a pool task to a full
// recommender training run.
std::vector<double> default_bounds() { return exponential_bounds(1e-6, 4.0, 15); }
}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) {
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets,
                       std::uint64_t count, double min, double max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double c = static_cast<double>(buckets[i]);
    if (c == 0.0) continue;
    if (cum + c >= rank) {
      // Bucket edges, tightened by the observed min/max so the open-ended
      // first and overflow buckets interpolate over real data.
      double lower = i == 0 ? min : bounds[i - 1];
      double upper = i < bounds.size() ? bounds[i] : max;
      lower = std::max(lower, min);
      upper = std::min(upper, max);
      if (upper <= lower) return std::clamp(lower, min, max);
      const double frac = (rank - cum) / c;
      return std::clamp(lower + (upper - lower) * frac, min, max);
    }
    cum += c;
  }
  return max;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  std::vector<std::uint64_t> snapshot(bounds_.size() + 1);
  for (std::size_t i = 0; i < snapshot.size(); ++i) snapshot[i] = bucket_count(i);
  return bucket_quantile(bounds_, snapshot, n, min(), max(), q);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry([] {
    const char* path = std::getenv("TAAMR_METRICS_OUT");
    return path != nullptr ? expand_pid_path(path) : std::string();
  }());
  return registry;
}

MetricsRegistry::~MetricsRegistry() {
  if (dump_path_.empty()) return;
  // No logging here: the Logger singleton may already be gone at static
  // destruction time.
  try {
    write_json_file(dump_path_);
  } catch (...) {
  }
}

std::string MetricsRegistry::key_of(std::string_view name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(key, Entry<Counter>{std::string(name), labels,
                                          std::make_unique<Counter>()})
             .first;
  }
  return *it->second.instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(key, Entry<Gauge>{std::string(name), labels,
                                        std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const Labels& labels,
                                      std::vector<double> bounds) {
  const std::string key = key_of(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = default_bounds();
    it = histograms_
             .emplace(key, Entry<Histogram>{std::string(name), labels,
                                            std::make_unique<Histogram>(
                                                std::move(bounds))})
             .first;
  }
  return *it->second.instrument;
}

namespace {

void append_labels(std::ostringstream& os, const Labels& labels) {
  os << "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << '"' << json::escape(k) << "\":\"" << json::escape(v) << '"';
  }
  os << '}';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n\"counters\":[";
  bool first = true;
  for (const auto& [key, e] : counters_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json::escape(e.name) << "\",";
    append_labels(os, e.labels);
    os << ",\"value\":" << json::number(e.instrument->value()) << '}';
  }
  os << "],\n\"gauges\":[";
  first = true;
  for (const auto& [key, e] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json::escape(e.name) << "\",";
    append_labels(os, e.labels);
    os << ",\"value\":" << json::number(e.instrument->value()) << '}';
  }
  os << "],\n\"histograms\":[";
  first = true;
  for (const auto& [key, e] : histograms_) {
    if (!first) os << ',';
    first = false;
    const Histogram& h = *e.instrument;
    os << "\n{\"name\":\"" << json::escape(e.name) << "\",";
    append_labels(os, e.labels);
    const std::uint64_t n = h.count();
    os << ",\"count\":" << n << ",\"sum\":" << json::number(h.sum());
    if (n > 0) {
      os << ",\"min\":" << json::number(h.min())
         << ",\"max\":" << json::number(h.max())
         << ",\"mean\":" << json::number(h.mean())
         << ",\"p50\":" << json::number(h.quantile(0.50))
         << ",\"p90\":" << json::number(h.quantile(0.90))
         << ",\"p99\":" << json::number(h.quantile(0.99));
    }
    os << ",\"buckets\":[";
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"le\":";
      if (i < h.bounds().size()) {
        os << json::number(h.bounds()[i]);
      } else {
        os << "\"+inf\"";
      }
      os << ",\"count\":" << h.bucket_count(i) << '}';
    }
    os << "]}";
  }
  os << "]\n}\n";
  return os.str();
}

namespace {

// Prometheus label values live inside double quotes and only need \\, \" and
// \n escaped (a stricter subset of JSON escaping).
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void prom_labels(std::ostringstream& os, const Labels& labels,
                 const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << prom_escape(v) << '"';
  }
  if (!extra.empty()) {
    if (!first) os << ',';
    os << extra;
  }
  os << '}';
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  std::string last_name;
  auto type_line = [&](const std::string& name, const char* type) {
    if (name == last_name) return;
    last_name = name;
    os << "# TYPE " << name << ' ' << type << '\n';
  };
  for (const auto& [key, e] : counters_) {
    type_line(e.name, "counter");
    os << e.name;
    prom_labels(os, e.labels);
    os << ' ' << json::number(e.instrument->value()) << '\n';
  }
  last_name.clear();
  for (const auto& [key, e] : gauges_) {
    type_line(e.name, "gauge");
    os << e.name;
    prom_labels(os, e.labels);
    os << ' ' << json::number(e.instrument->value()) << '\n';
  }
  last_name.clear();
  for (const auto& [key, e] : histograms_) {
    const Histogram& h = *e.instrument;
    type_line(e.name, "histogram");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      cum += h.bucket_count(i);
      const std::string le =
          i < h.bounds().size() ? json::number(h.bounds()[i]) : "+Inf";
      os << e.name << "_bucket";
      prom_labels(os, e.labels, "le=\"" + le + "\"");
      os << ' ' << cum << '\n';
    }
    os << e.name << "_sum";
    prom_labels(os, e.labels);
    os << ' ' << json::number(h.sum()) << '\n';
    os << e.name << "_count";
    prom_labels(os, e.labels);
    os << ' ' << h.count() << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("MetricsRegistry: cannot open " + path);
  }
  os << to_json();
}

}  // namespace taamr::obs
