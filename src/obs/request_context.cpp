#include "obs/request_context.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace taamr::obs {

std::uint64_t next_request_id() {
  static const std::uint64_t pid_bits = static_cast<std::uint64_t>(::getpid())
                                        << 32;
  static std::atomic<std::uint64_t> seq{0};
  return pid_bits | (seq.fetch_add(1, std::memory_order_relaxed) & 0xffffffffu);
}

RequestContext::RequestContext()
    : id_(next_request_id()), start_us_(monotonic_us()), last_us_(start_us_) {}

void RequestContext::mark(const char* stage) {
  const std::uint64_t now = monotonic_us();
  stages_.emplace_back(stage, now - last_us_);
  last_us_ = now;
}

void RequestContext::add_stage(const char* stage, std::uint64_t dur_us) {
  stages_.emplace_back(stage, dur_us);
}

std::uint64_t RequestContext::total_us() const {
  return monotonic_us() - start_us_;
}

namespace {
Histogram& stage_seconds(const char* stage) {
  return MetricsRegistry::global().histogram("serve_stage_seconds", {{"stage", stage}});
}
}  // namespace

void RequestContext::publish() const {
  // The serving path's four stages are resolved once, so publishing them
  // builds no label vector and takes no registry mutex.
  static constexpr const char* kStages[] = {"parse", "cache_lookup", "score", "serialize"};
  static Histogram* const kHistograms[] = {&stage_seconds(kStages[0]), &stage_seconds(kStages[1]),
                                           &stage_seconds(kStages[2]), &stage_seconds(kStages[3])};
  for (const auto& [stage, dur_us] : stages_) {
    std::size_t i = 0;
    while (i < std::size(kStages) && std::strcmp(stage, kStages[i]) != 0) ++i;
    Histogram& h = i < std::size(kStages) ? *kHistograms[i] : stage_seconds(stage);
    h.observe(static_cast<double>(dur_us) * 1e-6);
  }
}

std::string RequestContext::debug_json() const {
  std::ostringstream os;
  // The id is rendered as a string: 52-bit JSON doubles cannot hold
  // pid<<32|seq exactly for large pids.
  os << "{\"request_id\":\"" << id_ << "\",\"total_us\":" << total_us()
     << ",\"stages\":{";
  bool first = true;
  for (const auto& [stage, dur_us] : stages_) {
    if (!first) os << ',';
    first = false;
    os << '"' << stage << "\":" << dur_us;
  }
  os << "}}";
  return os.str();
}

}  // namespace taamr::obs
