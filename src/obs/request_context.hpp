// Request-scoped tracing context for the serving path: a 64-bit request id
// plus a monotonic stage clock. The front-end (serve/protocol driver)
// constructs one per request line; the service marks stage boundaries as
// the request flows through parse / cache-lookup / score / serialize. publish() books every recorded stage into the labeled
// histogram serve_stage_seconds{stage=...}; debug_json() renders the same
// attribution for the optional "debug":true echo in recommend responses.
//
// Ids embed the pid in the high bits (pid << 32 | counter) so traces and
// audit records from concurrently running processes never collide.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace taamr::obs {

// Process-unique, monotonically increasing request id: (pid << 32) | seq.
std::uint64_t next_request_id();

class RequestContext {
 public:
  RequestContext();  // stamps id and the stage-clock origin

  std::uint64_t id() const { return id_; }
  std::uint64_t start_us() const { return start_us_; }

  // Closes the current stage: elapsed time since the previous mark (or
  // construction) is recorded under `stage`. Stage names must be string
  // literals (stored by pointer).
  void mark(const char* stage);
  // Books an externally measured duration without touching the stage clock.
  void add_stage(const char* stage, std::uint64_t dur_us);

  std::uint64_t total_us() const;
  const std::vector<std::pair<const char*, std::uint64_t>>& stages() const {
    return stages_;
  }

  // Observes serve_stage_seconds{stage=...} once per recorded stage.
  void publish() const;

  // {"request_id":"<id>","total_us":N,"stages":{"parse":12,...}} — the
  // payload echoed under "debug" when a recommend request asks for it.
  std::string debug_json() const;

 private:
  std::uint64_t id_;
  std::uint64_t start_us_;
  std::uint64_t last_us_;
  std::vector<std::pair<const char*, std::uint64_t>> stages_;
};

}  // namespace taamr::obs
