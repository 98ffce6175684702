// Open-loop load generation for the serving workloads.
//
// One generator thread drives a few pipelined TCP connections with epoll and
// sends each request when its seeded schedule says it is due, whether or not
// earlier requests have been answered. Latency is taken from the due time,
// so a server stall is charged to every request queued behind it, and the
// generator's own lateness (sent minus due) is recorded so a saturated
// generator shows up as such instead of as a slow server.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace taamr::bench {

// Every recommend asks for a top-10 list, 20% of them from bpr_mf and the
// rest from vbpr; the load rides 4 pipelined connections.
constexpr std::int64_t kTopN = 10;
constexpr double kBprShare = 0.2;
constexpr int kConnections = 4;

struct Traffic {
  double rate = 1000.0;        // recommend arrivals per second (Poisson)
  double seconds = 1.0;        // schedule length
  std::int64_t num_users = 1;
  bool zipf_users = true;      // Zipf(1.0) over user ids, else uniform
  double update_rate = 0.0;    // update_image pushes per second (Poisson)
  std::int64_t num_items = 1;  // update targets: Zipf(1.0) over item ids
};

enum class Op { kRecommend, kUpdate };

struct Planned {
  double due_s = 0.0;  // offset from the leg start
  Op op = Op::kRecommend;
  std::int64_t user = 0;         // recommend
  bool bpr = false;              // recommend: bpr_mf instead of vbpr
  std::int64_t item = 0;         // update
  std::uint64_t image_seed = 0;  // update
  int connection = 0;

  // The request's JSONL line (no trailing newline).
  std::string line() const;
};

// Deterministic in (traffic, seed). Recommends go round-robin over the
// connections; updates all ride connection 0 so their acks are ordered.
std::vector<Planned> make_schedule(const Traffic& traffic, std::uint64_t seed);

struct Outcome {
  double sent_s = -1.0;      // offset from the leg start; -1 = never sent
  double received_s = -1.0;  // -1 = no response
  std::string response;
};

struct LegRecord {
  std::vector<Planned> plan;
  std::vector<Outcome> outcomes;  // parallel to plan
  double grace_end_s = 0.0;       // last due time + grace
  double generator_cpu_s = 0.0;   // CPU time of the generator thread
  double wall_s = 0.0;            // leg start to last response
};

// Sends `plan` over connections to 127.0.0.1:port and collects every
// response. Requests unanswered at grace_end_s are still drained (up to
// drain_limit_s more) so the connections end clean; if they never arrive the
// leg throws. An update is held back while the previous update awaits its
// ack, so acks come back in send order.
LegRecord run_leg(int port, std::vector<Planned> plan, double grace_s = 1.0,
                  double drain_limit_s = 30.0);

// One blocking request/response round trip on a fresh connection.
std::string request_once(int port, const std::string& line, double timeout_s = 30.0);

// Capacity search: bisects [lo, hi] for the highest rate whose probe passes,
// retrying each failing probe once. `probe(rate)` returns true on a pass.
struct ProbeOutcome {
  double rate = 0.0;
  bool pass = false;
  bool retry = false;  // this probe repeated a failed one
};
struct CapacitySearch {
  double rate = 0.0;  // highest passing midpoint, or lo when none passed
  bool any_pass = false;
  bool all_pass = false;  // the bracket's top saturated; recalibrate
  std::vector<ProbeOutcome> probes;
};
CapacitySearch bisect_capacity(double lo, double hi, int halvings,
                               const std::function<bool(double rate)>& probe);

}  // namespace taamr::bench
