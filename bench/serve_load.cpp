// Closed-loop load generator for the sharded serving engine (src/serve/):
// builds the serving-scale synthetic dataset (data::amazon_serve_spec —
// TAAMR_SERVE_USERS over a compact TAAMR_SERVE_ITEMS hot catalog), trains
// VBPR + BPR-MF on random gaussian features, then drives Zipf-skewed user
// traffic over real TCP loopback connections through the epoll front door
// (serve/event_loop.hpp) into a ShardRouter, sweeping the shard count.
//
// Part 1 — shard sweep. For each S in TAAMR_SERVE_SHARD_SWEEP (default
// "1,2,4,8"): a fresh ModelRegistry + ShardRouter(S) + EventLoop,
// TAAMR_SERVE_CLIENTS closed-loop TCP clients each sending
// TAAMR_SERVE_REQUESTS newline-framed recommend requests with users drawn
// from a shared Zipf(1.0) sampler (rank = user id, the same rank law
// amazon_serve_spec uses for item popularity). A controller
// connection performs hot feature swaps at 25/50/75% of the load — pushed
// through the wire as update_features (floats survive the %.9g JSON
// round-trip exactly) — and verifies served lists for probe users spread
// across shards against a golden recompute of the swapped-in model: zero
// mismatches tolerated, mid-load, cross-shard. Shed responses
// ({"error":"overloaded"}) are counted and reported, never silently
// dropped; the leg fails if the drain-then-close shutdown times out.
// Per-leg metrics: serve_tcp_qps{shards=S}, serve_latency_p50/p99_ms
// {shards=S}, serve_shed{shards=S}, and the load generator's own CPU,
// serve_client_cpu_s{shards=S} (summed RUSAGE_THREAD of the client
// threads). The handler times every call in thread-CPU time per shard;
// serve_shard_capacity{shards=S} is the leg's requests over the busiest
// shard's CPU seconds, and serve_shard_speedup{shards=S} is that over the
// shards=1 leg's capacity. cmake/ServeShardGate.cmake pins the 4-shard
// speedup on hosts with enough cores (serve_hw_concurrency records what
// this host had). TCP qps cannot carry that judgment: the clients and the
// epoll thread share the host's cores with the shard workers.
//
// Part 2 — telemetry overhead (the serve_obs_gate and prof_overhead_gate
// consume these metrics). The load runs against a single-shard router with
// an identical request schedule in two kinds of phase:
//   off — telemetry off: tracing disabled, no request contexts, CPU
//         profiler stopped;
//   on  — telemetry on: per-request RequestContext, tracing re-enabled if
//         configured, audit trail if configured, CPU profiler sampling if
//         TAAMR_PROFILE asks for it.
// A phase replays every client's schedule back to back on the bench's own
// thread (no client threads to place or contend), with three verified hot
// swaps that are undone afterwards, so each phase does the same work from
// the same cache and feature state. The off/on pair runs kPhasePairs times,
// alternating which phase goes first. Host speed drifts on the scale of
// tens of milliseconds, so many short back-to-back pairs beat a few long
// ones. service_qps and service_qps_telemetry_off come from each kind's
// median phase, and serve_telemetry_overhead_pct is the median of the
// per-pair percentage differences, floored at 1% (the floor is recorded in
// the artifact's config as serve_telemetry_overhead_floor_pct) so the
// self-compare regression gate never sees huge *relative* drift between
// two tiny absolute overheads. serve_obs_gate holds it within 10% with
// tracing and audit on; prof_overhead_gate within 5% with the profiler on.
// Latency quantiles cover every telemetry-on phase; hit rate and
// revalidations cover every phase.
//
// Correctness is asserted inline in both parts, not just measured: every
// response is canonically ordered (score desc, id asc), free of the user's
// training items, consistent with its stamped epoch, and in request order
// on its connection (the event loop's reorder map).
//
// Knobs: TAAMR_SERVE_USERS (default 20000), TAAMR_SERVE_ITEMS (2048),
// TAAMR_SERVE_SHARD_SWEEP ("1,2,4,8"), TAAMR_SERVE_CLIENTS (4),
// TAAMR_SERVE_REQUESTS per client (300), plus TAAMR_SERVE_CACHE_CAP and
// TAAMR_SERVE_WORKERS, read by ServeConfig / EventLoopConfig ::from_env.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "obs/request_context.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"

namespace {

using namespace taamr;

// Off/on phase pairs behind the telemetry-overhead measurement.
constexpr int kPhasePairs = 100;
// VBPR and BPR-MF training epochs; the bench measures serving, not fit.
constexpr std::int64_t kTrainEpochs = 3;
// Zipf exponent of the user draw.
constexpr double kZipfAlpha = 1.0;
// serve_telemetry_overhead_pct never books less than this (recorded in the
// artifact's config as serve_telemetry_overhead_floor_pct).
constexpr double kOverheadFloorPct = 1.0;

void fail(const std::string& what) {
  std::cerr << "serve_load: FAIL: " << what << "\n";
  std::exit(1);
}

std::vector<std::int64_t> env_shard_sweep() {
  std::string s = "1,2,4,8";
  if (const char* e = std::getenv("TAAMR_SERVE_SHARD_SWEEP")) s = e;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    const std::optional<std::int64_t> v = env::parse_int(tok);
    if (!v || *v <= 0) fail("malformed TAAMR_SERVE_SHARD_SWEEP token '" + tok + "'");
    out.push_back(*v);
    pos = comma + 1;
  }
  return out;
}

// Golden top-n from the ranker for the same single-user tile the service's
// miss path ranks, so served lists must match bit-for-bit.
std::vector<recsys::ScoredItem> golden_topn(const data::ImplicitDataset& dataset,
                                            const recsys::Recommender& model,
                                            std::int64_t user, std::int64_t n) {
  const std::int64_t users[1] = {user};
  return recsys::rank_users(model, dataset, users, n).front();
}

// Canonical order + no training items: a torn or stale list trips one of
// these.
void check_served_list(const data::ImplicitDataset& dataset, std::int64_t user,
                       const std::vector<recsys::ScoredItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (dataset.user_interacted(user, items[i].item)) {
      fail("train item served to user " + std::to_string(user));
    }
    if (i > 0) {
      const auto& prev = items[i - 1];
      const auto& cur = items[i];
      if (cur.score > prev.score ||
          (cur.score == prev.score && cur.item <= prev.item)) {
        fail("non-canonical order for user " + std::to_string(user));
      }
    }
  }
}

// Blocking loopback client speaking the newline-framed protocol: one
// request line out, one response line back (responses on a connection
// arrive in request order — the event loop's ordering contract).
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("client socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      fail("client connect() failed");
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string request(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) fail("client send() failed");
      off += static_cast<std::size_t>(n);
    }
    return read_line();
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) fail("client recv() failed (timeout or peer close)");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
};

struct WireRec {
  bool overloaded = false;
  std::int64_t user = -1;
  std::uint64_t feature_epoch = 0;
  std::vector<recsys::ScoredItem> items;
};

WireRec parse_wire_response(const std::string& text) {
  WireRec rec;
  obs::json::Value root;
  try {
    root = obs::json::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("malformed response JSON: ") + e.what() + ": " + text);
  }
  const obs::json::Value* ok = root.find("ok");
  if (ok == nullptr) fail("response missing \"ok\": " + text);
  if (!ok->boolean) {
    const obs::json::Value* err = root.find("error");
    if (err != nullptr && err->str == "overloaded") {
      rec.overloaded = true;
      return rec;
    }
    fail("request failed: " + text);
  }
  rec.user = static_cast<std::int64_t>(root.find("user")->num);
  rec.feature_epoch = static_cast<std::uint64_t>(root.find("feature_epoch")->num);
  for (const obs::json::Value& item : root.find("items")->array) {
    // %.9g round-trips any float exactly through double, so casting the
    // parsed score back to float reproduces the served bits.
    rec.items.push_back(
        {static_cast<std::int32_t>(item.find("item")->num),
         static_cast<float>(item.find("score")->num)});
  }
  return rec;
}

// Executes one wire request against the router (the event loop's handler).
std::string handle_line(serve::ShardRouter& router, const std::string& line) {
  try {
    const serve::Request req = serve::parse_request(line);
    switch (req.op) {
      case serve::Op::kRecommend:
        return serve::format_recommendation(router.recommend(req.model, req.user, req.n));
      case serve::Op::kUpdateFeatures:
        return serve::format_ok(
            "\"epoch\":" +
            std::to_string(router.update_item_features(req.item, req.features)));
      case serve::Op::kStats:
        return serve::format_stats(router.stats());
      default:
        return serve::format_error("serve_load: unsupported op");
    }
  } catch (const std::exception& e) {
    return serve::format_error(e.what());
  }
}

// CPU time the calling thread has consumed. It does not advance while the
// thread waits for a core, so it measures a shard's work, not host load.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// User + system CPU seconds the calling thread has consumed since it began.
double thread_rusage_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main() {
  bench::Reporter reporter("serve_load");

  const std::int64_t num_users = env::get_int("TAAMR_SERVE_USERS", 20000);
  const std::int64_t num_items = env::get_int("TAAMR_SERVE_ITEMS", 2048);
  const std::int64_t clients = env::get_int("TAAMR_SERVE_CLIENTS", 4);
  const std::int64_t per_client = env::get_int("TAAMR_SERVE_REQUESTS", 300);
  const std::vector<std::int64_t> sweep = env_shard_sweep();
  const std::int64_t total = clients * per_client;
  const std::int64_t top_n = 10;

  data::SynthSpec spec = data::amazon_serve_spec();
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.seed = bench::env_seed();
  spec.validate();

  Stopwatch setup_timer;
  const data::ImplicitDataset dataset = data::generate_synthetic_dataset(spec);

  // Random gaussian features: the bench measures the serving engine, not
  // feature quality — what matters is that VBPR's visual path has real
  // per-item rows to rebuild on every hot swap.
  Rng rng(spec.seed + 7);
  Tensor features({dataset.num_items, 32});
  for (std::int64_t i = 0; i < features.numel(); ++i) {
    features.data()[i] = rng.gaussian_f(0.0f, 1.0f);
  }

  recsys::VbprConfig vbpr_cfg;
  vbpr_cfg.epochs = kTrainEpochs;
  auto vbpr = std::make_shared<recsys::Vbpr>(dataset, features, vbpr_cfg, rng);
  vbpr->fit(dataset, rng);
  recsys::BprMfConfig bpr_cfg;
  bpr_cfg.epochs = kTrainEpochs;
  auto bpr = std::make_shared<recsys::BprMf>(dataset, bpr_cfg, rng);
  bpr->fit(dataset, rng);
  std::cout << "serve_load: setup " << dataset.num_users << " users, "
            << dataset.num_items << " items, " << kTrainEpochs
            << " train epochs in " << Table::fmt(setup_timer.seconds(), 1)
            << "s\n";

  // Traffic skew: the same Zipf rank law the dataset generator uses for
  // item popularity, here over user ids (rank = id, user 0 hottest).
  ZipfSampler zipf(static_cast<std::size_t>(dataset.num_users), kZipfAlpha);
  const auto top1pct =
      static_cast<std::int64_t>(std::max<std::int64_t>(1, dataset.num_users / 100));
  reporter.add_config("zipf_alpha", kZipfAlpha);
  reporter.add_config("zipf_top1pct_share_expected",
                      zipf.top_share(static_cast<std::size_t>(top1pct)));

  std::atomic<std::uint64_t> hot_requests{0};   // to the top-1% user ranks
  std::atomic<std::uint64_t> sweep_requests{0};

  // ---- Part 1: TCP shard sweep through the epoll front door ----------------

  double capacity_1 = 0.0;  // serve_shard_capacity of the shards=1 leg

  for (const std::int64_t num_shards : sweep) {
    serve::ModelRegistry registry(dataset);
    registry.register_model("vbpr", vbpr, /*visual=*/true);
    registry.register_model("bpr_mf", bpr, /*visual=*/false);
    serve::ShardRouterConfig router_cfg = serve::ShardRouterConfig::from_env();
    router_cfg.num_shards = num_shards;
    serve::ShardRouter router(dataset, registry, features, router_cfg);

    // Thread-CPU nanoseconds each shard's handler calls consumed.
    std::vector<std::atomic<std::int64_t>> busy_ns(router.num_shards());
    serve::EventLoopConfig loop_cfg = serve::EventLoopConfig::from_env();
    loop_cfg.port = 0;
    serve::EventLoop loop(
        loop_cfg, router.num_shards(),
        [&router](const std::string& line) {
          const std::int64_t user = serve::peek_user(line);
          return user >= 0 ? router.shard_of(user) : std::size_t{0};
        },
        [&router, &busy_ns](std::size_t shard, const std::string& line) {
          const std::int64_t t0 = thread_cpu_ns();
          std::string response = handle_line(router, line);
          busy_ns[shard].fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
          return response;
        });
    loop.start();

    // Probe users spread across shards, so post-swap verification exercises
    // revalidation on shards other than the one that carried the update.
    std::vector<std::int64_t> probes;
    {
      std::vector<char> seen(router.num_shards(), 0);
      const std::size_t want = std::min<std::size_t>(router.num_shards(), 4);
      for (std::int64_t u = 0; u < dataset.num_users && probes.size() < want; ++u) {
        const std::size_t shard = router.shard_of(u);
        if (!seen[shard]) {
          seen[shard] = 1;
          probes.push_back(u);
        }
      }
    }

    std::atomic<std::int64_t> done{0};
    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
    std::vector<double> client_cpu_s(static_cast<std::size_t>(clients), 0.0);
    Stopwatch leg_timer;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients) + 1);
    for (std::int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        set_current_thread_name("load-client" + std::to_string(c));
        LineClient client(loop.port());
        Rng crng(spec.seed * 1000 + static_cast<std::uint64_t>(c) * 131 +
                 static_cast<std::uint64_t>(num_shards));
        auto& lats = latencies[static_cast<std::size_t>(c)];
        lats.reserve(static_cast<std::size_t>(per_client));
        for (std::int64_t r = 0; r < per_client; ++r) {
          const auto user = static_cast<std::int64_t>(zipf.sample(crng));
          const std::string model = crng.uniform() < 0.2 ? "bpr_mf" : "vbpr";
          const std::string req = "{\"op\":\"recommend\",\"model\":\"" + model +
                                  "\",\"user\":" + std::to_string(user) +
                                  ",\"n\":" + std::to_string(top_n) + "}";
          const auto t0 = std::chrono::steady_clock::now();
          const std::string resp = client.request(req);
          lats.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
          const WireRec rec = parse_wire_response(resp);
          if (!rec.overloaded) {
            if (rec.user != user) {
              fail("response user mismatch — out-of-order response on a connection");
            }
            check_served_list(dataset, user, rec.items);
          }
          if (user < top1pct) hot_requests.fetch_add(1);
          sweep_requests.fetch_add(1);
          done.fetch_add(1);
        }
        client_cpu_s[static_cast<std::size_t>(c)] = thread_rusage_seconds();
      });
    }

    // Controller: three hot feature swaps spread through the load, pushed
    // over the wire and verified — served lists for every probe user must
    // equal a golden recompute of the swapped-in model, mid-load.
    threads.emplace_back([&] {
      set_current_thread_name("load-control");
      LineClient client(loop.port());
      std::int64_t swaps_done = 0;
      for (const double frac : {0.25, 0.5, 0.75}) {
        const auto threshold =
            static_cast<std::int64_t>(frac * static_cast<double>(total));
        while (done.load() < threshold) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        const auto vbpr_before = registry.get("vbpr");
        std::vector<std::vector<recsys::ScoredItem>> before;
        before.reserve(probes.size());
        for (const std::int64_t p : probes) {
          before.push_back(golden_topn(dataset, *vbpr_before.model, p, top_n));
        }
        if (before[0].empty()) fail("probe user has an empty list");

        // Shove the probe user's current #1 item far away in feature space.
        const std::int32_t victim = before[0][0].item;
        std::vector<float> feats = router.feature_store().item_features(victim);
        for (float& f : feats) {
          f = -f - 50.0f * static_cast<float>(swaps_done + 1);
        }
        std::string update = "{\"op\":\"update_features\",\"item\":" +
                             std::to_string(victim) + ",\"features\":[";
        for (std::size_t i = 0; i < feats.size(); ++i) {
          if (i > 0) update += ',';
          update += obs::json::number(static_cast<double>(feats[i]));
        }
        update += "]}";
        const obs::json::Value ack = obs::json::parse(client.request(update));
        if (!ack.find("ok")->boolean) fail("update_features rejected over TCP");
        const auto epoch = static_cast<std::uint64_t>(ack.find("epoch")->num);

        const auto vbpr_after = registry.get("vbpr");
        if (vbpr_after.feature_epoch != epoch) {
          fail("registry missed the feature epoch");
        }
        bool any_changed = false;
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const auto golden =
              golden_topn(dataset, *vbpr_after.model, probes[i], top_n);
          WireRec served;
          do {  // a shed probe under overload is retried, not skipped
            served = parse_wire_response(client.request(
                "{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":" +
                std::to_string(probes[i]) + ",\"n\":" + std::to_string(top_n) +
                "}"));
          } while (served.overloaded);
          if (served.items != golden) {
            fail("post-swap served list diverges from golden recompute (user " +
                 std::to_string(probes[i]) + ", " +
                 std::to_string(router.num_shards()) + " shards)");
          }
          if (served.feature_epoch != epoch) {
            fail("post-swap response stamped with a stale feature epoch");
          }
          if (golden != before[i]) any_changed = true;
        }
        if (!any_changed) fail("hot feature swap changed no probe list");
        ++swaps_done;
      }
    });

    for (std::thread& t : threads) t.join();
    const double leg_seconds = leg_timer.seconds();

    loop.request_shutdown();
    if (loop.join() != 0) fail("event loop drain timed out");
    const serve::EventLoop::Stats loop_stats = loop.stats();
    if (loop_stats.responses != loop_stats.requests) {
      fail("drain lost responses (" + std::to_string(loop_stats.responses) +
           " of " + std::to_string(loop_stats.requests) + ")");
    }

    std::vector<double> lat;
    for (auto& v : latencies) lat.insert(lat.end(), v.begin(), v.end());
    std::sort(lat.begin(), lat.end());
    const double qps =
        leg_seconds > 0.0 ? static_cast<double>(total) / leg_seconds : 0.0;

    // Capacity: what the shard layout could serve if the busiest shard's
    // CPU were the only limit. TCP qps also pays for the clients and the
    // epoll thread, which share the host's cores with the shard workers.
    std::int64_t max_busy_ns = 1;
    for (const auto& b : busy_ns) max_busy_ns = std::max(max_busy_ns, b.load());
    const double capacity = static_cast<double>(loop_stats.requests - loop_stats.shed) /
                            (static_cast<double>(max_busy_ns) * 1e-9);
    if (num_shards == 1) capacity_1 = capacity;
    double client_cpu = 0.0;
    for (const double s : client_cpu_s) client_cpu += s;

    const obs::Labels labels = {{"shards", std::to_string(num_shards)}};
    reporter.add_metric("serve_tcp_qps", labels, qps);
    reporter.add_metric("serve_shard_capacity", labels, capacity);
    if (capacity_1 > 0.0) {
      reporter.add_metric("serve_shard_speedup", labels, capacity / capacity_1);
    }
    reporter.add_metric("serve_client_cpu_s", labels, client_cpu);
    reporter.add_metric("serve_latency_p50_ms", labels, percentile(lat, 0.5) * 1e3);
    reporter.add_metric("serve_latency_p99_ms", labels, percentile(lat, 0.99) * 1e3);
    reporter.add_metric("serve_shed", labels,
                        static_cast<double>(loop_stats.shed));
    reporter.add_examples(static_cast<double>(total));

    std::cout << "serve_load: [shards=" << num_shards << "] " << total
              << " requests from " << clients << " TCP clients in "
              << Table::fmt(leg_seconds, 2) << "s — " << Table::fmt(qps, 0)
              << " qps, p50 " << Table::fmt(percentile(lat, 0.5) * 1e3, 3)
              << "ms, p99 " << Table::fmt(percentile(lat, 0.99) * 1e3, 3)
              << "ms, " << loop_stats.shed << " shed, " << loop_stats.accepted
              << " connections, clean drain; shard capacity "
              << Table::fmt(capacity, 0) << " req/s";
    if (capacity_1 > 0.0) std::cout << " (" << Table::fmt(capacity / capacity_1, 2) << "x)";
    std::cout << ", client CPU " << Table::fmt(client_cpu, 3) << "s\n";
  }

  const double achieved_share =
      sweep_requests.load() > 0
          ? static_cast<double>(hot_requests.load()) /
                static_cast<double>(sweep_requests.load())
          : 0.0;
  reporter.add_config("zipf_top1pct_share_achieved", achieved_share);
  reporter.add_metric("serve_zipf_top1pct_share", {}, achieved_share);
  reporter.add_metric("serve_hw_concurrency", {},
                      static_cast<double>(std::thread::hardware_concurrency()));

  // ---- Part 2: telemetry overhead on a single-shard router, in process ----

  serve::ModelRegistry registry(dataset);
  registry.register_model("vbpr", vbpr, /*visual=*/true);
  registry.register_model("bpr_mf", bpr, /*visual=*/false);
  serve::ShardRouterConfig solo_cfg = serve::ShardRouterConfig::from_env();
  solo_cfg.num_shards = 1;
  serve::ShardRouter service(dataset, registry, features, solo_cfg);

  // A hot pool keeps the cache hit rate up at any dataset size (the sweep
  // above covers the full-skew regime).
  const std::int64_t hot_pool = std::min<std::int64_t>(dataset.num_users, 512);
  const std::vector<std::int64_t> probes = {0, 1, 2};

  // (item, features before the swap), undone after each phase so every
  // phase starts from the same features and does the same work.
  std::vector<std::pair<std::int32_t, std::vector<float>>> swapped;

  // One hot feature swap, verified against a golden recompute.
  auto hot_swap = [&]() {
    const auto vbpr_before = registry.get("vbpr");
    std::vector<std::vector<recsys::ScoredItem>> before;
    before.reserve(probes.size());
    for (const std::int64_t p : probes) {
      before.push_back(golden_topn(dataset, *vbpr_before.model, p, top_n));
    }
    if (before[0].empty()) fail("probe user has an empty list");

    const std::int32_t victim = before[0][0].item;
    std::vector<float> feats = service.feature_store().item_features(victim);
    swapped.emplace_back(victim, feats);
    for (float& f : feats) f = -f - 50.0f * static_cast<float>(swapped.size());
    const std::uint64_t epoch = service.update_item_features(victim, feats);

    const auto vbpr_after = registry.get("vbpr");
    if (vbpr_after.feature_epoch != epoch) fail("registry missed the feature epoch");
    bool any_changed = false;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto golden = golden_topn(dataset, *vbpr_after.model, probes[i], top_n);
      const auto served = service.recommend("vbpr", probes[i], top_n);
      if (served.items != golden) {
        fail("post-swap served list diverges from golden recompute (user " +
             std::to_string(probes[i]) + ")");
      }
      if (served.feature_epoch != epoch) {
        fail("post-swap response stamped with a stale feature epoch");
      }
      if (golden != before[i]) any_changed = true;
    }
    if (!any_changed) fail("hot feature swap changed no probe list");
  };

  // One phase: every client's schedule, replayed back to back on this
  // thread, with a hot swap at 25/50/75% of the requests. Same seeds in
  // both kinds of phase, so the only difference is the telemetry itself.
  auto run_phase = [&](bool telemetry) {
    std::int64_t done = 0;
    Stopwatch timer;
    for (std::int64_t c = 0; c < clients; ++c) {
      Rng crng(spec.seed * 1000 + static_cast<std::uint64_t>(c));
      for (std::int64_t r = 0; r < per_client; ++r) {
        const double u01 = crng.uniform();
        const std::int64_t user = std::min(
            static_cast<std::int64_t>(u01 * u01 * static_cast<double>(hot_pool)),
            hot_pool - 1);
        const std::string model = crng.uniform() < 0.2 ? "bpr_mf" : "vbpr";
        serve::Recommendation rec;
        if (telemetry) {
          obs::RequestContext ctx;
          rec = service.recommend(model, user, top_n, &ctx);
          ctx.publish();
        } else {
          rec = service.recommend(model, user, top_n);
        }
        check_served_list(dataset, rec.user, rec.items);
        ++done;
        if (done == total / 4 || done == total / 2 || done == total * 3 / 4) hot_swap();
      }
    }
    return timer.seconds();
  };

  auto& latency = obs::MetricsRegistry::global().histogram("serve_request_seconds");
  const bool trace_was_enabled = obs::Trace::global().enabled();
  const std::string trace_path = obs::Trace::global().path();
  // With TAAMR_PROFILE=cpu the on phases also sample, so the overhead
  // covers the profiler too (prof_overhead_gate judges that).
  obs::Profiler& profiler = obs::Profiler::global();
  const bool profiling = profiler.config().cpu_enabled();
  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  std::uint64_t swaps_expected = 0;
  // Latency bucket-count deltas summed over every on-phase, interpolated
  // with the shared estimator below.
  std::vector<std::uint64_t> buckets_on(latency.bounds().size() + 1, 0);
  std::uint64_t count_on = 0;

  auto measure_phase = [&](bool telemetry) {
    service.clear_cache();
    if (telemetry && trace_was_enabled) {
      obs::Trace::global().enable(trace_path);
    } else {
      obs::Trace::global().disable();
    }
    if (profiling) {
      // stop_cpu() idles ~2 ms while in-flight handlers retire. Idling as
      // long before every phase keeps the off phases from being the only
      // ones that start on a rested core.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (telemetry) {
        profiler.start_cpu();
      } else {
        profiler.stop_cpu();
      }
    }
    std::vector<std::uint64_t> buckets_before(buckets_on.size());
    for (std::size_t i = 0; i < buckets_before.size(); ++i) {
      buckets_before[i] = latency.bucket_count(i);
    }
    const std::uint64_t count_before = latency.count();

    const double seconds = run_phase(telemetry);
    swaps_expected += 3;
    if (service.stats().feature_swaps != swaps_expected) {
      fail("expected 3 hot swaps per phase");
    }
    for (auto it = swapped.rbegin(); it != swapped.rend(); ++it) {
      service.update_item_features(it->first, it->second);
    }
    swaps_expected += swapped.size();
    swapped.clear();
    if (!telemetry) {
      off_seconds.push_back(seconds);
      return;
    }
    on_seconds.push_back(seconds);
    for (std::size_t i = 0; i < buckets_on.size(); ++i) {
      buckets_on[i] += latency.bucket_count(i) - buckets_before[i];
    }
    count_on += latency.count() - count_before;
  };
  for (int pair = 0; pair < kPhasePairs; ++pair) {
    // Alternating the order spreads warm-up and host drift over both kinds.
    const bool on_first = pair % 2 == 1;
    measure_phase(on_first);
    measure_phase(!on_first);
  }
  // Tracing and profiling stay as configured, so both are written at exit.
  if (trace_was_enabled) obs::Trace::global().enable(trace_path);
  if (profiling) profiler.start_cpu();
  const serve::RecommendService::Stats stats = service.stats();

  auto phase_quantile = [&](double q) {
    return obs::bucket_quantile(latency.bounds(), buckets_on, count_on,
                                latency.min(), latency.max(), q);
  };
  // Pair i holds off_seconds[i] and on_seconds[i]; qps_off - qps over qps_off
  // is (on - off) / on in phase times.
  std::vector<double> pair_overheads;
  for (int i = 0; i < kPhasePairs; ++i) {
    pair_overheads.push_back((on_seconds[i] - off_seconds[i]) / on_seconds[i] * 100.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return percentile(v, 0.5);
  };
  const double qps = static_cast<double>(total) / median(on_seconds);
  const double qps_off = static_cast<double>(total) / median(off_seconds);
  // Floored at 1%: below that the signal is run-to-run noise, and the
  // self-compare gate would see enormous relative drift between two tiny
  // absolute values.
  const double measured_overhead_pct = median(pair_overheads);
  const double overhead_pct = std::max(kOverheadFloorPct, measured_overhead_pct);

  reporter.add_config("serve_telemetry_overhead_floor_pct", kOverheadFloorPct);
  reporter.add_examples(static_cast<double>(2 * kPhasePairs * total));
  reporter.add_metric("service_qps", {}, qps);
  reporter.add_metric("service_qps_telemetry_off", {}, qps_off);
  reporter.add_metric("serve_telemetry_overhead_pct", {}, overhead_pct);
  reporter.add_metric("serve_latency_p50_ms", {}, phase_quantile(0.5) * 1e3);
  reporter.add_metric("serve_latency_p90_ms", {}, phase_quantile(0.9) * 1e3);
  reporter.add_metric("serve_latency_p99_ms", {}, phase_quantile(0.99) * 1e3);
  reporter.add_metric("serve_rolling_p99_ms", {}, stats.rolling_p99_s * 1e3);
  reporter.add_metric("serve_cache_hit_rate", {}, stats.hit_rate());
  reporter.add_metric("serve_cache_revalidated", {},
                      static_cast<double>(stats.cache_revalidated));
  reporter.add_metric("serve_audit_records", {},
                      static_cast<double>(stats.audit_records));

  std::cout << "serve_load: " << total << " requests per phase (" << clients
            << " client schedules in process), median of " << kPhasePairs << " pairs — "
            << Table::fmt(qps, 0) << " qps (telemetry off: "
            << Table::fmt(qps_off, 0) << " qps, overhead "
            << Table::fmt(measured_overhead_pct, 2) << "% measured, "
            << Table::fmt(overhead_pct, 1) << "% booked), p50 "
            << Table::fmt(phase_quantile(0.5) * 1e3, 3) << "ms, p99 "
            << Table::fmt(phase_quantile(0.99) * 1e3, 3) << "ms, rolling p99 "
            << Table::fmt(stats.rolling_p99_s * 1e3, 3) << "ms, hit rate "
            << Table::fmt(stats.hit_rate(), 3) << ", " << stats.cache_revalidated
            << " revalidations, " << stats.audit_records << " audit records, "
            << stats.suspect_updates << " suspect updates\n";
  return 0;
}
