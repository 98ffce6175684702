// serve_hot_swap and serve_cold_scan: tools/taamr_serve as a child process,
// driven over TCP by the open-loop generator (loadgen.hpp).
//
// Both boot the server on amazon_serve at scale 0.1 (100k users, 819
// items). serve_hot_swap sends Zipf(1.0) users, so many recommends hit the
// top-n cache, while update_image pushes arrive at 20/s and force
// re-render -> CNN features -> VBPR rebuild -> swap -> cache revalidation.
// serve_cold_scan sends uniform users and no updates, so nearly every
// request misses the cache and is scored. A cache change should move the
// first and not the second; a scoring or batching change the reverse.
//
// Timed phase: a `mid` leg at half the calibrated capacity C0 (latency),
// then a bisection of [0.25 C0, 2 C0] for the highest rate that meets the
// SLO (throughput). A traced run replaces the bisection with the same stack
// built in-process, where the mid leg's requests are replayed and timed
// stage by stage (once plain and once traced, for the tracing overhead),
// plus an attack probe and the CNN layer probe.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "data/image_gen.hpp"
#include "metrics/chr.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"
#include "server_process.hpp"
#include "stats.hpp"
#include "tensor/cost.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace taamr::bench {

namespace {


// SLO of one capacity probe: recommend p99 within kSloP99Ms and no shed,
// error or timeout (every response within 1 s of the probe's end). The
// latency limit is loose because every hot swap stalls the server for
// milliseconds to tens of milliseconds: a tighter p99 would fail
// serve_hot_swap at any rate, pinning its capacity to the bracket floor.
constexpr double kSloP99Ms = 50.0;
// Beyond this the generator, not the server, is being measured.
constexpr double kMaxLagP99Ms = 1.0;

// taamr_serve's default CNN settings, passed as flags so the in-process
// stack is built from the same values.
constexpr std::int64_t kImageSize = 16;
constexpr std::int64_t kCnnEpochs = 1;
constexpr std::int64_t kImagesPerCategory = 24;

struct ServeWorkload {
  std::string dataset = "amazon_serve";
  double scale = 0.1;
  std::int64_t vbpr_epochs = 5;
  std::int64_t bpr_epochs = 5;
  bool zipf_users = true;
  double update_rate = 0.0;  // update_image pushes per second
  double c0 = 0.0;           // calibrated capacity, recommends per second
  int halvings = 6;
};

// C0 is each workload's capacity as calibrated on a 4-core host (see
// benchmark/README.md); the mid leg runs at 0.5 C0 and the capacity search
// brackets [0.25 C0, 2 C0].
ServeWorkload serve_workload(bool hot_swap, bool smoke) {
  ServeWorkload w;
  w.zipf_users = hot_swap;
  w.update_rate = hot_swap ? 20.0 : 0.0;
  w.c0 = hot_swap ? 23000.0 : 14000.0;
  if (smoke) {
    w.scale = 0.01;
    w.vbpr_epochs = 2;
    w.bpr_epochs = 2;
    w.c0 = 2000.0;
    w.halvings = 2;
  }
  return w;
}

std::vector<std::string> server_flags(const ServeWorkload& w, std::uint64_t seed) {
  return {"--dataset",        w.dataset,
          "--scale",          std::to_string(w.scale),
          "--seed",           std::to_string(seed),
          "--vbpr-epochs",    std::to_string(w.vbpr_epochs),
          "--bpr-epochs",     std::to_string(w.bpr_epochs),
          "--image-size",     std::to_string(kImageSize),
          "--cnn-epochs",     std::to_string(kCnnEpochs),
          "--images-per-cat", std::to_string(kImagesPerCategory)};
}

Traffic traffic_for(const ServeWorkload& w, const data::ImplicitDataset& ds, double rate,
                    double seconds) {
  Traffic t;
  t.rate = rate;
  t.seconds = seconds;
  t.num_users = ds.num_users;
  t.num_items = ds.num_items;
  t.zipf_users = w.zipf_users;
  t.update_rate = w.update_rate;
  return t;
}

// Empty when `items` is a valid served list for `user`: at most n unique,
// in-range items, none the user trained on, in canonical score-desc/id-asc
// order.
std::string list_problem(const data::ImplicitDataset& ds, std::int64_t user, std::int64_t n,
                         const std::vector<recsys::ScoredItem>& items) {
  if (static_cast<std::int64_t>(items.size()) > n) return "more than n items";
  std::set<std::int32_t> seen;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const recsys::ScoredItem& it = items[i];
    if (it.item < 0 || it.item >= ds.num_items) return "item out of range";
    if (!seen.insert(it.item).second) return "duplicate item";
    if (ds.user_interacted(user, it.item)) return "train item served";
    if (i > 0) {
      const recsys::ScoredItem& prev = items[i - 1];
      if (it.score > prev.score || (it.score == prev.score && it.item < prev.item)) {
        return "non-canonical order";
      }
    }
  }
  return "";
}

struct LegSummary {
  std::size_t recommends = 0;
  std::size_t updates = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  std::size_t timeouts = 0;
  std::vector<double> rec_ms;     // answered recommends, from due time; sorted
  std::vector<double> update_ms;  // acked updates, from due time; sorted
  std::vector<double> lag_ms;     // recommends, sent minus due; sorted
  double generator_cpu_s = 0.0;
  double wall_s = 0.0;

  std::size_t offered() const { return recommends + updates; }
  std::size_t failed() const { return shed + errors + timeouts; }
};

// Checks every response of the legs run against one server, in order.
class ResponseChecker {
 public:
  ResponseChecker(const data::ImplicitDataset& ds, Result& result) : ds_(ds), result_(result) {}

  LegSummary check(const LegRecord& leg) {
    LegSummary s;
    s.generator_cpu_s = leg.generator_cpu_s;
    s.wall_s = leg.wall_s;
    // Feature epochs acked on connection 0 during this leg, by arrival.
    std::vector<std::pair<double, std::uint64_t>> acks;
    for (std::size_t i = 0; i < leg.plan.size(); ++i) {
      const Planned& p = leg.plan[i];
      const Outcome& o = leg.outcomes[i];
      (p.op == Op::kUpdate ? s.updates : s.recommends) += 1;
      if (o.received_s < 0.0 || o.received_s > leg.grace_end_s) ++s.timeouts;
      if (o.received_s < 0.0) continue;
      obs::json::Value root;
      try {
        root = obs::json::parse(o.response);
      } catch (const std::exception& e) {
        fail("unparsable response to " + p.line() + ": " + e.what());
        continue;
      }
      const obs::json::Value* ok = root.find("ok");
      if (ok == nullptr || ok->type != obs::json::Value::Type::kBool) {
        fail("response without ok: " + o.response);
        continue;
      }
      if (!ok->boolean) {
        const obs::json::Value* err = root.find("error");
        (err != nullptr && err->str == "overloaded" ? s.shed : s.errors) += 1;
        continue;
      }
      const double latency_ms = (o.received_s - p.due_s) * 1e3;
      if (p.op == Op::kUpdate) {
        const obs::json::Value* epoch = root.find("epoch");
        if (epoch == nullptr || !epoch->is_number()) {
          fail("update ack without epoch: " + o.response);
          continue;
        }
        const auto e = static_cast<std::uint64_t>(epoch->num);
        if (e <= last_epoch_) {
          fail("update epochs not strictly increasing: " + std::to_string(e) + " after " +
               std::to_string(last_epoch_));
        }
        last_epoch_ = std::max(last_epoch_, e);
        acks.emplace_back(o.received_s, e);
        s.update_ms.push_back(latency_ms);
        continue;
      }
      s.lag_ms.push_back((o.sent_s - p.due_s) * 1e3);
      s.rec_ms.push_back(latency_ms);
      check_recommend(p, o, root, acks);
    }
    floor_epoch_ = last_epoch_;
    for (auto* v : {&s.rec_ms, &s.update_ms, &s.lag_ms}) std::sort(v->begin(), v->end());
    return s;
  }

 private:
  void fail(const std::string& what) {
    if (++failures_ <= 5) result_.check(false, what);
  }

  void check_recommend(const Planned& p, const Outcome& o, const obs::json::Value& root,
                       const std::vector<std::pair<double, std::uint64_t>>& acks) {
    const obs::json::Value* user = root.find("user");
    const obs::json::Value* epoch = root.find("feature_epoch");
    const obs::json::Value* items = root.find("items");
    if (user == nullptr || epoch == nullptr || items == nullptr || !items->is_array()) {
      fail("malformed recommend response: " + o.response);
      return;
    }
    if (static_cast<std::int64_t>(user->num) != p.user) {
      fail("response echoes user " + std::to_string(static_cast<std::int64_t>(user->num)) +
           " to a request for " + std::to_string(p.user));
      return;
    }
    std::vector<recsys::ScoredItem> list;
    for (const obs::json::Value& it : items->array) {
      const obs::json::Value* id = it.find("item");
      const obs::json::Value* score = it.find("score");
      if (id == nullptr || score == nullptr) {
        fail("malformed item in " + o.response);
        return;
      }
      list.push_back({static_cast<std::int32_t>(id->num), static_cast<float>(score->num)});
    }
    if (const std::string why = list_problem(ds_, p.user, kTopN, list); !why.empty()) {
      fail("user " + std::to_string(p.user) + ": " + why);
    }
    if (p.bpr) return;  // feature epochs only advance for the visual model
    // Sent after an update's ack arrived (same connection, or any earlier
    // leg), so the swap had committed: the response must reflect it.
    std::uint64_t required = floor_epoch_;
    if (p.connection == 0) {
      for (const auto& [received, e] : acks) {
        if (received < o.sent_s) required = std::max(required, e);
      }
    }
    if (static_cast<std::uint64_t>(epoch->num) < required) {
      fail("vbpr response carries feature_epoch " +
           std::to_string(static_cast<std::uint64_t>(epoch->num)) + " after epoch " +
           std::to_string(required) + " was acked");
    }
  }

  const data::ImplicitDataset& ds_;
  Result& result_;
  std::uint64_t last_epoch_ = 0;   // highest acked epoch so far
  std::uint64_t floor_epoch_ = 0;  // highest epoch acked in earlier legs
  int failures_ = 0;
};

std::string verdict(const LegSummary& s, bool* pass) {
  const double lag = percentile(s.lag_ms, 0.99);
  const double p99 = percentile(s.rec_ms, 0.99);
  *pass = false;
  if (lag > kMaxLagP99Ms) return "invalid: generator-saturated (lag p99 " + std::to_string(lag) + " ms)";
  if (s.failed() > 0) {
    return "fail: " + std::to_string(s.shed) + " shed, " + std::to_string(s.errors) +
           " errors, " + std::to_string(s.timeouts) + " timeouts";
  }
  if (p99 > kSloP99Ms) return "fail: p99 " + std::to_string(p99) + " ms";
  *pass = true;
  return "pass: p99 " + std::to_string(p99) + " ms";
}

struct ServerStats {
  double hits = 0, misses = 0, revalidated = 0, coalesced = 0, evictions = 0;
};

ServerStats fetch_stats(int port) {
  const obs::json::Value root = obs::json::parse(request_once(port, "{\"op\":\"stats\"}"));
  auto num = [&root](const char* key) {
    const obs::json::Value* v = root.find(key);
    if (v == nullptr || !v->is_number()) throw std::runtime_error(std::string("stats lacks ") + key);
    return v->num;
  };
  return {num("cache_hits"), num("cache_misses"), num("cache_revalidated"),
          num("coalesced_batches"), num("cache_evictions")};
}

// The mid leg's outside view: what the real binary did and cost.
void set_tcp_layer_metrics(Result& result, const LegSummary& mid, const ServerStats& before,
                           const ServerStats& after, double server_cpu_s) {
  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  result.set("serve.cache_hit_rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  result.set("serve.coalesced_batches", after.coalesced - before.coalesced);
  result.set("serve.revalidated", after.revalidated - before.revalidated);
  result.set("serve.evictions", after.evictions - before.evictions);
  result.set("server.cpu_ms_per_kreq",
             server_cpu_s * 1e3 / (static_cast<double>(mid.offered()) / 1000.0));
  result.set("gen.lag_p99_ms", percentile(mid.lag_ms, 0.99));
  result.set("gen.cpu_util", mid.generator_cpu_s / mid.wall_s);
}

void print_leg(const std::string& name, double rate, const LegSummary& s) {
  const SupportedTail tail = highest_supported_percentile(s.rec_ms);
  std::cout << name << " @" << rate << "/s: " << s.offered() << " requests, recommend p50 "
            << percentile(s.rec_ms, 0.5) << " ms, p90 " << percentile(s.rec_ms, 0.9)
            << " ms, p99 " << percentile(s.rec_ms, 0.99) << " ms, p" << tail.q * 100 << " "
            << tail.value << " ms (highest with 10 of " << s.rec_ms.size()
            << " samples beyond), update p99 " << percentile(s.update_ms, 0.99)
            << " ms, generator lag p99 " << percentile(s.lag_ms, 0.99) << " ms, failed "
            << s.failed() << "\n";
}

// ---- the same stack in-process ----

// taamr_serve's main(), from the same flag values.
struct Stack {
  std::unique_ptr<core::Pipeline> pipeline;
  std::shared_ptr<recsys::Vbpr> vbpr;
  std::shared_ptr<recsys::BprMf> bpr;
};

Stack build_stack(const ServeWorkload& w, std::uint64_t seed, SpanRecorder* spans,
                  PrepareClock& prepare) {
  core::PipelineConfig config;
  config.dataset_name = w.dataset;
  config.scale = w.scale;
  config.seed = seed;
  config.image_size = kImageSize;
  config.cnn_epochs = kCnnEpochs;
  config.cnn_images_per_category = kImagesPerCategory;
  config.vbpr.epochs = w.vbpr_epochs;
  Stack s;
  s.pipeline = std::make_unique<core::Pipeline>(config);
  traced_prepare(*s.pipeline, spans, prepare);
  {
    ScopedSpan span(spans, "recsys/train_vbpr");
    s.vbpr = std::shared_ptr<recsys::Vbpr>(s.pipeline->train_vbpr());
  }
  {
    ScopedSpan span(spans, "recsys/train_bpr_mf");
    Rng rng(seed + 17);
    recsys::BprMfConfig bpr_config;
    bpr_config.epochs = w.bpr_epochs;
    s.bpr = std::make_shared<recsys::BprMf>(s.pipeline->dataset(), bpr_config, rng);
    s.bpr->fit(s.pipeline->dataset(), rng);
  }
  return s;
}

// A fresh registry + router over a built stack, with taamr_serve's
// update_image path.
class LocalServer {
 public:
  explicit LocalServer(Stack& stack) : stack_(stack), registry_(stack.pipeline->dataset()) {
    registry_.register_model("vbpr", stack.vbpr, /*visual=*/true);
    registry_.register_model("bpr_mf", stack.bpr, /*visual=*/false);
    router_ = std::make_unique<serve::ShardRouter>(stack.pipeline->dataset(), registry_,
                                                   stack.pipeline->clean_features());
  }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  serve::ShardRouter& router() { return *router_; }

  // Re-render the item's image from `seed`, re-extract its features, swap
  // them in. Returns the extraction time in ms.
  double update_image(std::int64_t item, std::uint64_t seed, SpanRecorder* spans,
                      std::uint64_t request) {
    const data::ImplicitDataset& ds = stack_.pipeline->dataset();
    const std::int32_t cat = ds.item_category.at(static_cast<std::size_t>(item));
    Tensor img = data::render_item_image(
        data::fashion_taxonomy()[static_cast<std::size_t>(cat)].style, seed,
        stack_.pipeline->config().image_config());
    Tensor batch(img.shape(), std::vector<float>(img.data(), img.data() + img.numel()));
    batch.reshape({1, img.dim(0), img.dim(1), img.dim(2)});
    Tensor feats;
    double extract_ms = 0.0;
    {
      std::lock_guard<std::mutex> lock(classifier_mutex_);
      ScopedSpan span(spans, "nn/update_extract", request);
      const Stopwatch t0;
      feats = stack_.pipeline->classifier().features(batch);
      extract_ms = t0.seconds() * 1e3;
    }
    serve::RecommendService::UpdateOrigin origin;
    origin.source = "update_image";
    {
      std::lock_guard<std::mutex> lock(image_mutex_);
      const auto it = last_images_.find(item);
      if (it != last_images_.end()) origin.ssim = metrics::ssim(it->second, img);
      last_images_.insert_or_assign(item, std::move(img));
    }
    router_->update_item_features(item, {feats.data(), static_cast<std::size_t>(feats.dim(1))},
                                  origin);
    return extract_ms;
  }

 private:
  Stack& stack_;
  serve::ModelRegistry registry_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::mutex classifier_mutex_;
  std::mutex image_mutex_;
  std::unordered_map<std::int64_t, Tensor> last_images_;
};

struct ReplayTimes {
  std::vector<double> parse_us, format_us, recommend_us, hit_us, miss_us;
  std::vector<double> update_ms, update_extract_ms;
  void merge(const ReplayTimes& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(parse_us, o.parse_us);
    cat(format_us, o.format_us);
    cat(recommend_us, o.recommend_us);
    cat(hit_us, o.hit_us);
    cat(miss_us, o.miss_us);
    cat(update_ms, o.update_ms);
    cat(update_extract_ms, o.update_extract_ms);
  }
};

// Replays `plan` closed-loop from 4 threads through the protocol and router
// calls the server's handler makes, timing each stage.
ReplayTimes replay(const std::vector<Planned>& plan, LocalServer& local, SpanRecorder* spans,
                   std::int64_t parent, Result& result) {
  constexpr int kThreads = 4;
  const data::ImplicitDataset& ds = local.router().dataset();
  std::atomic<std::size_t> next{0};
  std::vector<ReplayTimes> per_thread(kThreads);
  std::mutex problems_mutex;
  std::vector<std::string> problems;
  auto worker = [&](int t) {
    ReplayTimes& times = per_thread[static_cast<std::size_t>(t)];
    for (std::size_t i = next++; i < plan.size(); i = next++) {
      const std::uint64_t request = i + 1;
      const std::string line = plan[i].line();
      try {
        ScopedSpan whole(spans, "serve/request", request, 1, parent);
        Stopwatch t0;
        serve::Request req;
        {
          ScopedSpan span(spans, "serve/parse", request);
          req = serve::parse_request(line);
        }
        if (req.op == serve::Op::kUpdateImage) {
          ScopedSpan span(spans, "serve/update", request);
          t0.reset();
          times.update_extract_ms.push_back(local.update_image(req.item, req.seed, spans, request));
          times.update_ms.push_back(t0.seconds() * 1e3);
          continue;
        }
        times.parse_us.push_back(t0.seconds() * 1e6);
        serve::Recommendation rec;
        t0.reset();
        {
          ScopedSpan span(spans, "serve/recommend", request);
          rec = local.router().recommend(req.model, req.user, req.n);
        }
        const double rec_us = t0.seconds() * 1e6;
        times.recommend_us.push_back(rec_us);
        (rec.cached ? times.hit_us : times.miss_us).push_back(rec_us);
        t0.reset();
        {
          ScopedSpan span(spans, "serve/format", request);
          const std::string out = serve::format_recommendation(rec);
          if (out.empty()) throw std::logic_error("empty response");
        }
        times.format_us.push_back(t0.seconds() * 1e6);
        if (const std::string why = list_problem(ds, req.user, req.n, rec.items); !why.empty()) {
          throw std::logic_error("user " + std::to_string(req.user) + ": " + why);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(problems_mutex);
        problems.push_back("in-process " + line + ": " + e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < std::min<std::size_t>(problems.size(), 5); ++i) {
    result.check(false, problems[i]);
  }
  result.attempted += static_cast<std::int64_t>(plan.size());
  result.failed += static_cast<std::int64_t>(problems.size());
  ReplayTimes all;
  for (const ReplayTimes& t : per_thread) all.merge(t);
  return all;
}

// Update latency needs samples on every workload, including the ones whose
// traffic has no updates: 20 serialized update_image calls.
void update_probe(LocalServer& local, std::uint64_t seed, SpanRecorder* spans,
                  ReplayTimes& times) {
  ScopedSpan root(spans, "probe/update");
  Rng rng(seed ^ 0x0bdau);
  const auto num_items = static_cast<std::uint64_t>(local.router().dataset().num_items);
  for (std::uint64_t k = 0; k < 20; ++k) {
    ScopedSpan span(spans, "serve/update", 1000000000ULL + k);
    const Stopwatch t0;
    times.update_extract_ms.push_back(local.update_image(
        static_cast<std::int64_t>(rng.uniform_u64(num_items)), rng.next_u64() >> 1, spans,
        1000000000ULL + k));
    times.update_ms.push_back(t0.seconds() * 1e3);
  }
}

void set_replay_metrics(Result& result, ReplayTimes times, double tcp_p50_us) {
  for (auto* v : {&times.parse_us, &times.format_us, &times.recommend_us, &times.hit_us,
                  &times.miss_us, &times.update_ms, &times.update_extract_ms}) {
    std::sort(v->begin(), v->end());
  }
  const double parse = percentile(times.parse_us, 0.5);
  const double format = percentile(times.format_us, 0.5);
  result.set("serve.parse_us.p50", parse);
  result.set("serve.format_us.p50", format);
  result.set("serve.recommend_hit_us.p50", percentile(times.hit_us, 0.5));
  result.set("serve.recommend_hit_us.p99", percentile(times.hit_us, 0.99));
  result.set("serve.recommend_miss_us.p50", percentile(times.miss_us, 0.5));
  result.set("serve.recommend_miss_us.p99", percentile(times.miss_us, 0.99));
  result.set("serve.update_ms.p50", percentile(times.update_ms, 0.5));
  result.set("serve.update_ms.p99", percentile(times.update_ms, 0.99));
  result.set("nn.update_extract_ms.p50", percentile(times.update_extract_ms, 0.5));
  result.set("serve.front_door_us.p50",
             tcp_p50_us - (parse + percentile(times.recommend_us, 0.5) + format));
  std::cout << "in-process: " << times.recommend_us.size() << " recommends (" << times.hit_us.size()
            << " hits), " << times.update_ms.size() << " updates\n";
}

// The attacker's side against the serving stack's CNN: one scenario, FGSM
// and PGD at eps 8, re-extraction, and the CHR shift they cause under VBPR.
void attack_probe(Stack& stack, SpanRecorder* spans, Result& result) {
  ScopedSpan root(spans, "probe/attack");
  core::Pipeline& pipeline = *stack.pipeline;
  const data::ImplicitDataset& ds = pipeline.dataset();
  const core::AttackScenario scenario{data::kSock, data::kRunningShoe, true};
  make_attack_products(pipeline, scenario, "fgsm", 8.0f, spans, result);
  const AttackProducts pgd = make_attack_products(pipeline, scenario, "pgd", 8.0f, spans, result);
  constexpr std::int64_t kTopN = 100;
  std::vector<std::vector<std::int32_t>> before, after;
  {
    ScopedSpan span(spans, "recsys/rank", 0, 2);
    before = recsys::top_n_lists(*stack.vbpr, ds, kTopN);
    stack.vbpr->set_item_features(pgd.merged_features);
    after = recsys::top_n_lists(*stack.vbpr, ds, kTopN);
    stack.vbpr->set_item_features(pipeline.clean_features());
  }
  ScopedSpan span(spans, "metrics/chr");
  const double chr_before = metrics::category_hit_ratio(before, ds, scenario.source_category, kTopN);
  const double chr_after = metrics::category_hit_ratio(after, ds, scenario.source_category, kTopN);
  result.check(chr_before >= 0.0 && chr_before <= 1.0 && chr_after >= 0.0 && chr_after <= 1.0,
               "attack probe CHR outside [0,1]");
}

// TCP leg at `rate` on a running server, bracketed by stats and CPU reads.
struct MidLeg {
  std::vector<Planned> plan;
  LegSummary summary;
};
MidLeg run_mid_leg(ServerProcess& server, ResponseChecker& checker, const Traffic& traffic,
                   std::uint64_t seed, Result& result, bool layer_metrics) {
  MidLeg mid;
  mid.plan = make_schedule(traffic, seed);
  const ServerStats before = fetch_stats(server.port());
  const double cpu0 = server.cpu_seconds();
  const LegRecord leg = run_leg(server.port(), mid.plan);
  const double cpu_s = server.cpu_seconds() - cpu0;
  const ServerStats after = fetch_stats(server.port());
  mid.summary = checker.check(leg);
  result.attempted += static_cast<std::int64_t>(mid.summary.offered());
  result.failed += static_cast<std::int64_t>(mid.summary.failed());
  print_leg("mid", traffic.rate, mid.summary);
  if (layer_metrics) set_tcp_layer_metrics(result, mid.summary, before, after, cpu_s);
  return mid;
}

std::string server_binary() { return TAAMR_SERVE_BIN; }

Result run_serving(const RunOptions& o, const ServeWorkload& w) {
  Result result;
  const data::ImplicitDataset dataset =
      data::generate_synthetic_dataset(data::spec_by_name(w.dataset, w.scale));
  const std::vector<std::string> flags = server_flags(w, o.seed);
  const std::string log = o.work_dir + "/server.log";

  // ---- set-up: boot the server (three times untraced; report the median) ----
  std::vector<double> boots;
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < (o.trace ? 1 : 3); ++k) {
    if (server) result.check(server->shutdown() == 0, "server exited non-zero after a boot");
    server = std::make_unique<ServerProcess>(server_binary(), flags, log);
    boots.push_back(server->boot_seconds());
  }
  std::cout << "setup: server boot x" << boots.size() << ", median " << median(boots) << " s\n";

  ResponseChecker checker(dataset, result);
  const double mid_rate = 0.5 * w.c0;
  const double mid_s = std::max(1.0, 0.4 * o.seconds);
  const double probe_s = std::max(0.5, 0.1 * o.seconds);
  // Warm-up: fill the cache and fault in the server's pages before timing.
  checker.check(run_leg(server->port(),
                        make_schedule(traffic_for(w, dataset, mid_rate, 0.5), o.seed ^ 0x3a3aULL)));
  const MidLeg mid = run_mid_leg(*server, checker, traffic_for(w, dataset, mid_rate, mid_s),
                                 o.seed, result, o.trace);

  if (!o.trace) {
    std::uint64_t probe_seed = o.seed * 1000 + 1;
    // Recommends answered per second of the highest passing probe (each
    // pass raises the bracket, so the last pass is the highest): the rate
    // the server sustained within the SLO, as achieved.
    double sustained = 0.0;
    const CapacitySearch search =
        bisect_capacity(0.25 * w.c0, 2.0 * w.c0, w.halvings, [&](double rate) {
          const LegSummary s = checker.check(run_leg(
              server->port(), make_schedule(traffic_for(w, dataset, rate, probe_s), probe_seed++)));
          bool pass = false;
          const std::string why = verdict(s, &pass);
          print_leg("probe", rate, s);
          std::cout << "  " << why << "\n";
          if (pass) sustained = static_cast<double>(s.rec_ms.size()) / probe_s;
          return pass;
        });
    if (!search.any_pass) {
      std::cout << "capacity: no probe passed; reporting the bracket floor\n";
      sustained = search.rate;
    }
    if (search.all_pass) std::cout << "capacity: every probe passed; the bracket saturated, recalibrate C0\n";
    const double peak = server->peak_rss_mb();
    result.check(server->shutdown() == 0, "server exited non-zero");
    result.set("setup_s", median(boots));
    result.set("throughput_per_s", sustained);
    result.set("latency_p50_ms", percentile(mid.summary.rec_ms, 0.5));
    result.set("peak_rss_mb", peak);
    return result;
  }
  result.check(server->shutdown() == 0, "server exited non-zero");

  // ---- the same stack in-process: once plain, then traced ----
  double untraced_s = 0.0;
  {
    PrepareClock unused;
    Stack plain = build_stack(w, o.seed, nullptr, unused);
    LocalServer local(plain);
    const Stopwatch t0;
    replay(mid.plan, local, nullptr, -1, result);
    untraced_s = t0.seconds();
  }
  cost::enable();
  const CostSnapshot cost_before = CostSnapshot::now();
  SpanRecorder spans;
  PrepareClock prepare;
  Stack stack;
  {
    ScopedSpan root(&spans, "replay");
    stack = build_stack(w, o.seed, &spans, prepare);
  }
  ReplayTimes times;
  double traced_s = 0.0;
  {
    LocalServer local(stack);
    {
      ScopedSpan root(&spans, "replay");
      const Stopwatch t0;
      times = replay(mid.plan, local, &spans, root.index(), result);
      traced_s = t0.seconds();
    }
    update_probe(local, o.seed, &spans, times);
  }
  attack_probe(stack, &spans, result);
  set_tensor_metrics(result, cost_before);
  set_stage_metrics(result, spans.spans(), prepare);
  set_replay_metrics(result, std::move(times), percentile(mid.summary.rec_ms, 0.5) * 1e3);
  result.set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0);
  {
    ScopedSpan probe(&spans, "probe/nn");
    nn_layer_probe(stack.pipeline->classifier(), stack.pipeline->catalog().images, result);
  }
  spans.write_chrome_json(o.trace_file);
  return result;
}

}  // namespace

Result run_serve_hot_swap(const RunOptions& options) {
  return run_serving(options, serve_workload(/*hot_swap=*/true, options.smoke));
}

Result run_serve_cold_scan(const RunOptions& options) {
  return run_serving(options, serve_workload(/*hot_swap=*/false, options.smoke));
}

void serve_layer_probe(const std::string& dataset_name, double scale, const RunOptions& o,
                       Result& result, SpanRecorder* spans) {
  ScopedSpan root(spans, "probe/serve");
  ServeWorkload w;
  w.dataset = dataset_name;
  w.scale = scale;
  w.update_rate = 20.0;
  if (o.smoke) {
    w.vbpr_epochs = 2;
    w.bpr_epochs = 2;
  }
  constexpr double kRate = 1000.0;
  const data::ImplicitDataset dataset =
      data::generate_synthetic_dataset(data::spec_by_name(w.dataset, w.scale));
  ResponseChecker checker(dataset, result);
  MidLeg mid;
  {
    ServerProcess server(server_binary(), server_flags(w, o.seed), o.work_dir + "/probe-server.log");
    mid = run_mid_leg(server, checker, traffic_for(w, dataset, kRate, 1.0), o.seed, result,
                      /*layer_metrics=*/true);
    result.check(server.shutdown() == 0, "probe server exited non-zero");
  }
  PrepareClock prepare;  // the probe's stack is not the workload's prepare
  Stack stack = build_stack(w, o.seed, spans, prepare);
  LocalServer local(stack);
  ReplayTimes times = replay(mid.plan, local, spans, root.index(), result);
  update_probe(local, o.seed, spans, times);
  set_replay_metrics(result, std::move(times), percentile(mid.summary.rec_ms, 0.5) * 1e3);
}

}  // namespace taamr::bench
