#include "serve/shard_router.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "util/rng.hpp"

namespace taamr::serve {

ShardRouter::ShardRouter(const data::ImplicitDataset& dataset, ModelRegistry& registry,
                         Tensor raw_features, ShardRouterConfig config)
    : dataset_(dataset),
      registry_(registry),
      store_(std::move(raw_features),
             static_cast<std::size_t>(config.service.update_log_window)) {
  std::int64_t n = config.num_shards;
  if (n == 0) {
    n = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::thread::hardware_concurrency()) / 2);
  }
  if (n < 1) throw std::invalid_argument("ShardRouter: num_shards must be >= 1");

  // Split the total cache budget; every shard keeps at least one entry.
  ServeConfig per_shard = config.service;
  per_shard.cache_capacity =
      std::max<std::int64_t>(1, per_shard.cache_capacity / n);

  shards_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    shards_.push_back(
        std::make_unique<RecommendService>(dataset_, registry_, store_, per_shard));
  }
}

std::size_t ShardRouter::shard_of(std::int64_t user) const {
  // splitmix64 finalizer: uncorrelated with the id's low bits, so
  // sequentially-issued user ids spread evenly instead of striping.
  std::uint64_t state = static_cast<std::uint64_t>(user);
  const std::uint64_t h = splitmix64(state);
  return static_cast<std::size_t>(h % shards_.size());
}

Recommendation ShardRouter::recommend(const std::string& model, std::int64_t user,
                                      std::int64_t n, obs::RequestContext* ctx) {
  // Any id hashes to a shard; the shard rejects one out of range.
  return shards_[shard_of(user)]->recommend(model, user, n, ctx);
}

std::uint64_t ShardRouter::update_item_features(
    std::int64_t item, std::span<const float> features,
    const RecommendService::UpdateOrigin& origin) {
  TAAMR_TRACE_SPAN("serve/feature_swap");
  std::lock_guard<std::mutex> lock(write_mutex_);
  // Previous row read before the write: the delta norms below are the
  // forensic core of the audit record.
  const std::vector<float> prev = store_.item_features(item);
  const std::uint64_t epoch = store_.update(item, features);
  const Tensor snapshot = store_.snapshot();

  const bool auditing = obs::AuditLog::global().enabled();
  obs::AuditRecord record;
  for (const std::string& name : registry_.names()) {
    const ModelRegistry::Snapshot snap = registry_.get(name);
    if (!snap.visual) continue;
    const auto* vbpr = dynamic_cast<const recsys::Vbpr*>(snap.model.get());
    if (vbpr == nullptr) continue;
    // Copy-on-write rebuild: in-flight requests keep scoring the old
    // immutable model; the registry flips to the rebuilt one atomically.
    // An AMR model slices to its Vbpr storage here, which scores
    // identically (serving never trains).
    auto rebuilt = std::make_shared<recsys::Vbpr>(*vbpr);
    rebuilt->set_item_features(snapshot);
    if (auditing && record.rank_shifts.empty()) {
      // Rank-shift sample against the first visual model: where did the
      // pushed item sit for a few probe users before and after this swap?
      // 0-based; -1 when the probe user trained on the item.
      const std::int32_t probed[1] = {static_cast<std::int32_t>(item)};
      const auto probe_rank = [&](const recsys::Recommender& m, std::int64_t u) {
        const std::int64_t r = recsys::item_ranks(m, dataset_, u, probed).front();
        return r < 0 ? r : r - 1;
      };
      const std::int64_t probes = std::min<std::int64_t>(3, dataset_.num_users);
      for (std::int64_t u = 0; u < probes; ++u) {
        record.rank_shifts.push_back(
            obs::RankShift{u, probe_rank(*snap.model, u), probe_rank(*rebuilt, u)});
      }
    }
    registry_.swap_features(name, std::move(rebuilt), epoch);
  }
  feature_swaps_.fetch_add(1, std::memory_order_relaxed);

  double linf = 0.0;
  double l2 = 0.0;
  for (std::size_t i = 0; i < prev.size(); ++i) {
    const double d = static_cast<double>(features[i]) - prev[i];
    linf = std::max(linf, std::abs(d));
    l2 += d * d;
  }
  l2 = std::sqrt(l2);

  const std::uint64_t now_us = obs::monotonic_us();
  const obs::UpdateAnomalyScorer::Verdict verdict =
      anomaly_scorer_.score(item, l2, now_us);
  if (verdict.suspect) {
    suspect_updates_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("serve_suspect_update_total", {{"reason", verdict.reason}})
        .increment();
  }
  if (auditing) {
    record.t_us = now_us;
    record.item = item;
    record.epoch = epoch;
    record.source = origin.source;
    record.linf_delta = linf;
    record.l2_delta = l2;
    record.ssim = origin.ssim;
    record.rate_ewma = verdict.rate_ewma;
    record.delta_z = verdict.z;
    record.suspect = verdict.suspect;
    record.reason = verdict.reason;
    obs::AuditLog::global().append(record);
  }
  return epoch;
}

void ShardRouter::swap_model(const std::string& name, const std::string& kind,
                             const std::string& path) {
  TAAMR_TRACE_SPAN("serve/model_load");
  std::lock_guard<std::mutex> lock(write_mutex_);
  // A client may replace a model, not add one: every name costs a model
  // copy that each feature push rebuilds, and nothing removes names.
  if (!registry_.has(name)) {
    throw std::runtime_error("swap_model: unknown model '" + name + "'");
  }
  if (kind == "vbpr") {
    // The checkpoint's own feature rows predate any push since it was
    // saved; rebuild against the store, as a feature swap does, and stamp
    // the store's epoch.
    auto model = std::make_shared<recsys::Vbpr>(recsys::Vbpr::load_file(path, dataset_));
    model->set_item_features(store_.snapshot());
    registry_.register_model(name, std::move(model), /*visual=*/true, store_.epoch());
  } else if (kind == "bpr_mf") {
    registry_.register_model(
        name, std::make_shared<recsys::BprMf>(recsys::BprMf::load_file(path, dataset_)),
        /*visual=*/false);
  } else {
    throw std::invalid_argument("swap_model: kind must be \"vbpr\" or \"bpr_mf\"");
  }
}

std::string ShardRouter::respond(const Request& req, obs::RequestContext* ctx) {
  switch (req.op) {
    case Op::kRecommend: {
      const Recommendation rec = recommend(req.model, req.user, req.n, ctx);
      std::string out = format_recommendation(rec);
      if (ctx != nullptr) {
        ctx->mark("serialize");
        // The debug echo re-renders with the full stage attribution,
        // including the serialize stage just closed.
        if (req.debug) out = format_recommendation(rec, ctx);
        ctx->publish();
      }
      return out;
    }
    case Op::kUpdateFeatures:
      return format_ok("\"epoch\":" +
                       std::to_string(update_item_features(req.item, req.features)));
    case Op::kSwapModel:
      swap_model(req.model, req.kind, req.path);
      // The name is client text: unescaped, a quote or newline in it would
      // break the one-line JSON answer.
      return format_ok("\"model\":\"" + obs::json::escape(req.model) + "\"");
    case Op::kModels:
      return format_models(registry_.names());
    case Op::kStats:
      return format_stats(stats());
    case Op::kMetrics: {
      auto& metrics = obs::MetricsRegistry::global();
      const RouterStats agg = stats();
      metrics.gauge("serve_rolling_p50_seconds").set(agg.rolling_p50_s);
      metrics.gauge("serve_rolling_p99_seconds").set(agg.rolling_p99_s);
      // Ends with "# EOF" so clients know where the response stops; the
      // writer appends the final newline, as for every response.
      std::string text = metrics.to_prometheus();
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return text;
    }
    case Op::kUpdateImage:
    case Op::kProfile:
    case Op::kShutdown:
      break;
  }
  throw std::invalid_argument("this op acts on the server process, not the router");
}

std::unique_ptr<EventLoop> ShardRouter::front_door(EventLoopConfig config,
                                                   EventLoop::Handler handler) const {
  return std::make_unique<EventLoop>(
      config, num_shards(),
      [this](const std::string& line) {
        const std::int64_t user = peek_user(line);
        return user >= 0 ? shard_of(user) : std::size_t{0};
      },
      std::move(handler), max_request_bytes(store_.feature_dim()));
}

void ShardRouter::clear_cache() {
  for (auto& shard : shards_) shard->clear_cache();
}

RecommendService::Stats ShardRouter::shard_stats(std::size_t shard) const {
  return shards_[shard]->stats();
}

RouterStats ShardRouter::stats() const {
  RouterStats total;
  for (const auto& shard : shards_) {
    const RecommendService::Stats st = shard->stats();
    total.requests += st.requests;
    total.cache_hits += st.cache_hits;
    total.cache_misses += st.cache_misses;
    total.cache_revalidated += st.cache_revalidated;
    total.slow_requests += st.slow_requests;
    total.deadline_breaches += st.deadline_breaches;
    // Worst shard defines the SLO story; averaging would hide a hot shard.
    total.rolling_p50_s = std::max(total.rolling_p50_s, st.rolling_p50_s);
    total.rolling_p90_s = std::max(total.rolling_p90_s, st.rolling_p90_s);
    total.rolling_p99_s = std::max(total.rolling_p99_s, st.rolling_p99_s);
    total.cache.evictions += st.cache.evictions;
    total.cache.size += st.cache.size;
    total.cache.capacity += st.cache.capacity;
  }
  total.feature_swaps = feature_swaps_.load(std::memory_order_relaxed);
  total.suspect_updates = suspect_updates_.load(std::memory_order_relaxed);
  total.audit_records = obs::AuditLog::global().records_written();
  return total;
}

}  // namespace taamr::serve
