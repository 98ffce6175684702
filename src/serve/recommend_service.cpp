#include "serve/recommend_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "util/env.hpp"

namespace taamr::serve {

namespace {

// Bucket edges of serve_request_seconds and of the rolling latency window,
// so rolling and lifetime quantiles interpolate over identical edges.
const std::vector<double> kRequestLatencyBounds = obs::exponential_bounds(1e-6, 2.0, 30);

}  // namespace

ServeConfig ServeConfig::from_env() {
  ServeConfig c;
  c.cache_capacity = env::get_int("TAAMR_SERVE_CACHE_CAP", c.cache_capacity);
  return c;
}

RecommendService::RecommendService(const data::ImplicitDataset& dataset,
                                   ModelRegistry& registry, Tensor raw_features,
                                   ServeConfig config)
    : RecommendService(dataset, registry,
                       std::make_shared<FeatureStore>(
                           std::move(raw_features),
                           static_cast<std::size_t>(config.update_log_window)),
                       std::make_shared<std::mutex>(), config) {}

RecommendService::RecommendService(const data::ImplicitDataset& dataset,
                                   ModelRegistry& registry,
                                   std::shared_ptr<FeatureStore> store,
                                   std::shared_ptr<std::mutex> update_mutex,
                                   ServeConfig config)
    : dataset_(dataset),
      registry_(registry),
      store_(std::move(store)),
      config_(config),
      cache_(config.cache_capacity),
      update_mutex_(std::move(update_mutex)),
      request_seconds_(obs::MetricsRegistry::global().histogram(
          "serve_request_seconds", {}, kRequestLatencyBounds)),
      // One-second slots.
      latency_window_(static_cast<std::uint64_t>(kWindowSeconds) * 1000000ull,
                      static_cast<std::size_t>(kWindowSeconds),
                      kRequestLatencyBounds) {
  if (store_ == nullptr || update_mutex_ == nullptr) {
    throw std::invalid_argument("RecommendService: null store or update mutex");
  }
  if (store_->num_items() != dataset_.num_items) {
    throw std::invalid_argument(
        "RecommendService: feature rows must match dataset items");
  }
}

std::optional<CacheEntry> RecommendService::lookup(const CacheKey& key,
                                                   const ModelRegistry::Snapshot& snap) {
  std::optional<CacheEntry> entry = cache_.get(key);
  if (!entry.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (entry->model_version != snap.version) {
    // New checkpoint: everything computed against the old one is stale.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (entry->feature_epoch == snap.feature_epoch) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }
  // Feature epoch drifted: revalidate against the exact set of changed
  // items. The store may be ahead of snap.feature_epoch (a swap in flight);
  // checking against its current epoch only over-approximates the changed
  // set, which is safe.
  const std::optional<std::vector<std::int32_t>> changed =
      store_->changed_since(entry->feature_epoch);
  if (!changed.has_value()) {
    // Changelog window exceeded; cannot prove validity.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const bool list_full = static_cast<std::int64_t>(entry->items.size()) >= key.n;
  for (const std::int32_t c : changed.value()) {
    if (dataset_.user_interacted(key.user, c)) {
      continue;  // never servable for this user
    }
    const bool in_list =
        std::any_of(entry->items.begin(), entry->items.end(),
                    [c](const recsys::ScoredItem& s) { return s.item == c; });
    if (in_list) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (!list_full) {
      // A short list already holds every servable item, so a servable
      // changed item would have matched in_list above. Nothing to do.
      continue;
    }
    // Could the changed item displace the tail under the canonical
    // score-desc / id-asc order? Known gap: score() and the score_users
    // GEMM that built the tail can differ in the low bits, so a near tie
    // is not decided exactly (DESIGN.md §8).
    const float s = snap.model->score(key.user, c);
    const recsys::ScoredItem& tail = entry->items.back();
    if (s > tail.score || (s == tail.score && c < tail.item)) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }
  // Entry survived: every in-list score is unchanged and no changed item
  // can enter. Re-stamp so the next hit skips the changelog walk.
  cache_.touch_epoch(key, snap.version, snap.feature_epoch);
  entry->model_version = snap.version;
  entry->feature_epoch = snap.feature_epoch;
  hits_.fetch_add(1, std::memory_order_relaxed);
  revalidated_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void RecommendService::observe_request(double seconds) {
  request_seconds_.observe(seconds);
  latency_window_.observe(seconds);
  if (seconds > kSloSeconds) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  if (seconds > 2.0 * kSloSeconds) {
    deadline_breaches_.fetch_add(1, std::memory_order_relaxed);
  }
}

Recommendation RecommendService::recommend(const std::string& model, std::int64_t user,
                                           std::int64_t n, obs::RequestContext* ctx) {
  TAAMR_TRACE_SPAN("serve/request");
  const auto t0 = std::chrono::steady_clock::now();
  if (n <= 0) throw std::invalid_argument("recommend: n must be positive");
  if (user < 0 || user >= dataset_.num_users) {
    throw std::invalid_argument("recommend: user out of range");
  }
  const ModelRegistry::Snapshot snap = registry_.get(model);
  requests_.fetch_add(1, std::memory_order_relaxed);

  Recommendation rec;
  rec.user = user;
  const CacheKey key{model, user, n};
  std::optional<CacheEntry> entry = lookup(key, snap);
  if (ctx != nullptr) ctx->mark("cache_lookup");
  if (entry.has_value()) {
    rec.items = std::move(entry->items);
    rec.cached = true;
    rec.model_version = entry->model_version;
    rec.feature_epoch = entry->feature_epoch;
  } else {
    TAAMR_TRACE_SPAN("serve/score");
    const std::int64_t users[1] = {user};
    rec.items = std::move(recsys::rank_users(*snap.model, dataset_, users, n).front());
    rec.model_version = snap.version;
    rec.feature_epoch = snap.feature_epoch;
    cache_.put(key, CacheEntry{rec.items, snap.version, snap.feature_epoch});
    if (ctx != nullptr) ctx->mark("score");
  }
  observe_request(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return rec;
}

std::uint64_t RecommendService::update_item_features(std::int64_t item,
                                                     std::span<const float> features) {
  return update_item_features(item, features, UpdateOrigin{});
}

std::uint64_t RecommendService::update_item_features(std::int64_t item,
                                                     std::span<const float> features,
                                                     const UpdateOrigin& origin) {
  TAAMR_TRACE_SPAN("serve/feature_swap");
  std::lock_guard<std::mutex> lock(*update_mutex_);
  // Previous row read before the write: the delta norms below are the
  // forensic core of the audit record.
  const std::vector<float> prev = store_->item_features(item);
  const std::uint64_t epoch = store_->update(item, features);
  const Tensor snapshot = store_->snapshot();

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

void RecommendService::clear_cache() { cache_.clear(); }

RecommendService::Stats RecommendService::stats() const {
  Stats st;
  st.requests = requests_.load(std::memory_order_relaxed);
  st.cache_hits = hits_.load(std::memory_order_relaxed);
  st.cache_misses = misses_.load(std::memory_order_relaxed);
  st.cache_revalidated = revalidated_.load(std::memory_order_relaxed);
  st.feature_swaps = feature_swaps_.load(std::memory_order_relaxed);
  st.slow_requests = slow_requests_.load(std::memory_order_relaxed);
  st.deadline_breaches = deadline_breaches_.load(std::memory_order_relaxed);
  st.suspect_updates = suspect_updates_.load(std::memory_order_relaxed);
  st.audit_records = obs::AuditLog::global().records_written();
  const obs::SlidingWindowHistogram::Snapshot win = latency_window_.snapshot();
  st.rolling_p50_s = win.quantile(0.50);
  st.rolling_p90_s = win.quantile(0.90);
  st.rolling_p99_s = win.quantile(0.99);
  st.cache = cache_.stats();
  return st;
}

}  // namespace taamr::serve
