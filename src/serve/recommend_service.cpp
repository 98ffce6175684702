#include "serve/recommend_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recsys/ranker.hpp"

namespace taamr::serve {

namespace {

// Bucket edges of serve_request_seconds and of the rolling latency window,
// so rolling and lifetime quantiles interpolate over identical edges.
const std::vector<double> kRequestLatencyBounds = obs::exponential_bounds(1e-6, 2.0, 30);

}  // namespace

RecommendService::RecommendService(const data::ImplicitDataset& dataset,
                                   const ModelRegistry& registry,
                                   const FeatureStore& store, ServeConfig config)
    : dataset_(dataset),
      registry_(registry),
      store_(store),
      cache_(config.cache_capacity),
      request_seconds_(obs::MetricsRegistry::global().histogram(
          "serve_request_seconds", {}, kRequestLatencyBounds)),
      // One-second slots.
      latency_window_(static_cast<std::uint64_t>(kWindowSeconds) * 1000000ull,
                      static_cast<std::size_t>(kWindowSeconds),
                      kRequestLatencyBounds) {
  if (store_.num_items() != dataset_.num_items) {
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
      store_.changed_since(entry->feature_epoch);
  if (!changed.has_value()) {
    // Changelog window exceeded; cannot prove validity.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const bool list_full = static_cast<std::int64_t>(entry->items.size()) >= key.n;
  // Scored on first need by the one-user score_users call a miss makes
  // through rank_users, so the comparison with the tail below is exact.
  std::vector<float> row;
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
    // score-desc / id-asc order?
    if (row.empty()) {
      row.resize(static_cast<std::size_t>(dataset_.num_items));
      snap.model->score_users({&key.user, 1}, row);
    }
    const float s = row[static_cast<std::size_t>(c)];
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

void RecommendService::clear_cache() { cache_.clear(); }

RecommendService::Stats RecommendService::stats() const {
  Stats st;
  st.requests = requests_.load(std::memory_order_relaxed);
  st.cache_hits = hits_.load(std::memory_order_relaxed);
  st.cache_misses = misses_.load(std::memory_order_relaxed);
  st.cache_revalidated = revalidated_.load(std::memory_order_relaxed);
  st.slow_requests = slow_requests_.load(std::memory_order_relaxed);
  st.deadline_breaches = deadline_breaches_.load(std::memory_order_relaxed);
  const obs::SlidingWindowHistogram::Snapshot win = latency_window_.snapshot();
  st.rolling_p50_s = win.quantile(0.50);
  st.rolling_p90_s = win.quantile(0.90);
  st.rolling_p99_s = win.quantile(0.99);
  st.cache = cache_.stats();
  return st;
}

}  // namespace taamr::serve
