#include "serve/recommend_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace taamr::serve {

namespace {

// Users per gathered GEMM tile when scoring a batch of misses.
constexpr std::int64_t kScoreTile = 64;

Recommendation cached_recommendation(std::int64_t user, CacheEntry entry) {
  Recommendation rec;
  rec.user = user;
  rec.items = std::move(entry.items);
  rec.cached = true;
  rec.model_version = entry.model_version;
  rec.feature_epoch = entry.feature_epoch;
  return rec;
}

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
      // One-second slots, same bucket layout as serve_request_seconds so
      // rolling and lifetime quantiles interpolate over identical edges.
      latency_window_(static_cast<std::uint64_t>(kWindowSeconds) * 1000000ull,
                      static_cast<std::size_t>(kWindowSeconds),
                      obs::exponential_bounds(1e-6, 2.0, 30)) {
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
    // score-desc / id-asc order?
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

void RecommendService::score_misses(const ModelRegistry::Snapshot& snap,
                                    const std::string& model,
                                    std::span<const std::int64_t> users, std::int64_t n,
                                    std::span<Recommendation*> out) {
  TAAMR_TRACE_SPAN("serve/score_batch");
  const std::int64_t num_items = dataset_.num_items;
  const std::int64_t count = static_cast<std::int64_t>(users.size());
  std::vector<float> scores(static_cast<std::size_t>(count * num_items));
  const std::int64_t num_tiles = (count + kScoreTile - 1) / kScoreTile;
  taamr::parallel_for(0, static_cast<std::size_t>(num_tiles), [&](std::size_t t) {
    const std::int64_t begin = static_cast<std::int64_t>(t) * kScoreTile;
    const std::int64_t end = std::min<std::int64_t>(begin + kScoreTile, count);
    std::span<float> tile(scores.data() + begin * num_items,
                          static_cast<std::size_t>((end - begin) * num_items));
    snap.model->score_users(users.subspan(static_cast<std::size_t>(begin),
                                          static_cast<std::size_t>(end - begin)),
                            tile);
    for (std::int64_t r = begin; r < end; ++r) {
      float* row = scores.data() + r * num_items;
      const std::int64_t user = users[static_cast<std::size_t>(r)];
      for (const std::int32_t it : dataset_.train[static_cast<std::size_t>(user)]) {
        row[it] = -std::numeric_limits<float>::infinity();
      }
      Recommendation& rec = *out[static_cast<std::size_t>(r)];
      rec.user = user;
      rec.items = recsys::top_n_from_row({row, static_cast<std::size_t>(num_items)},
                                         n, /*drop_masked=*/true);
      rec.cached = false;
      rec.model_version = snap.version;
      rec.feature_epoch = snap.feature_epoch;
      cache_.put(CacheKey{model, user, n},
                 CacheEntry{rec.items, snap.version, snap.feature_epoch});
    }
  });
}

std::vector<Recommendation> RecommendService::recommend_batch(
    const std::string& model, std::span<const std::int64_t> users, std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("recommend_batch: n must be positive");
  for (const std::int64_t u : users) {
    if (u < 0 || u >= dataset_.num_users) {
      throw std::invalid_argument("recommend_batch: user out of range");
    }
  }
  const ModelRegistry::Snapshot snap = registry_.get(model);
  count_requests(model, users.size());

  std::vector<Recommendation> results(users.size());
  std::vector<std::int64_t> miss_users;
  std::vector<Recommendation*> miss_out;
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (std::optional<CacheEntry> entry = lookup(CacheKey{model, users[i], n}, snap)) {
      results[i] = cached_recommendation(users[i], std::move(*entry));
    } else {
      miss_users.push_back(users[i]);
      miss_out.push_back(&results[i]);
    }
  }
  if (miss_users.size() > 1) {
    coalesced_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!miss_users.empty()) score_misses(snap, model, miss_users, n, miss_out);
  return results;
}

void RecommendService::observe_request(double seconds) {
  obs::MetricsRegistry::global()
      .histogram("serve_request_seconds", {},
                 obs::exponential_bounds(1e-6, 2.0, 30))
      .observe(seconds);
  latency_window_.observe(seconds);
  if (seconds > kSloSeconds) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("serve_slow_requests_total")
        .increment();
  }
  if (seconds > 2.0 * kSloSeconds) {
    deadline_breaches_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global()
        .counter("serve_deadline_breach_total")
        .increment();
  }
}

void RecommendService::count_requests(const std::string& model, std::size_t count) {
  requests_.fetch_add(count, std::memory_order_relaxed);
  obs::MetricsRegistry::global()
      .counter("serve_requests_total", {{"model", model}})
      .add(static_cast<double>(count));
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
  count_requests(model, 1);

  Recommendation rec;
  std::optional<CacheEntry> entry = lookup(CacheKey{model, user, n}, snap);
  if (ctx != nullptr) ctx->mark("cache_lookup");
  if (entry.has_value()) {
    rec = cached_recommendation(user, std::move(*entry));
  } else {
    const std::int64_t users[1] = {user};
    Recommendation* out[1] = {&rec};
    score_misses(snap, model, users, n, out);
    if (ctx != nullptr) ctx->mark("score");
  }
  observe_request(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  return rec;
}

std::int64_t RecommendService::item_rank(const recsys::Recommender& model,
                                         std::int64_t user,
                                         std::int64_t item) const {
  const float target = model.score(user, item);
  std::int64_t rank = 0;
  for (std::int64_t j = 0; j < dataset_.num_items; ++j) {
    if (j == item) continue;
    if (dataset_.user_interacted(user, static_cast<std::int32_t>(j))) continue;
    const float s = model.score(user, j);
    // Canonical serving order: score desc, id asc on ties.
    if (s > target || (s == target && j < item)) ++rank;
  }
  return rank;
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
      const std::int64_t probes = std::min<std::int64_t>(3, dataset_.num_users);
      for (std::int64_t u = 0; u < probes; ++u) {
        record.rank_shifts.push_back(obs::RankShift{
            u, item_rank(*snap.model, u, item), item_rank(*rebuilt, u, item)});
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
  st.coalesced_batches = coalesced_batches_.load(std::memory_order_relaxed);
  st.feature_swaps = feature_swaps_.load(std::memory_order_relaxed);
  st.slow_requests = slow_requests_.load(std::memory_order_relaxed);
  st.deadline_breaches = deadline_breaches_.load(std::memory_order_relaxed);
  st.suspect_updates = suspect_updates_.load(std::memory_order_relaxed);
  st.audit_records = obs::AuditLog::global().records_written();
  const obs::SlidingWindowHistogram::Snapshot win = latency_window_.snapshot();
  st.rolling_p50_s = win.quantile(0.50);
  st.rolling_p90_s = win.quantile(0.90);
  st.rolling_p99_s = win.quantile(0.99);
  st.rolling_window_requests = win.count;
  st.cache = cache_.stats();
  return st;
}

std::string RecommendService::metrics_text() const {
  auto& registry = obs::MetricsRegistry::global();
  const obs::SlidingWindowHistogram::Snapshot win = latency_window_.snapshot();
  // Refreshed at scrape time: gauges are the natural exposition for a
  // quantile that decays as its window slides.
  registry.gauge("serve_rolling_p50_seconds").set(win.quantile(0.50));
  registry.gauge("serve_rolling_p90_seconds").set(win.quantile(0.90));
  registry.gauge("serve_rolling_p99_seconds").set(win.quantile(0.99));
  registry.gauge("serve_rolling_window_requests")
      .set(static_cast<double>(win.count));
  return registry.to_prometheus();
}

}  // namespace taamr::serve
