#include "serve/shard_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace taamr::serve {

ShardRouterConfig ShardRouterConfig::from_env() {
  ShardRouterConfig c;
  c.service = ServeConfig::from_env();
  return c;
}

ShardRouter::ShardRouter(const data::ImplicitDataset& dataset, ModelRegistry& registry,
                         Tensor raw_features, ShardRouterConfig config)
    : dataset_(dataset), registry_(registry), config_(config) {
  std::int64_t n = config_.num_shards;
  if (n == 0) {
    n = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::thread::hardware_concurrency()) / 2);
  }
  if (n < 1) throw std::invalid_argument("ShardRouter: num_shards must be >= 1");
  config_.num_shards = n;

  store_ = std::make_shared<FeatureStore>(
      std::move(raw_features),
      static_cast<std::size_t>(config_.service.update_log_window));
  auto update_mutex = std::make_shared<std::mutex>();

  // Split the total cache budget; every shard keeps at least one entry.
  ServeConfig per_shard = config_.service;
  per_shard.cache_capacity =
      std::max<std::int64_t>(1, per_shard.cache_capacity / n);

  shards_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<RecommendService>(
        dataset_, registry_, store_, update_mutex, per_shard));
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
  if (user < 0 || user >= dataset_.num_users) {
    throw std::invalid_argument("recommend: user out of range");
  }
  return shards_[shard_of(user)]->recommend(model, user, n, ctx);
}

std::uint64_t ShardRouter::update_item_features(std::int64_t item,
                                                std::span<const float> features) {
  return shards_[0]->update_item_features(item, features);
}

std::uint64_t ShardRouter::update_item_features(
    std::int64_t item, std::span<const float> features,
    const RecommendService::UpdateOrigin& origin) {
  return shards_[0]->update_item_features(item, features, origin);
}

void ShardRouter::clear_cache() {
  for (auto& shard : shards_) shard->clear_cache();
}

RecommendService::Stats ShardRouter::shard_stats(std::size_t shard) const {
  return shards_[shard]->stats();
}

RecommendService::Stats ShardRouter::stats() const {
  RecommendService::Stats total;
  for (const auto& shard : shards_) {
    const RecommendService::Stats st = shard->stats();
    total.requests += st.requests;
    total.cache_hits += st.cache_hits;
    total.cache_misses += st.cache_misses;
    total.cache_revalidated += st.cache_revalidated;
    total.feature_swaps += st.feature_swaps;
    total.slow_requests += st.slow_requests;
    total.deadline_breaches += st.deadline_breaches;
    total.suspect_updates += st.suspect_updates;
    // Worst shard defines the SLO story; averaging would hide a hot shard.
    total.rolling_p50_s = std::max(total.rolling_p50_s, st.rolling_p50_s);
    total.rolling_p90_s = std::max(total.rolling_p90_s, st.rolling_p90_s);
    total.rolling_p99_s = std::max(total.rolling_p99_s, st.rolling_p99_s);
    total.cache.evictions += st.cache.evictions;
    total.cache.size += st.cache.size;
    total.cache.capacity += st.cache.capacity;
  }
  // audit_records is a process-global counter, not per-shard; don't sum.
  total.audit_records = obs::AuditLog::global().records_written();
  return total;
}

std::string ShardRouter::metrics_text() const {
  auto& metrics = obs::MetricsRegistry::global();
  const RecommendService::Stats agg = stats();
  metrics.gauge("serve_rolling_p50_seconds").set(agg.rolling_p50_s);
  metrics.gauge("serve_rolling_p99_seconds").set(agg.rolling_p99_s);
  return metrics.to_prometheus();
}

}  // namespace taamr::serve
