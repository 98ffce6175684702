#include "serve/shard_router.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

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

  auto& metrics = obs::MetricsRegistry::global();
  shards_.reserve(static_cast<std::size_t>(n));
  shard_requests_.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<RecommendService>(
        dataset_, registry_, store_, update_mutex, per_shard));
    shard_requests_.push_back(&metrics.counter(
        "serve_shard_requests_total", {{"shard", std::to_string(s)}}));
  }
  metrics.gauge("serve_shards").set(static_cast<double>(n));
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
  const std::size_t s = shard_of(user);
  shard_requests_[s]->increment();
  return shards_[s]->recommend(model, user, n, ctx);
}

std::vector<Recommendation> ShardRouter::recommend_batch(
    const std::string& model, std::span<const std::int64_t> users, std::int64_t n) {
  for (const std::int64_t u : users) {
    if (u < 0 || u >= dataset_.num_users) {
      throw std::invalid_argument("recommend_batch: user out of range");
    }
  }
  // Scatter by shard, batch per shard, gather back into request order.
  std::vector<std::vector<std::int64_t>> by_shard(shards_.size());
  std::vector<std::vector<std::size_t>> positions(shards_.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::size_t s = shard_of(users[i]);
    by_shard[s].push_back(users[i]);
    positions[s].push_back(i);
  }
  std::vector<Recommendation> results(users.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    shard_requests_[s]->add(static_cast<double>(by_shard[s].size()));
    std::vector<Recommendation> part =
        shards_[s]->recommend_batch(model, by_shard[s], n);
    for (std::size_t j = 0; j < part.size(); ++j) {
      results[positions[s][j]] = std::move(part[j]);
    }
  }
  return results;
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
    total.coalesced_batches += st.coalesced_batches;
    total.feature_swaps += st.feature_swaps;
    total.slow_requests += st.slow_requests;
    total.deadline_breaches += st.deadline_breaches;
    total.suspect_updates += st.suspect_updates;
    total.rolling_window_requests += st.rolling_window_requests;
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
  metrics.gauge("serve_rolling_p90_seconds").set(agg.rolling_p90_s);
  metrics.gauge("serve_rolling_p99_seconds").set(agg.rolling_p99_s);
  metrics.gauge("serve_rolling_window_requests")
      .set(static_cast<double>(agg.rolling_window_requests));
  return metrics.to_prometheus();
}

}  // namespace taamr::serve
