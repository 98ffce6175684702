// ShardRouter: partitions the user space N ways over per-shard
// RecommendServices so hot-swap fallout and cache churn stay local.
//
// Invariants:
//   * shard_of(user) is a pure function of (user, num_shards) — the same
//     user always lands on the same shard, so its cached lists and latency
//     accounting live in exactly one place.
//   * All shards share ONE ModelRegistry and ONE FeatureStore: model
//     versions and feature epochs are global axes. A hot swap advances the
//     shared epoch; each shard revalidates its own cache slice lazily on
//     that shard's next touch (serve/recommend_service.hpp), so a swap
//     never stalls sibling shards' request paths.
//   * Each shard owns its TopNCache slice (total capacity split N ways) and
//     its own rolling latency window — shard_stats(s).requests makes
//     imbalance visible.
//   * Feature updates are funneled through shard 0's service: one shared
//     update mutex serializes rebuild+swap sequences, and a single anomaly
//     scorer sees the full update stream no matter which connection
//     carried the update.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/recommend_service.hpp"

namespace taamr::serve {

struct ShardRouterConfig {
  // 0 = auto: max(1, hardware_concurrency / 2) — half the cores route
  // requests, the other half keeps scoring GEMMs and the event loop fed.
  std::int64_t num_shards = 0;
  ServeConfig service;          // per-shard knobs; cache_capacity is the
                                // TOTAL budget, split evenly across shards

  // Auto shard count over ServeConfig::from_env().
  static ShardRouterConfig from_env();
};

class ShardRouter {
 public:
  // dataset and registry must outlive the router. raw_features seeds the
  // shared feature store.
  ShardRouter(const data::ImplicitDataset& dataset, ModelRegistry& registry,
              Tensor raw_features,
              ShardRouterConfig config = ShardRouterConfig::from_env());

  std::size_t num_shards() const { return shards_.size(); }
  // Stable user -> shard mapping (splitmix64 of the user id, mod shards).
  std::size_t shard_of(std::int64_t user) const;

  // Routed equivalents of the RecommendService surface.
  Recommendation recommend(const std::string& model, std::int64_t user,
                           std::int64_t n, obs::RequestContext* ctx = nullptr);
  std::uint64_t update_item_features(std::int64_t item,
                                     std::span<const float> features);
  std::uint64_t update_item_features(std::int64_t item,
                                     std::span<const float> features,
                                     const RecommendService::UpdateOrigin& origin);
  void clear_cache();

  // Counters summed across shards; rolling quantiles are the max over
  // shards (the SLO question is "how bad is the worst shard right now").
  RecommendService::Stats stats() const;
  RecommendService::Stats shard_stats(std::size_t shard) const;
  // Refreshes the serve_rolling_{p50,p99}_seconds gauges from stats()
  // and returns the full Prometheus exposition. Backs the protocol's
  // {"op":"metrics"}.
  std::string metrics_text() const;

  const ServeConfig& config() const { return config_.service; }
  const FeatureStore& feature_store() const { return *store_; }
  const data::ImplicitDataset& dataset() const { return dataset_; }
  ModelRegistry& registry() { return registry_; }

 private:
  const data::ImplicitDataset& dataset_;
  ModelRegistry& registry_;
  ShardRouterConfig config_;
  std::shared_ptr<FeatureStore> store_;
  std::vector<std::unique_ptr<RecommendService>> shards_;
};

}  // namespace taamr::serve
