// ShardRouter: the serving engine's one writer, and the router that
// partitions the user space N ways over read-only RecommendService shards
// so cache churn stays local.
//
// Invariants:
//   * shard_of(user) is a pure function of (user, num_shards) — the same
//     user always lands on the same shard, so its cached lists and latency
//     accounting live in exactly one place.
//   * The router owns the FeatureStore and is the only writer of it and of
//     the shared ModelRegistry while serving: feature pushes
//     (update_item_features) and checkpoint loads (swap_model) run under
//     one writer mutex, so every visual model in the registry is built from
//     the store at its feature_epoch. Shards only read both, so model
//     versions and feature epochs are global axes; each shard revalidates
//     its own cache slice lazily on its next touch
//     (serve/recommend_service.hpp), and a swap never stalls request paths.
//   * Each shard owns its TopNCache slice (total capacity split N ways) and
//     its own rolling latency window — shard_stats(s).requests makes
//     imbalance visible.
//   * One anomaly scorer sees the full update stream, whichever connection
//     carried each update.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/recommend_service.hpp"

namespace taamr::serve {

struct ShardRouterConfig {
  // 0 = auto: max(1, hardware_concurrency / 2) — half the cores route
  // requests, the other half keeps scoring GEMMs and the event loop fed.
  std::int64_t num_shards = 0;
  ServeConfig service;          // per-shard settings; cache_capacity is the
                                // TOTAL budget, split evenly across shards
};

// What {"op":"stats"} reports: the shard counters summed, plus the counters
// only the router keeps.
struct RouterStats : RecommendService::Stats {
  std::uint64_t feature_swaps = 0;
  std::uint64_t suspect_updates = 0;  // anomaly-scorer flags
  std::uint64_t audit_records = 0;    // process-wide JSONL lines written
};

class ShardRouter {
 public:
  // dataset and registry must outlive the router. raw_features seeds the
  // feature store ([num_items, D], un-standardized).
  ShardRouter(const data::ImplicitDataset& dataset, ModelRegistry& registry,
              Tensor raw_features,
              ShardRouterConfig config = {});

  std::size_t num_shards() const { return shards_.size(); }
  // Stable user -> shard mapping (splitmix64 of the user id, mod shards).
  std::size_t shard_of(std::int64_t user) const;

  Recommendation recommend(const std::string& model, std::int64_t user,
                           std::int64_t n, obs::RequestContext* ctx = nullptr);

  // Hot feature swap: new raw feature row for `item`, every visual model
  // rebuilt against the store snapshot and swapped in. Returns the new
  // feature epoch. Feeds the anomaly scorer
  // (serve_suspect_update_total{reason=...}) and, when $TAAMR_AUDIT_LOG is
  // set, appends a JSONL audit record with a rank-shift sample for a few
  // probe users.
  std::uint64_t update_item_features(std::int64_t item,
                                     std::span<const float> features,
                                     const RecommendService::UpdateOrigin& origin = {});

  // Checkpoint load: replaces the model the registry holds under `name`
  // with the checkpoint at `path`, kind "vbpr" (VBPR/AMR; an AMR checkpoint
  // loads as a Vbpr and scores identically) or "bpr_mf", and bumps its
  // version. Throws std::runtime_error for a name the registry lacks. A
  // visual model serves the store's current rows, not the ones saved with it.
  void swap_model(const std::string& name, const std::string& kind,
                  const std::string& path);

  // The response line for a parsed recommend, update_features, swap_model,
  // models, stats or metrics request (metrics: the Prometheus exposition,
  // serve_rolling_{p50,p99}_seconds refreshed, without its final newline).
  // Throws for a failed request and for the ops that act on the server
  // process; callers wrap that in format_error. With `ctx`, a recommend
  // marks "serialize", echoes the stages when asked ("debug") and publishes.
  std::string respond(const Request& req, obs::RequestContext* ctx = nullptr);

  // The JSONL front door over this router, which must outlive it: one queue
  // per shard, each line queued on the shard its "user" hashes to (peek_user,
  // a placement hint only) and capped at max_request_bytes for the store's
  // feature dimension. `handler` answers each line.
  std::unique_ptr<EventLoop> front_door(EventLoopConfig config,
                                        EventLoop::Handler handler) const;

  void clear_cache();

  // Counters summed across shards; rolling quantiles are the max over
  // shards (the SLO question is "how bad is the worst shard right now").
  RouterStats stats() const;
  RecommendService::Stats shard_stats(std::size_t shard) const;

  const FeatureStore& feature_store() const { return store_; }
  const data::ImplicitDataset& dataset() const { return dataset_; }

 private:
  const data::ImplicitDataset& dataset_;
  ModelRegistry& registry_;
  FeatureStore store_;
  std::vector<std::unique_ptr<RecommendService>> shards_;

  // Serializes every store and registry write (feature pushes, checkpoint
  // loads) and guards the anomaly scorer's update stream.
  std::mutex write_mutex_;
  obs::UpdateAnomalyScorer anomaly_scorer_;
  std::atomic<std::uint64_t> feature_swaps_{0};
  std::atomic<std::uint64_t> suspect_updates_{0};
};

}  // namespace taamr::serve
