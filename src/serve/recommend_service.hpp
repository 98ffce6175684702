// RecommendService: the thread-safe online query surface over a
// ModelRegistry + FeatureStore + TopNCache.
//
// Request path (recommend):
//   1. snapshot the model entry (lock-free scoring against an immutable
//      model — hot swaps never tear an in-flight request);
//   2. cache lookup with revalidation (below);
//   3. on miss, rank the user through recsys::rank_users (the same path
//      the offline evaluation takes) and cache the list. Lists never hold
//      the user's training items (the evaluation protocol).
//
// Cache validity (the epoch-invalidation contract):
//   * entry.model_version != current  -> recompute (new checkpoint);
//   * entry.feature_epoch == current  -> hit;
//   * else ask the FeatureStore which items changed in between; the entry
//     survives iff no changed item is in the cached list and none can
//     enter it (per-item score vs the list's tail, using the canonical
//     score-desc/id-asc tie-break). Surviving entries are re-stamped
//     (Stats::cache_revalidated) — this is what makes a hot feature
//     swap invalidate only the affected lists.
//
// update_item_features serializes writers, pushes the new row into the
// store, rebuilds every visual model against the snapshot and swap_features
// it into the registry. Readers are never blocked: they score whichever
// immutable model snapshot they hold. Every update also feeds the
// attack-forensics trail (obs/audit.hpp): feature-delta norms, a streaming
// anomaly verdict (serve_suspect_update_total{reason=...}), and — when
// $TAAMR_AUDIT_LOG is set — a JSONL audit record with a rank-shift sample
// for a few probe users.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/sliding_window.hpp"
#include "serve/feature_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/topn_cache.hpp"

namespace taamr::serve {

struct ServeConfig {
  std::int64_t cache_capacity = 4096;    // TAAMR_SERVE_CACHE_CAP
  std::int64_t update_log_window = 256;  // feature-store change-log length

  // Defaults plus TAAMR_SERVE_CACHE_CAP (util/env.hpp rules).
  static ServeConfig from_env();
};

// SLO threshold: a request slower than kSloSeconds counts as slow, slower
// than twice it as a deadline breach.
inline constexpr double kSloSeconds = 0.050;
// Rolling-quantile window: serve_rolling_p99 and friends reflect the last
// kWindowSeconds, not process lifetime.
inline constexpr std::int64_t kWindowSeconds = 30;

struct Recommendation {
  std::int64_t user = 0;
  std::vector<recsys::ScoredItem> items;  // ranked best-first
  bool cached = false;
  std::uint64_t model_version = 0;
  std::uint64_t feature_epoch = 0;
};

class RecommendService {
 public:
  // dataset and registry must outlive the service. raw_features seeds the
  // feature store ([num_items, D], un-standardized).
  RecommendService(const data::ImplicitDataset& dataset, ModelRegistry& registry,
                   Tensor raw_features, ServeConfig config = ServeConfig::from_env());

  // Shard constructor: several services (one per shard) share one
  // FeatureStore and one update mutex over a common registry, so a feature
  // swap advances a single epoch axis that every shard's changelog walk
  // agrees on. Writers must serialize on the shared mutex across ALL
  // sharing services — ShardRouter additionally funnels every update
  // through one designated service so the anomaly scorer sees the full
  // update stream. store and update_mutex must be non-null.
  RecommendService(const data::ImplicitDataset& dataset, ModelRegistry& registry,
                   std::shared_ptr<FeatureStore> store,
                   std::shared_ptr<std::mutex> update_mutex, ServeConfig config);

  // Top-n for one user. Throws std::runtime_error for unknown models,
  // std::invalid_argument for bad user/n. When `ctx` is non-null the
  // request's per-stage latency (cache_lookup / score) is attributed to it.
  Recommendation recommend(const std::string& model, std::int64_t user,
                           std::int64_t n, obs::RequestContext* ctx = nullptr);

  // Provenance attached to a feature update for the audit trail. `ssim`
  // carries the front-end's structural similarity vs the item's previous
  // rendered image when it has one (-1 = unavailable; feature-only updates
  // have no image to compare).
  struct UpdateOrigin {
    const char* source = "update_features";
    double ssim = -1.0;
  };

  // Hot feature swap: new raw feature row for `item`, visual models rebuilt
  // and atomically swapped. Returns the new feature epoch. Thread-safe
  // against concurrent recommend() calls and other updates. Feeds the
  // anomaly scorer and, when enabled, the audit log; the no-origin overload
  // records the default "update_features" provenance.
  std::uint64_t update_item_features(std::int64_t item,
                                     std::span<const float> features);
  std::uint64_t update_item_features(std::int64_t item,
                                     std::span<const float> features,
                                     const UpdateOrigin& origin);

  // Drops every cached list (counters are kept). Lets benchmarks compare
  // phases from identical cold-cache states.
  void clear_cache();

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_revalidated = 0;  // subset of cache_hits
    std::uint64_t feature_swaps = 0;
    std::uint64_t slow_requests = 0;      // latency > kSloSeconds
    std::uint64_t deadline_breaches = 0;  // latency > 2 * kSloSeconds
    std::uint64_t suspect_updates = 0;    // anomaly-scorer flags
    std::uint64_t audit_records = 0;      // JSONL lines written
    double rolling_p50_s = 0.0;  // over the last kWindowSeconds
    double rolling_p90_s = 0.0;
    double rolling_p99_s = 0.0;
    TopNCache::Stats cache;
    double hit_rate() const {
      const double total = static_cast<double>(cache_hits + cache_misses);
      return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
    }
  };
  Stats stats() const;

  const ServeConfig& config() const { return config_; }
  const FeatureStore& feature_store() const { return *store_; }
  const data::ImplicitDataset& dataset() const { return dataset_; }
  ModelRegistry& registry() { return registry_; }

 private:
  // Cache lookup + revalidation; counts the hit or miss.
  std::optional<CacheEntry> lookup(const CacheKey& key,
                                   const ModelRegistry::Snapshot& snap);
  // Latency bookkeeping shared by every recommend() exit: lifetime + rolling
  // histograms, SLO counters. Touches no registry: the lifetime histogram's
  // handle is fetched once, in the constructor.
  void observe_request(double seconds);

  const data::ImplicitDataset& dataset_;
  ModelRegistry& registry_;
  std::shared_ptr<FeatureStore> store_;  // shared across shards (ShardRouter)
  ServeConfig config_;
  TopNCache cache_;

  // Serializes feature swaps; shared across every service over the same
  // store so rebuild+swap sequences from different shards cannot interleave.
  std::shared_ptr<std::mutex> update_mutex_;

  obs::Histogram& request_seconds_;  // serve_request_seconds (global registry)
  obs::SlidingWindowHistogram latency_window_;
  obs::UpdateAnomalyScorer anomaly_scorer_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> revalidated_{0};
  std::atomic<std::uint64_t> feature_swaps_{0};
  std::atomic<std::uint64_t> slow_requests_{0};
  std::atomic<std::uint64_t> deadline_breaches_{0};
  std::atomic<std::uint64_t> suspect_updates_{0};
};

}  // namespace taamr::serve
