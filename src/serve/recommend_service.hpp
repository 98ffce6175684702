// RecommendService: one shard's read-only query surface over a
// ModelRegistry + FeatureStore + its own TopNCache slice. It never writes
// the registry or the store: ShardRouter (serve/shard_router.hpp) is their
// one writer and routes each user's requests to exactly one shard.
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
//     enter it (its entry in the user's score_users row, scored as a miss
//     would, vs the list's tail under the canonical score-desc/id-asc
//     tie-break: an exact decision). Surviving entries are re-stamped
//     (Stats::cache_revalidated) — this is what makes a hot feature
//     swap invalidate only the affected lists.
// The walk is exact because every visual model in the registry is built
// from the store at its feature_epoch, which ShardRouter keeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/sliding_window.hpp"
#include "serve/feature_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/topn_cache.hpp"

namespace taamr::serve {

struct ServeConfig {
  std::int64_t cache_capacity = 4096;    // top-N result cache entries
  std::int64_t update_log_window = 256;  // feature-store change-log length
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
  // dataset, registry and store must outlive the service; it only reads
  // them. The store's rows must match the dataset's items.
  RecommendService(const data::ImplicitDataset& dataset, const ModelRegistry& registry,
                   const FeatureStore& store,
                   ServeConfig config = {});

  // Top-n for one user. Throws std::runtime_error for unknown models,
  // std::invalid_argument for bad user/n. When `ctx` is non-null the
  // request's per-stage latency (cache_lookup / score) is attributed to it.
  Recommendation recommend(const std::string& model, std::int64_t user,
                           std::int64_t n, obs::RequestContext* ctx = nullptr);

  // Provenance attached to a feature update (ShardRouter::update_item_features)
  // for the audit trail. `ssim` carries the front-end's structural
  // similarity vs the item's previous rendered image when it has one
  // (-1 = unavailable; feature-only updates have no image to compare).
  struct UpdateOrigin {
    const char* source = "update_features";
    double ssim = -1.0;
  };

  // Drops every cached list (counters are kept). Lets benchmarks compare
  // phases from identical cold-cache states.
  void clear_cache();

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_revalidated = 0;  // subset of cache_hits
    std::uint64_t slow_requests = 0;      // latency > kSloSeconds
    std::uint64_t deadline_breaches = 0;  // latency > 2 * kSloSeconds
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

 private:
  // Cache lookup + revalidation; counts the hit or miss.
  std::optional<CacheEntry> lookup(const CacheKey& key,
                                   const ModelRegistry::Snapshot& snap);
  // Latency bookkeeping shared by every recommend() exit: lifetime + rolling
  // histograms, SLO counters. Touches no registry: the lifetime histogram's
  // handle is fetched once, in the constructor.
  void observe_request(double seconds);

  const data::ImplicitDataset& dataset_;
  const ModelRegistry& registry_;
  const FeatureStore& store_;
  TopNCache cache_;

  obs::Histogram& request_seconds_;  // serve_request_seconds (global registry)
  obs::SlidingWindowHistogram latency_window_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> revalidated_{0};
  std::atomic<std::uint64_t> slow_requests_{0};
  std::atomic<std::uint64_t> deadline_breaches_{0};
};

}  // namespace taamr::serve
