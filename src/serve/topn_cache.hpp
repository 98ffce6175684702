// Per-(model, user, n) top-N result cache: one mutex-guarded LRU list.
// Entries carry the model version and feature epoch they were computed at;
// validity policy lives in RecommendService (full miss on version change,
// selective revalidation on epoch drift). ShardRouter gives every shard its
// own cache, so the lock is only contended by requests for one shard's users.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "recsys/ranker.hpp"

namespace taamr::serve {

struct CacheKey {
  std::string model;
  std::int64_t user = 0;
  std::int64_t n = 0;
};

struct CacheEntry {
  std::vector<recsys::ScoredItem> items;  // ranked, excluded items dropped
  std::uint64_t model_version = 0;
  std::uint64_t feature_epoch = 0;
};

class TopNCache {
 public:
  // capacity: maximum entries before the least recently used is evicted.
  explicit TopNCache(std::int64_t capacity);

  std::optional<CacheEntry> get(const CacheKey& key);
  void put(const CacheKey& key, CacheEntry entry);

  // Re-stamps an entry's versions after successful revalidation, so later
  // hits skip the changelog walk. No-op if the entry was evicted meanwhile.
  void touch_epoch(const CacheKey& key, std::uint64_t model_version,
                   std::uint64_t feature_epoch);

  void clear();

  struct Stats {
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const;

 private:
  static std::string flatten(const CacheKey& key);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  // LRU list, most recent first; the index points into it.
  std::list<std::pair<std::string, CacheEntry>> lru_;
  std::unordered_map<std::string, std::list<std::pair<std::string, CacheEntry>>::iterator>
      index_;
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace taamr::serve
