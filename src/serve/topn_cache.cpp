#include "serve/topn_cache.hpp"

#include <stdexcept>

namespace taamr::serve {

TopNCache::TopNCache(std::int64_t capacity) {
  if (capacity <= 0) {
    throw std::invalid_argument("TopNCache: capacity must be positive");
  }
  capacity_ = static_cast<std::size_t>(capacity);
}

std::string TopNCache::flatten(const CacheKey& key) {
  return key.model + '\x1f' + std::to_string(key.user) + '\x1f' +
         std::to_string(key.n);
}

std::optional<CacheEntry> TopNCache::get(const CacheKey& key) {
  const std::string flat = flatten(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(flat);
  if (it == index_.end()) return std::nullopt;
  // Move to front (most recently used).
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void TopNCache::put(const CacheKey& key, CacheEntry entry) {
  const std::string flat = flatten(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(flat);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(flat, std::move(entry));
  index_[flat] = lru_.begin();
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TopNCache::touch_epoch(const CacheKey& key, std::uint64_t model_version,
                            std::uint64_t feature_epoch) {
  const std::string flat = flatten(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(flat);
  if (it == index_.end()) return;
  it->second->second.model_version = model_version;
  it->second->second.feature_epoch = feature_epoch;
}

void TopNCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

TopNCache::Stats TopNCache::stats() const {
  Stats st;
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.capacity = capacity_;
  std::lock_guard<std::mutex> lock(mutex_);
  st.size = index_.size();
  return st;
}

}  // namespace taamr::serve
