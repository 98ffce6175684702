#include "serve/feature_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace taamr::serve {

FeatureStore::FeatureStore(Tensor raw_features, std::size_t log_window)
    : items_(raw_features.ndim() == 2 ? raw_features.dim(0) : -1),
      dim_(raw_features.ndim() == 2 ? raw_features.dim(1) : -1),
      log_window_(log_window),
      features_(std::move(raw_features)) {
  if (items_ <= 0 || dim_ <= 0) {
    throw std::invalid_argument("FeatureStore: expected non-empty [I, D] features");
  }
}

std::uint64_t FeatureStore::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

Tensor FeatureStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return features_;
}

std::vector<float> FeatureStore::item_features(std::int64_t item) const {
  if (item < 0 || item >= items_) {
    throw std::invalid_argument("FeatureStore::item_features: item out of range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const float* row = features_.data() + item * dim_;
  return std::vector<float>(row, row + dim_);
}

std::uint64_t FeatureStore::update(std::int64_t item, std::span<const float> features) {
  if (item < 0 || item >= items_) {
    throw std::invalid_argument("FeatureStore::update: item out of range");
  }
  if (static_cast<std::int64_t>(features.size()) != dim_) {
    throw std::invalid_argument("FeatureStore::update: feature dim mismatch");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  std::memcpy(features_.data() + item * dim_, features.data(),
              static_cast<std::size_t>(dim_) * sizeof(float));
  ++epoch_;
  log_.emplace_back(epoch_, static_cast<std::int32_t>(item));
  while (log_.size() > log_window_) log_.pop_front();
  return epoch_;
}

std::optional<std::vector<std::int32_t>> FeatureStore::changed_since(
    std::uint64_t since_epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (since_epoch >= epoch_) return std::vector<std::int32_t>{};
  // The window covers (since_epoch, epoch_] iff the oldest retained entry
  // is at most since_epoch + 1.
  if (log_.empty() || log_.front().first > since_epoch + 1) return std::nullopt;
  std::vector<std::int32_t> items;
  for (const auto& [e, item] : log_) {
    if (e > since_epoch) items.push_back(item);
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

}  // namespace taamr::serve
