// ModelRegistry: named, versioned recommender checkpoints behind an atomic
// hot-swap. The serving layer never scores "the" model — it takes an
// immutable snapshot (shared_ptr + version + feature epoch) and scores
// against that, so a concurrent swap can never tear a request: in-flight
// requests finish on the old model, later requests see the new one.
//
// Two version axes per entry:
//   * version        — bumped by register_model (a new checkpoint);
//   * feature_epoch  — set by swap_features (same parameters, new item
//                      features). The serve-side result cache uses the pair
//                      to decide between full invalidation (new checkpoint)
//                      and selective revalidation (feature swap; see
//                      recommend_service.hpp).
//
// Once serving starts, ShardRouter is the registry's one writer: it loads
// checkpoints (ShardRouter::swap_model) and rebuilds visual models on
// feature pushes under one lock, so every visual entry is built from the
// FeatureStore at its feature_epoch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/interactions.hpp"
#include "recsys/recommender.hpp"

namespace taamr::serve {

class ModelRegistry {
 public:
  struct Snapshot {
    std::shared_ptr<const recsys::Recommender> model;
    std::uint64_t version = 0;
    std::uint64_t feature_epoch = 0;
    bool visual = false;  // rebuilt by feature swaps (VBPR/AMR)
  };

  // The dataset every hosted model was trained against (register_model
  // validates against it; it outlives the registry).
  explicit ModelRegistry(const data::ImplicitDataset& dataset);

  // Registers (or replaces) a model under `name`; bumps the version.
  // `visual` marks models whose scores depend on item features;
  // `feature_epoch` is the FeatureStore epoch their features were read at.
  void register_model(const std::string& name,
                      std::shared_ptr<const recsys::Recommender> model, bool visual,
                      std::uint64_t feature_epoch = 0);

  // Atomic feature refresh: same checkpoint version, new feature epoch.
  void swap_features(const std::string& name,
                     std::shared_ptr<const recsys::Recommender> model,
                     std::uint64_t feature_epoch);

  // Immutable view of the current entry. Throws std::runtime_error naming
  // the unknown model (serving surfaces this as a protocol error).
  Snapshot get(const std::string& name) const;

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

  const data::ImplicitDataset& dataset() const { return dataset_; }

 private:
  struct Entry {
    std::shared_ptr<const recsys::Recommender> model;
    std::uint64_t version = 0;
    std::uint64_t feature_epoch = 0;
    bool visual = false;
  };

  const data::ImplicitDataset& dataset_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> models_;
};

}  // namespace taamr::serve
