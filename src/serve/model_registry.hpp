// ModelRegistry: named, versioned recommender checkpoints behind an atomic
// hot-swap. The serving layer never scores "the" model — it takes an
// immutable snapshot (shared_ptr + version + feature epoch) and scores
// against that, so a concurrent swap can never tear a request: in-flight
// requests finish on the old model, later requests see the new one.
//
// Two version axes per entry:
//   * version        — bumped by register_model/swap (a new checkpoint);
//   * feature_epoch  — advanced by swap_features (same parameters, new item
//                      features). The serve-side result cache uses the pair
//                      to decide between full invalidation (new checkpoint)
//                      and selective revalidation (feature swap; see
//                      recommend_service.hpp).
//
// Checkpoint loaders cover every model family that can serve: VBPR/AMR via
// Vbpr::load (an AMR checkpoint loads as a Vbpr and scores identically) and
// BPR-MF via BprMf::load.
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

  // The dataset every hosted model was trained against (checkpoint loads
  // validate against it; it outlives the registry).
  explicit ModelRegistry(const data::ImplicitDataset& dataset);

  // Registers (or replaces) a model under `name`; bumps the version.
  // `visual` marks models whose scores depend on item features.
  void register_model(const std::string& name,
                      std::shared_ptr<const recsys::Recommender> model, bool visual);

  // Atomic checkpoint replacement: bumps the version (result caches keyed
  // on the old version go stale wholesale).
  void swap(const std::string& name, std::shared_ptr<const recsys::Recommender> model);

  // Atomic feature refresh: same checkpoint version, new feature epoch.
  // Used by RecommendService::update_item_features after rebuilding a
  // visual model against the new feature store contents.
  void swap_features(const std::string& name,
                     std::shared_ptr<const recsys::Recommender> model,
                     std::uint64_t feature_epoch);

  // Immutable view of the current entry. Throws std::runtime_error naming
  // the unknown model (serving surfaces this as a protocol error).
  Snapshot get(const std::string& name) const;

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

  // Checkpoint loaders; each registers under `name` and bumps the version.
  void load_vbpr(const std::string& name, const std::string& path);
  void load_bpr_mf(const std::string& name, const std::string& path);

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
