// Most-popular baseline: ranks items by training interaction count,
// identically for every user. The customary non-personalized yardstick for
// CHR/HR numbers (and immune to image attacks by construction — a useful
// control in the extension benches).
#pragma once

#include "recsys/recommender.hpp"

namespace taamr::recsys {

class MostPop : public Recommender {
 public:
  explicit MostPop(const data::ImplicitDataset& dataset);

  std::int64_t num_users() const override { return num_users_; }
  std::int64_t num_items() const override {
    return static_cast<std::int64_t>(popularity_.size());
  }
  // Every row is the popularity vector.
  void score_users(std::span<const std::int64_t> users,
                   std::span<float> out) const override;
  std::string name() const override { return "MostPop"; }

 private:
  std::int64_t num_users_;
  std::vector<float> popularity_;
};

}  // namespace taamr::recsys
