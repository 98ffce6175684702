// Recommender interface: the preference predictor of Fig. 1. Everything the
// metrics and the ranker need is a per-user score over all items.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "data/interactions.hpp"

namespace taamr::recsys {

class Recommender {
 public:
  virtual ~Recommender();

  virtual std::int64_t num_users() const = 0;
  virtual std::int64_t num_items() const = 0;

  // Predicted preference of `user` for `item` (higher = better).
  virtual float score(std::int64_t user, std::int32_t item) const = 0;

  // Scores for every item; out.size() must equal num_items(). Amortizes
  // per-user work; item_rank and the default score_users use it.
  virtual void score_all(std::int64_t user, std::span<float> out) const = 0;

  // Scores for an arbitrary (not necessarily contiguous, possibly
  // repeating) set of users into out, row-major [users.size(), num_items()].
  // recsys::rank_users scores every user tile through this, so models with
  // matrix structure (VBPR/AMR) gather their rows and batch the tile into
  // GEMMs. The default forwards to score_all per user.
  virtual void score_users(std::span<const std::int64_t> users,
                           std::span<float> out) const;

  virtual std::string name() const = 0;
};

}  // namespace taamr::recsys
