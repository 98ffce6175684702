// Recommender interface: the preference predictor of Fig. 1. Everything the
// metrics, the ranker and the serving layer need is a scored row per user,
// and every one of them reads it through score_users, so a list, an item's
// rank, an AUC comparison and a cache revalidation all see the same bits.
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

  // Predicted preferences (higher = better) of an arbitrary (not
  // necessarily contiguous, possibly repeating) set of users for every
  // item, into out, row-major [users.size(), num_items()]. The model's one
  // scoring arithmetic: recsys::rank_users scores every user tile through
  // it, so models with matrix structure (VBPR/AMR) gather their rows and
  // batch the tile into GEMMs. Throws std::invalid_argument on a bad out
  // size or a user out of range.
  virtual void score_users(std::span<const std::int64_t> users,
                           std::span<float> out) const = 0;

  virtual std::string name() const = 0;

 protected:
  // The argument checks every score_users runs first; `who` prefixes the
  // error message.
  void check_score_users(std::span<const std::int64_t> users,
                         std::span<const float> out, const char* who) const;
};

}  // namespace taamr::recsys
