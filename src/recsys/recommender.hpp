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

  // Scores for every item; out.size() must equal num_items(). This is the
  // fast path used by the ranker (amortizes per-user work).
  virtual void score_all(std::int64_t user, std::span<float> out) const = 0;

  // Scores for users [u_begin, u_end) into out, row-major
  // [u_end - u_begin, num_items()]. The ranker scores user tiles through
  // this so models with matrix structure (VBPR/AMR) can batch the work
  // into GEMMs; the default forwards to score_all per user.
  virtual void score_block(std::int64_t u_begin, std::int64_t u_end,
                           std::span<float> out) const;

  // Scores for an arbitrary (not necessarily contiguous) set of users into
  // out, row-major [users.size(), num_items()]. This is the serving tile:
  // the service scores a request's cache misses through it, and models with
  // matrix structure gather their rows and run the same GEMMs as
  // score_block. The default forwards to score_all per user.
  virtual void score_users(std::span<const std::int64_t> users,
                           std::span<float> out) const;

  virtual std::string name() const = 0;
};

}  // namespace taamr::recsys
