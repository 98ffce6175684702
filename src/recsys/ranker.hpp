// Top-N recommendation lists (the "Preference Sorting" stage of Fig. 1).
// rank_users is the one path from scores to lists: the offline evaluation
// (top_n_lists) and the serving layer's cache misses both go through it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "recsys/recommender.hpp"

namespace taamr::recsys {

// One entry of a ranked list: the item and the score it ranked with.
struct ScoredItem {
  std::int32_t item = 0;
  float score = 0.0f;

  bool operator==(const ScoredItem&) const = default;
};

// Top-n (item, score) pairs of one scored row, with the canonical ranking
// order used everywhere in the repo: score descending, then item id
// ascending (the deterministic tie-break serve-side result caching relies
// on). Callers mask excluded items to -inf; those entries are dropped, so
// the result can be shorter than min(n, row.size()).
std::vector<ScoredItem> top_n_from_row(std::span<const float> row, std::int64_t n);

// Top-n lists for `users` (any order, duplicates allowed), best first, one
// per entry of `users`. Training items are never listed: the CHR definition
// sums over I_c \ I_u^+. Users are scored in 64-user tiles on the thread
// pool through Recommender::score_users, so models with matrix structure
// batch each tile into GEMMs.
std::vector<std::vector<ScoredItem>> rank_users(const Recommender& model,
                                                const data::ImplicitDataset& dataset,
                                                std::span<const std::int64_t> users,
                                                std::int64_t n);

// rank_users over every user, item ids only.
std::vector<std::vector<std::int32_t>> top_n_lists(const Recommender& model,
                                                   const data::ImplicitDataset& dataset,
                                                   std::int64_t n);

// 1-based rank of each of `items` in the user's full ranking, i.e. the
// "rec. position" reported in the paper's Fig. 2: the position rank_users
// would list the item at, in the canonical score-desc / id-asc order with
// training items excluded. -1 for an item in the user's training set. One
// score_all pass serves every item.
std::vector<std::int64_t> item_ranks(const Recommender& model,
                                     const data::ImplicitDataset& dataset,
                                     std::int64_t user,
                                     std::span<const std::int32_t> items);

}  // namespace taamr::recsys
