// Standard top-N ranking metrics on the leave-one-out split — used to check
// that the recommenders actually learned something before attacking them.
#pragma once

#include <cstdint>
#include <vector>

#include "data/interactions.hpp"

namespace taamr::metrics {

// Fraction of users whose held-out test item appears in their top-N list.
double hit_ratio_at_n(const std::vector<std::vector<std::int32_t>>& lists,
                      const data::ImplicitDataset& dataset);

// Mean NDCG@N with the single test item as the only relevant one
// (DCG = 1/log2(rank+1), IDCG = 1).
double ndcg_at_n(const std::vector<std::vector<std::int32_t>>& lists,
                 const data::ImplicitDataset& dataset);

}  // namespace taamr::metrics
