#include "recsys/ranker.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace taamr::recsys {

namespace {
// The canonical ranking order: score descending, then item id ascending.
bool ranks_before(float score_a, std::int32_t a, float score_b, std::int32_t b) {
  if (score_a != score_b) return score_a > score_b;
  return a < b;
}
}  // namespace

std::vector<ScoredItem> top_n_from_row(std::span<const float> row, std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("top_n_from_row: non-positive N");
  const std::int64_t num_items = static_cast<std::int64_t>(row.size());
  const std::int64_t top = std::min(n, num_items);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(num_items));
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + top, idx.end(),
                    [&row](std::int32_t a, std::int32_t b) {
                      return ranks_before(row[static_cast<std::size_t>(a)], a,
                                          row[static_cast<std::size_t>(b)], b);
                    });
  std::vector<ScoredItem> out;
  out.reserve(static_cast<std::size_t>(top));
  for (std::int64_t r = 0; r < top; ++r) {
    const float s = row[static_cast<std::size_t>(idx[static_cast<std::size_t>(r)])];
    if (s == -std::numeric_limits<float>::infinity()) break;
    out.push_back({idx[static_cast<std::size_t>(r)], s});
  }
  return out;
}

std::vector<std::vector<ScoredItem>> rank_users(const Recommender& model,
                                                const data::ImplicitDataset& dataset,
                                                std::span<const std::int64_t> users,
                                                std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("rank_users: non-positive N");
  if (model.num_users() != dataset.num_users || model.num_items() != dataset.num_items) {
    throw std::invalid_argument("rank_users: model/dataset size mismatch");
  }
  for (const std::int64_t u : users) {
    if (u < 0 || u >= dataset.num_users) {
      throw std::invalid_argument("rank_users: user out of range");
    }
  }
  const std::size_t num_items = static_cast<std::size_t>(dataset.num_items);
  std::vector<std::vector<ScoredItem>> lists(users.size());

  // Tiles run on the pool; the GEMMs inside then execute inline on the
  // worker (nesting-safe) while a single-tile call still parallelizes
  // inside the GEMM itself.
  constexpr std::size_t kUserTile = 64;
  const std::size_t num_tiles = (users.size() + kUserTile - 1) / kUserTile;
  parallel_for(0, num_tiles, [&](std::size_t t) {
    const std::size_t first = t * kUserTile;
    const std::span<const std::int64_t> tile =
        users.subspan(first, std::min(kUserTile, users.size() - first));
    std::vector<float> scores(tile.size() * num_items);
    model.score_users(tile, scores);
    for (std::size_t r = 0; r < tile.size(); ++r) {
      const std::span<float> row(scores.data() + r * num_items, num_items);
      for (const std::int32_t item : dataset.train[static_cast<std::size_t>(tile[r])]) {
        row[static_cast<std::size_t>(item)] = -std::numeric_limits<float>::infinity();
      }
      lists[first + r] = top_n_from_row(row, n);
    }
  });
  return lists;
}

std::vector<std::vector<std::int32_t>> top_n_lists(const Recommender& model,
                                                   const data::ImplicitDataset& dataset,
                                                   std::int64_t n) {
  return item_lists(rank_all_users(model, dataset, n), n);
}

Ranking rank_all_users(const Recommender& model, const data::ImplicitDataset& dataset,
                       std::int64_t depth) {
  std::vector<std::int64_t> users(static_cast<std::size_t>(dataset.num_users));
  std::iota(users.begin(), users.end(), 0);
  return Ranking{depth, rank_users(model, dataset, users, depth)};
}

std::vector<std::vector<std::int32_t>> item_lists(const Ranking& ranking, std::int64_t n) {
  if (n <= 0 || n > ranking.depth) {
    throw std::invalid_argument("item_lists: N must be in [1, ranking depth]");
  }
  std::vector<std::vector<std::int32_t>> lists(ranking.lists.size());
  for (std::size_t u = 0; u < lists.size(); ++u) {
    const std::size_t len = std::min(ranking.lists[u].size(), static_cast<std::size_t>(n));
    lists[u].reserve(len);
    for (std::size_t r = 0; r < len; ++r) lists[u].push_back(ranking.lists[u][r].item);
  }
  return lists;
}

std::vector<ScoredItem> merge_rescored(std::span<const ScoredItem> clean,
                                       std::span<const ScoredItem> rescored,
                                       std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("merge_rescored: non-positive N");
  std::vector<std::int32_t> changed;  // sorted, to drop the stale entries of clean
  std::vector<ScoredItem> fresh;      // the servable rescored items, canonical order
  changed.reserve(rescored.size());
  fresh.reserve(rescored.size());
  for (const ScoredItem& s : rescored) {
    changed.push_back(s.item);
    if (s.score != -std::numeric_limits<float>::infinity()) fresh.push_back(s);
  }
  std::sort(changed.begin(), changed.end());
  if (std::adjacent_find(changed.begin(), changed.end()) != changed.end()) {
    throw std::invalid_argument("merge_rescored: an item is rescored twice");
  }
  std::sort(fresh.begin(), fresh.end(), [](const ScoredItem& a, const ScoredItem& b) {
    return ranks_before(a.score, a.item, b.score, b.item);
  });

  const std::size_t limit = static_cast<std::size_t>(n);
  std::vector<ScoredItem> out;
  out.reserve(std::min(limit, clean.size() + fresh.size()));
  std::size_t c = 0, f = 0;
  while (out.size() < limit) {
    while (c < clean.size() &&
           std::binary_search(changed.begin(), changed.end(), clean[c].item)) {
      ++c;
    }
    const bool have_clean = c < clean.size(), have_fresh = f < fresh.size();
    if (!have_clean && !have_fresh) break;
    if (have_fresh && (!have_clean || ranks_before(fresh[f].score, fresh[f].item,
                                                   clean[c].score, clean[c].item))) {
      out.push_back(fresh[f++]);
    } else {
      out.push_back(clean[c++]);
    }
  }
  return out;
}

std::vector<std::int64_t> item_ranks(const Recommender& model,
                                     const data::ImplicitDataset& dataset,
                                     std::int64_t user,
                                     std::span<const std::int32_t> items) {
  if (user < 0 || user >= dataset.num_users) {
    throw std::invalid_argument("item_ranks: user out of range");
  }
  for (const std::int32_t item : items) {
    if (item < 0 || item >= dataset.num_items) {
      throw std::invalid_argument("item_ranks: item out of range");
    }
  }
  // The row rank_users would score for this user, bit for bit.
  std::vector<float> scores(static_cast<std::size_t>(dataset.num_items));
  model.score_users({&user, 1}, scores);
  // Masked like rank_users: a training item never outranks a servable one.
  for (const std::int32_t item : dataset.train[static_cast<std::size_t>(user)]) {
    scores[static_cast<std::size_t>(item)] = -std::numeric_limits<float>::infinity();
  }
  std::vector<std::int64_t> ranks;
  ranks.reserve(items.size());
  for (const std::int32_t item : items) {
    if (dataset.user_interacted(user, item)) {
      ranks.push_back(-1);
      continue;
    }
    const float target = scores[static_cast<std::size_t>(item)];
    std::int64_t rank = 1;
    for (std::int32_t i = 0; i < dataset.num_items; ++i) {
      const float s = scores[static_cast<std::size_t>(i)];
      if (s > target || (s == target && i < item)) ++rank;
    }
    ranks.push_back(rank);
  }
  return ranks;
}

}  // namespace taamr::recsys
