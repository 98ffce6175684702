#include "recsys/ranker.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace taamr::recsys {

std::vector<ScoredItem> top_n_from_row(std::span<const float> row, std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("top_n_from_row: non-positive N");
  const std::int64_t num_items = static_cast<std::int64_t>(row.size());
  const std::int64_t top = std::min(n, num_items);
  std::vector<std::int32_t> idx(static_cast<std::size_t>(num_items));
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + top, idx.end(),
                    [&row](std::int32_t a, std::int32_t b) {
                      const float sa = row[static_cast<std::size_t>(a)];
                      const float sb = row[static_cast<std::size_t>(b)];
                      if (sa != sb) return sa > sb;
                      return a < b;  // deterministic tie-break
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
  std::vector<std::int64_t> users(static_cast<std::size_t>(dataset.num_users));
  std::iota(users.begin(), users.end(), 0);
  const std::vector<std::vector<ScoredItem>> ranked = rank_users(model, dataset, users, n);
  std::vector<std::vector<std::int32_t>> lists(ranked.size());
  for (std::size_t u = 0; u < ranked.size(); ++u) {
    lists[u].reserve(ranked[u].size());
    for (const ScoredItem& s : ranked[u]) lists[u].push_back(s.item);
  }
  return lists;
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
  std::vector<float> scores(static_cast<std::size_t>(dataset.num_items));
  model.score_all(user, scores);
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
