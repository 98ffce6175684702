#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "data/amazon_synth.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

// Deterministic mock: every user's row is the same fixed per-item scores.
class MockRecommender : public recsys::Recommender {
 public:
  MockRecommender(std::int64_t users, std::vector<float> item_scores)
      : users_(users), scores_(std::move(item_scores)) {}

  std::int64_t num_users() const override { return users_; }
  std::int64_t num_items() const override {
    return static_cast<std::int64_t>(scores_.size());
  }
  void score_users(std::span<const std::int64_t> users,
                   std::span<float> out) const override {
    check_score_users(users, out, "MockRecommender::score_users");
    for (std::size_t r = 0; r < users.size(); ++r) {
      std::copy(scores_.begin(), scores_.end(),
                out.begin() + static_cast<std::ptrdiff_t>(r * scores_.size()));
    }
  }
  std::string name() const override { return "mock"; }

 private:
  std::int64_t users_;
  std::vector<float> scores_;
};

data::ImplicitDataset two_user_dataset() {
  data::ImplicitDataset ds;
  ds.name = "mock";
  ds.num_users = 2;
  ds.num_items = 5;
  ds.item_category = {0, 0, 1, 1, 2};
  ds.item_image_seed = {0, 1, 2, 3, 4};
  ds.train = {{0}, {4}};
  ds.test = {1, -1};
  return ds;
}

// A one-factor VBPR (K = A = D = 1) whose parameters the test sets, so
// scores can be placed on exact float boundaries.
class TinyVbpr : public recsys::Vbpr {
 public:
  TinyVbpr(const data::ImplicitDataset& ds, Rng& rng)
      : Vbpr(ds, Tensor({ds.num_items, 1}), one_factor(), rng) {}

  // Every user gets p = 1 and alpha; item i gets q[i] and feature f[i],
  // with E = 1 and zero biases, so s(u, i) = q[i] + alpha * f[i].
  void set(float alpha, const std::vector<float>& q, const std::vector<float>& f) {
    for (float& v : user_factors_.storage()) v = 1.0f;
    for (float& v : user_visual_.storage()) v = alpha;
    item_factors_.storage() = q;
    features_.storage() = f;
    embedding_.storage() = {1.0f};
    visual_bias_.storage() = {0.0f};
    for (float& v : item_bias_.storage()) v = 0.0f;
    rebuild_caches();
  }

 private:
  static recsys::VbprConfig one_factor() {
    recsys::VbprConfig cfg;
    cfg.mf_factors = 1;
    cfg.visual_factors = 1;
    return cfg;
  }
};

// Each item's 1-based position in rank_users' full-catalog list for
// `user`, -1 for a training item.
std::vector<std::int64_t> list_positions(const recsys::Recommender& model,
                                         const data::ImplicitDataset& ds,
                                         std::int64_t user) {
  const std::int64_t users[1] = {user};
  const auto list = recsys::rank_users(model, ds, users, ds.num_items).front();
  std::vector<std::int64_t> pos(static_cast<std::size_t>(ds.num_items), -1);
  for (std::size_t r = 0; r < list.size(); ++r) {
    pos[static_cast<std::size_t>(list[r].item)] = static_cast<std::int64_t>(r + 1);
  }
  return pos;
}

std::vector<std::int32_t> all_items(const data::ImplicitDataset& ds) {
  std::vector<std::int32_t> items(static_cast<std::size_t>(ds.num_items));
  std::iota(items.begin(), items.end(), 0);
  return items;
}

// item_ranks for a single item.
std::int64_t rank_of(const recsys::Recommender& model, const data::ImplicitDataset& ds,
                     std::int64_t user, std::int32_t item) {
  const std::int32_t items[1] = {item};
  return recsys::item_ranks(model, ds, user, items).front();
}

TEST(Ranker, TopNOrdersByScore) {
  const auto ds = two_user_dataset();
  // The training items (0 for user 0, 4 for user 1) score below the cut.
  MockRecommender model(2, {0.1f, 0.9f, 0.5f, 0.7f, 0.3f});
  const auto lists = recsys::top_n_lists(model, ds, 3);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists[0], (std::vector<std::int32_t>{1, 3, 2}));
  EXPECT_EQ(lists[1], (std::vector<std::int32_t>{1, 3, 2}));
}

TEST(Ranker, ExcludesTrainingItems) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.95f, 0.9f, 0.5f, 0.7f, 0.99f});
  const auto lists = recsys::top_n_lists(model, ds, 3);
  // User 0 trained on item 0 (score 0.95): excluded.
  EXPECT_EQ(lists[0], (std::vector<std::int32_t>{4, 1, 3}));
  // User 1 trained on item 4 (score 0.99): excluded.
  EXPECT_EQ(lists[1], (std::vector<std::int32_t>{0, 1, 3}));
}

TEST(Ranker, NLargerThanCatalogIsClamped) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {5, 4, 3, 2, 1});
  const auto lists = recsys::top_n_lists(model, ds, 100);
  // Five items, one of them trained on: four servable slots per user.
  EXPECT_EQ(lists[0], (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(lists[1], (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Ranker, DeterministicTieBreakByItemId) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {1, 1, 1, 1, 1});
  const auto lists = recsys::top_n_lists(model, ds, 5);
  EXPECT_EQ(lists[0], (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(lists[1], (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Ranker, NeverListsTrainingItems) {
  // User 0 trained on the two best-scored items and user 1 on three, so a
  // list cut at the full catalog has fewer servable items than n. Training
  // items must not pad the tail.
  data::ImplicitDataset ds = two_user_dataset();
  ds.train = {{1, 3}, {0, 2, 4}};
  MockRecommender model(2, {0.1f, 0.9f, 0.5f, 0.7f, 0.3f});
  const auto lists = recsys::top_n_lists(model, ds, 5);
  EXPECT_EQ(lists[0], (std::vector<std::int32_t>{2, 4, 0}));
  EXPECT_EQ(lists[1], (std::vector<std::int32_t>{1, 3}));
  const std::int64_t users[] = {1, 0};
  const auto ranked = recsys::rank_users(model, ds, users, 5);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], (std::vector<recsys::ScoredItem>{{1, 0.9f}, {3, 0.7f}}));
  EXPECT_EQ(ranked[1].size(), 3u);
}

TEST(Ranker, RankUsersMatchesTopNLists) {
  // VBPR scores through the gathered-GEMM score_users path. Scattered ids,
  // repeats and more than one 64-user tile must all give each user the
  // same list as the all-users ranking.
  const data::ImplicitDataset ds =
      data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(11);
  Tensor features({ds.num_items, 8});
  testing::fill_uniform(features, rng);
  const recsys::Vbpr model(ds, features, recsys::VbprConfig{}, rng);
  constexpr std::int64_t kN = 10;
  const auto lists = recsys::top_n_lists(model, ds, kN);
  ASSERT_EQ(static_cast<std::int64_t>(lists.size()), ds.num_users);

  // A stride coprime with |U| visits every user once, out of order.
  std::vector<std::int64_t> users;
  for (std::int64_t r = 0; r < ds.num_users; ++r) {
    users.push_back((r * 37 + 5) % ds.num_users);
  }
  users.push_back(0);
  users.push_back(ds.num_users - 1);
  users.push_back(0);
  ASSERT_GT(users.size(), 64u);
  ASSERT_NE(ds.num_users % 37, 0);
  const auto ranked = recsys::rank_users(model, ds, users, kN);
  ASSERT_EQ(ranked.size(), users.size());
  for (std::size_t r = 0; r < users.size(); ++r) {
    const std::int64_t u = users[r];
    std::vector<std::int32_t> ids;
    for (const recsys::ScoredItem& s : ranked[r]) ids.push_back(s.item);
    EXPECT_EQ(ids, lists[static_cast<std::size_t>(u)]) << "user " << u;
    const std::int64_t one[] = {u};
    EXPECT_EQ(ranked[r], recsys::rank_users(model, ds, one, kN).front()) << "user " << u;
  }
  EXPECT_EQ(ranked[users.size() - 1], ranked[users.size() - 3]);  // user 0 twice
}

TEST(Ranker, ValidatesArguments) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {1, 2, 3, 4, 5});
  EXPECT_THROW(recsys::top_n_lists(model, ds, 0), std::invalid_argument);
  MockRecommender wrong_size(2, {1, 2, 3});
  EXPECT_THROW(recsys::top_n_lists(wrong_size, ds, 2), std::invalid_argument);
  const std::int64_t bad_user[] = {2};
  EXPECT_THROW(recsys::rank_users(model, ds, bad_user, 2), std::invalid_argument);
}

TEST(Ranker, ItemRankCountsStrictlyBetter) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.1f, 0.9f, 0.5f, 0.7f, 0.3f});
  // User 0, excluding train item 0: order is 1 (0.9), 3 (0.7), 2 (0.5), 4 (0.3).
  EXPECT_EQ(rank_of(model, ds, 0, 1), 1);
  EXPECT_EQ(rank_of(model, ds, 0, 3), 2);
  EXPECT_EQ(rank_of(model, ds, 0, 4), 4);
  // Training items have no rank.
  EXPECT_EQ(rank_of(model, ds, 0, 0), -1);
  EXPECT_THROW(rank_of(model, ds, 0, 99), std::invalid_argument);
}

TEST(Ranker, ItemRanksExcludeTrainingAndBreakTies) {
  // User 0 trains on item 0, the best-scored item; items 1-3 tie.
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.9f, 0.5f, 0.5f, 0.5f, 0.3f});
  const std::int32_t items[] = {3, 0, 1, 4};
  // Item 3 ranks behind the tied, lower-id items 1 and 2; the training
  // item 0 does not count against it and has no rank itself.
  EXPECT_EQ(recsys::item_ranks(model, ds, 0, items),
            (std::vector<std::int64_t>{3, -1, 1, 4}));
  const std::int32_t out_of_range[] = {1, 5};
  EXPECT_THROW(recsys::item_ranks(model, ds, 0, out_of_range), std::invalid_argument);
  EXPECT_THROW(rank_of(model, ds, 2, 1), std::invalid_argument);
}

TEST(Ranker, ItemRanksEqualRankUsersPositions) {
  // A VBPR fixture user: every item's rank is its position in the list.
  const data::ImplicitDataset ds =
      data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(12);
  Tensor features({ds.num_items, 8});
  testing::fill_uniform(features, rng);
  const recsys::Vbpr model(ds, features, recsys::VbprConfig{}, rng);
  for (const std::int64_t user : {std::int64_t{0}, ds.num_users - 1}) {
    EXPECT_EQ(recsys::item_ranks(model, ds, user, all_items(ds)),
              list_positions(model, ds, user))
        << "user " << user;
  }

  // Two items an ulp-level arithmetic difference reorders. Item 1 scores
  // 1 + alpha * f with alpha * f just above half an ulp of 1: a fused
  // multiply-add rounds the sum up to 1 + 2^-23, which item 2 scores
  // exactly, while rounding alpha * f first lands on the tie and rounds to
  // 1. Whatever the arithmetic, item_ranks must read the list's.
  const auto tiny_ds = two_user_dataset();
  TinyVbpr tiny(tiny_ds, rng);
  const float one_ulp = std::ldexp(1.0f, -23);
  tiny.set(1.0f + one_ulp, {0.0f, 1.0f, 1.0f + one_ulp, 0.5f, 0.25f},
           {0.0f, std::ldexp(1.0f, -24) - std::ldexp(1.0f, -48), 0.0f, 0.0f, 0.0f});
  EXPECT_EQ(recsys::item_ranks(tiny, tiny_ds, 0, all_items(tiny_ds)),
            list_positions(tiny, tiny_ds, 0));
}

TEST(Ranker, TopNFromRowCanonicalOrder) {
  // Score desc, then item id asc — the pinned serving/caching contract.
  const std::vector<float> row = {0.5f, 0.9f, 0.5f, 0.9f, 0.1f};
  const auto top = recsys::top_n_from_row({row.data(), row.size()}, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0], (recsys::ScoredItem{1, 0.9f}));
  EXPECT_EQ(top[1], (recsys::ScoredItem{3, 0.9f}));
  EXPECT_EQ(top[2], (recsys::ScoredItem{0, 0.5f}));
  EXPECT_EQ(top[3], (recsys::ScoredItem{2, 0.5f}));
}

TEST(Ranker, TopNFromRowAllTiedIsIdOrder) {
  const std::vector<float> row(6, 1.0f);
  const auto top = recsys::top_n_from_row({row.data(), row.size()}, 6);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].item, static_cast<std::int32_t>(i));
  }
}

TEST(Ranker, TopNFromRowDropMasked) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> row = {-kInf, 0.9f, -kInf, 0.3f, 0.5f};
  // Masked items are removed entirely, so the list is shorter than n.
  const auto dropped = recsys::top_n_from_row({row.data(), row.size()}, 5);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(dropped[0], (recsys::ScoredItem{1, 0.9f}));
  EXPECT_EQ(dropped[1], (recsys::ScoredItem{4, 0.5f}));
  EXPECT_EQ(dropped[2], (recsys::ScoredItem{3, 0.3f}));
}

TEST(Ranker, TopNFromRowValidates) {
  const std::vector<float> row = {1.0f, 2.0f};
  EXPECT_THROW(recsys::top_n_from_row({row.data(), row.size()}, 0),
               std::invalid_argument);
  const auto clamped = recsys::top_n_from_row({row.data(), row.size()}, 10);
  EXPECT_EQ(clamped.size(), 2u);
}

TEST(Ranker, ItemRankDeterministicTieBreak) {
  // All scores equal: rank must follow item id among non-train items, so a
  // tied catalog still ranks deterministically. User 0 trains on item 0.
  const auto ds = two_user_dataset();
  MockRecommender model(2, {1, 1, 1, 1, 1});
  EXPECT_EQ(rank_of(model, ds, 0, 1), 1);
  EXPECT_EQ(rank_of(model, ds, 0, 2), 2);
  EXPECT_EQ(rank_of(model, ds, 0, 3), 3);
  EXPECT_EQ(rank_of(model, ds, 0, 4), 4);
}

TEST(Ranker, ItemRankConsistentWithTopN) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.2f, 0.8f, 0.6f, 0.4f, 0.1f});
  const auto lists = recsys::top_n_lists(model, ds, 4);
  for (std::size_t pos = 0; pos < lists[0].size(); ++pos) {
    EXPECT_EQ(rank_of(model, ds, 0, lists[0][pos]),
              static_cast<std::int64_t>(pos + 1));
  }
}

// merge_rescored's oracle: the full ranking of the new row.
std::vector<recsys::ScoredItem> full_rank(const std::vector<float>& row, std::int64_t n) {
  return recsys::top_n_from_row({row.data(), row.size()}, n);
}

TEST(Ranker, MergeRescoredHandlesTiesAndMasks) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // Old row; items 1 and 4 change. Item 4's new score ties item 2's and
  // must rank after it (higher id); item 1 becomes masked (-inf); item 3
  // stays masked throughout.
  std::vector<float> row = {0.5f, 0.9f, 0.7f, -kInf, 0.1f, 0.7f};
  const auto clean = full_rank(row, 6);
  row[1] = -kInf;
  row[4] = 0.7f;
  const std::vector<recsys::ScoredItem> rescored = {{4, 0.7f}, {1, -kInf}};
  for (std::int64_t n = 1; n <= 4; ++n) {
    EXPECT_EQ(recsys::merge_rescored(clean, rescored, n), full_rank(row, n)) << "n=" << n;
  }
  const auto merged = recsys::merge_rescored(clean, rescored, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0], (recsys::ScoredItem{2, 0.7f}));
  EXPECT_EQ(merged[1], (recsys::ScoredItem{4, 0.7f}));
  EXPECT_EQ(merged[2], (recsys::ScoredItem{5, 0.7f}));
  EXPECT_EQ(merged[3], (recsys::ScoredItem{0, 0.5f}));
  // Short lists: four servable items, so a deeper cut gives just those.
  EXPECT_EQ(recsys::merge_rescored(clean, rescored, 10).size(), 4u);
  EXPECT_EQ(recsys::merge_rescored(clean, rescored, 10), full_rank(row, 10));
  // A changed item that rises to the top; a masked one that returns.
  const std::vector<recsys::ScoredItem> back = {{3, 2.0f}, {1, 0.7f}};
  row = {0.5f, 0.7f, 0.7f, 2.0f, 0.1f, 0.7f};
  EXPECT_EQ(recsys::merge_rescored(clean, back, 6), full_rank(row, 6));
}

TEST(Ranker, MergeRescoredEqualsFullRankOnRandomRows) {
  // Coarse scores (many ties), masked items and catalogs shorter than the
  // cut: whatever changes, the merge from a clean list at depth n + m is
  // the full ranking of the new row.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const int items = rng.uniform_int(1, 30);
    std::vector<float> row(static_cast<std::size_t>(items));
    for (float& v : row) {
      v = rng.uniform() < 0.15 ? -kInf : static_cast<float>(rng.uniform_int(0, 6));
    }
    std::vector<std::int32_t> order(row.size());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    order.resize(static_cast<std::size_t>(rng.uniform_int(0, items + 1)));
    const std::int64_t n = rng.uniform_int(1, 25);
    const auto clean = full_rank(row, n + static_cast<std::int64_t>(order.size()));
    std::vector<recsys::ScoredItem> rescored;
    for (const std::int32_t item : order) {
      const float score =
          rng.uniform() < 0.15 ? -kInf : static_cast<float>(rng.uniform_int(0, 6));
      row[static_cast<std::size_t>(item)] = score;
      rescored.push_back({item, score});
    }
    ASSERT_EQ(recsys::merge_rescored(clean, rescored, n), full_rank(row, n))
        << "trial " << trial;
  }
}

TEST(Ranker, MergeRescoredValidates) {
  const std::vector<recsys::ScoredItem> clean = {{0, 1.0f}};
  const std::vector<recsys::ScoredItem> twice = {{1, 0.5f}, {1, 0.4f}};
  EXPECT_THROW(recsys::merge_rescored(clean, {}, 0), std::invalid_argument);
  EXPECT_THROW(recsys::merge_rescored(clean, twice, 2), std::invalid_argument);
}

TEST(Ranker, ItemListsCutTheRankingAtN) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.2f, 0.8f, 0.6f, 0.8f, 0.1f});
  const recsys::Ranking ranking = recsys::rank_all_users(model, ds, 4);
  EXPECT_EQ(ranking.depth, 4);
  for (std::int64_t n = 1; n <= 4; ++n) {
    EXPECT_EQ(recsys::item_lists(ranking, n), recsys::top_n_lists(model, ds, n)) << n;
  }
  EXPECT_THROW(recsys::item_lists(ranking, 5), std::invalid_argument);
  EXPECT_THROW(recsys::item_lists(ranking, 0), std::invalid_argument);
}

}  // namespace
}  // namespace taamr
