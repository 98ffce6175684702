#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "data/amazon_synth.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

// Deterministic mock: score(u, i) = fixed per-item value + small user shift.
class MockRecommender : public recsys::Recommender {
 public:
  MockRecommender(std::int64_t users, std::vector<float> item_scores)
      : users_(users), scores_(std::move(item_scores)) {}

  std::int64_t num_users() const override { return users_; }
  std::int64_t num_items() const override {
    return static_cast<std::int64_t>(scores_.size());
  }
  float score(std::int64_t /*user*/, std::int32_t item) const override {
    return scores_[static_cast<std::size_t>(item)];
  }
  void score_all(std::int64_t user, std::span<float> out) const override {
    for (std::size_t i = 0; i < scores_.size(); ++i) {
      out[i] = score(static_cast<std::int64_t>(user), static_cast<std::int32_t>(i));
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
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 1), 1);
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 3), 2);
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 4), 4);
  // Training items have no rank.
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 0), -1);
  EXPECT_THROW(recsys::item_rank(model, ds, 0, 99), std::invalid_argument);
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
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 1), 1);
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 2), 2);
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 3), 3);
  EXPECT_EQ(recsys::item_rank(model, ds, 0, 4), 4);
}

TEST(Ranker, ItemRankConsistentWithTopN) {
  const auto ds = two_user_dataset();
  MockRecommender model(2, {0.2f, 0.8f, 0.6f, 0.4f, 0.1f});
  const auto lists = recsys::top_n_lists(model, ds, 4);
  for (std::size_t pos = 0; pos < lists[0].size(); ++pos) {
    EXPECT_EQ(recsys::item_rank(model, ds, 0, lists[0][pos]),
              static_cast<std::int64_t>(pos + 1));
  }
}

}  // namespace
}  // namespace taamr
