#include <gtest/gtest.h>

#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "recsys/item_knn.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset tiny_dataset() {
  data::ImplicitDataset ds;
  ds.name = "knn";
  ds.num_users = 4;
  ds.num_items = 5;
  ds.item_category = {0, 0, 0, 0, 0};
  ds.item_image_seed = {0, 1, 2, 3, 4};
  // Items 0 and 1 always co-occur; item 4 co-occurs with nothing.
  ds.train = {{0, 1}, {0, 1, 2}, {0, 1, 3}, {4}};
  ds.test = {-1, -1, -1, -1};
  return ds;
}

TEST(ItemKnn, CoOccurrenceDrivesSimilarity) {
  const auto ds = tiny_dataset();
  recsys::ItemKnn knn(ds, {.neighbors = 10, .shrinkage = 0.0f});
  const auto& n0 = knn.neighbors(0);
  ASSERT_FALSE(n0.empty());
  // Item 1 co-occurs with 0 three times: the strongest neighbour.
  EXPECT_EQ(n0.front().first, 1);
  // cosine = 3 / sqrt(3 * 3) = 1.
  EXPECT_NEAR(n0.front().second, 1.0f, 1e-6f);
  // Item 4 has no neighbours.
  EXPECT_TRUE(knn.neighbors(4).empty());
}

TEST(ItemKnn, ScoreSumsHistorySimilarities) {
  const auto ds = tiny_dataset();
  recsys::ItemKnn knn(ds, {.neighbors = 10, .shrinkage = 0.0f});
  // User 0 interacted with {0, 1}; score of item 2 = sim(2,0) + sim(2,1).
  float expected = 0.0f;
  for (const auto& [j, sim] : knn.neighbors(2)) {
    if (j == 0 || j == 1) expected += sim;
  }
  EXPECT_NEAR(testing::score_row(knn, 0)[2], expected, 1e-6f);
  EXPECT_EQ(testing::score_row(knn, 3)[2], 0.0f);  // user 3 shares nothing with item 2
}

TEST(ItemKnn, ScatterMatchesNeighbourSums) {
  // The inverse-index scatter must equal the definition item by item —
  // the sum of sim(i, j) over i's own (truncated) neighbours j the user
  // saw — although the truncation is asymmetric.
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  recsys::ItemKnn knn(ds);
  for (std::int64_t u = 0; u < std::min<std::int64_t>(ds.num_users, 4); ++u) {
    const std::vector<float> row = testing::score_row(knn, u);
    for (std::int32_t i = 0; i < ds.num_items; i += 11) {
      float expected = 0.0f;
      for (const auto& [j, sim] : knn.neighbors(i)) {
        if (ds.user_interacted(u, j)) expected += sim;
      }
      ASSERT_NEAR(row[static_cast<std::size_t>(i)], expected, 1e-5f)
          << "user " << u << " item " << i;
    }
  }
}

TEST(ItemKnn, NeighborTruncationRespected) {
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  recsys::ItemKnn knn(ds, {.neighbors = 3, .shrinkage = 10.0f});
  for (std::int32_t i = 0; i < ds.num_items; i += 7) {
    EXPECT_LE(knn.neighbors(i).size(), 3u);
  }
}

TEST(ItemKnn, BeatsRandomOnHeldOut) {
  // Needs a slightly larger dataset than kTestScale for the co-occurrence
  // signal to rise above the leave-one-out sampling noise.
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(0.01));
  recsys::ItemKnn knn(ds);
  Rng rng(5);
  EXPECT_GT(recsys::sampled_auc(knn, ds, rng, 30), 0.55);
}

TEST(ItemKnn, ShrinkageDampsRarePairs) {
  const auto ds = tiny_dataset();
  recsys::ItemKnn plain(ds, {.neighbors = 10, .shrinkage = 0.0f});
  recsys::ItemKnn shrunk(ds, {.neighbors = 10, .shrinkage = 5.0f});
  EXPECT_GT(plain.neighbors(0).front().second, shrunk.neighbors(0).front().second);
}

TEST(ItemKnn, ValidatesConfig) {
  const auto ds = tiny_dataset();
  EXPECT_THROW(recsys::ItemKnn(ds, {.neighbors = 0, .shrinkage = 0.0f}),
               std::invalid_argument);
  recsys::ItemKnn knn(ds);
  std::vector<float> wrong(2);
  const std::int64_t user[] = {0};
  EXPECT_THROW(knn.score_users(user, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace taamr
