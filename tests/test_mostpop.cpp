#include <gtest/gtest.h>

#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "recsys/mostpop.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

TEST(MostPop, ScoresEqualTrainCounts) {
  const auto ds = make_dataset();
  recsys::MostPop model(ds);
  const auto counts = ds.item_train_counts();
  const std::vector<float> row = testing::score_row(model, 0);
  for (std::int32_t i = 0; i < ds.num_items; i += 7) {
    EXPECT_EQ(row[static_cast<std::size_t>(i)],
              static_cast<float>(counts[static_cast<std::size_t>(i)]));
  }
}

TEST(MostPop, IdenticalForAllUsers) {
  const auto ds = make_dataset();
  recsys::MostPop model(ds);
  // Both rows of one call, and a one-user row.
  const std::size_t items = static_cast<std::size_t>(ds.num_items);
  const std::int64_t users[] = {0, ds.num_users - 1};
  std::vector<float> both(2 * items);
  model.score_users(users, both);
  const std::vector<float> first(both.begin(), both.begin() + static_cast<std::ptrdiff_t>(items));
  const std::vector<float> last(both.begin() + static_cast<std::ptrdiff_t>(items), both.end());
  EXPECT_EQ(first, last);
  EXPECT_EQ(first, testing::score_row(model, 1));
}

TEST(MostPop, BeatsRandomOnHeldOut) {
  const auto ds = make_dataset();
  recsys::MostPop model(ds);
  Rng rng(3);
  EXPECT_GT(recsys::sampled_auc(model, ds, rng, 30), 0.55);
}

TEST(MostPop, TopListsFavorPopularCategories) {
  const auto ds = make_dataset();
  recsys::MostPop model(ds);
  const auto lists = recsys::top_n_lists(model, ds, 20);
  const auto chr = metrics::category_hit_ratio_all(lists, ds, 20);
  // The heavily weighted category must out-rank the rare one.
  EXPECT_GT(chr[data::kRunningShoe], chr[data::kSock]);
}

TEST(MostPop, ValidatesOutputSize) {
  const auto ds = make_dataset();
  recsys::MostPop model(ds);
  std::vector<float> wrong(3);
  const std::int64_t user[] = {0};
  EXPECT_THROW(model.score_users(user, wrong), std::invalid_argument);
  std::vector<float> row(static_cast<std::size_t>(ds.num_items));
  const std::int64_t bad_user[] = {-1};
  EXPECT_THROW(model.score_users(bad_user, row), std::invalid_argument);
}

}  // namespace
}  // namespace taamr
