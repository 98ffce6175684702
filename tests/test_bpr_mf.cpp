#include <gtest/gtest.h>

#include "data/amazon_synth.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/trainer.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

TEST(BprMf, ScoreMatchesManualComputation) {
  const auto ds = make_dataset();
  Rng rng(1);
  recsys::BprMfConfig cfg;
  cfg.factors = 4;
  recsys::BprMf model(ds, cfg, rng);
  const std::int64_t u = 3;
  const std::int32_t i = 7;
  float expect = model.item_bias()[i];
  for (std::int64_t f = 0; f < 4; ++f) {
    expect += model.user_factors().at(u, f) * model.item_factors().at(i, f);
  }
  EXPECT_NEAR(testing::score_row(model, u)[i], expect, 1e-6f);
}

TEST(BprMf, ScoreUsersRowsMatchOneUserRows) {
  // A row does not depend on the other users of the call: repeats and
  // scattered ids give each user its one-user row, bit for bit.
  const auto ds = make_dataset();
  Rng rng(2);
  recsys::BprMf model(ds, {}, rng);
  const std::int64_t users[] = {5, 0, 5};
  const std::size_t items = static_cast<std::size_t>(ds.num_items);
  std::vector<float> all(3 * items);
  model.score_users(users, all);
  for (std::size_t r = 0; r < 3; ++r) {
    const std::vector<float> row(all.begin() + static_cast<std::ptrdiff_t>(r * items),
                                 all.begin() + static_cast<std::ptrdiff_t>((r + 1) * items));
    EXPECT_EQ(row, testing::score_row(model, users[r])) << "row " << r;
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(model.score_users(users, wrong), std::invalid_argument);
  const std::int64_t bad_user[] = {ds.num_users};
  std::vector<float> one(items);
  EXPECT_THROW(model.score_users(bad_user, one), std::invalid_argument);
}

TEST(BprMf, TrainingImprovesAuc) {
  const auto ds = make_dataset();
  Rng rng(3);
  recsys::BprMfConfig cfg;
  cfg.factors = 8;
  cfg.epochs = 40;
  recsys::BprMf model(ds, cfg, rng);
  Rng eval_rng(4);
  const double auc_before = recsys::sampled_auc(model, ds, eval_rng, 20);
  model.fit(ds, rng);
  Rng eval_rng2(4);
  const double auc_after = recsys::sampled_auc(model, ds, eval_rng2, 20);
  EXPECT_GT(auc_after, auc_before + 0.1);
  EXPECT_GT(auc_after, 0.65);
}

TEST(BprMf, LossDecreasesOverEpochs) {
  const auto ds = make_dataset();
  Rng rng(5);
  recsys::BprMf model(ds, {}, rng);
  const float first = model.train_epoch(ds, rng);
  float last = first;
  for (int e = 0; e < 20; ++e) last = model.train_epoch(ds, rng);
  EXPECT_LT(last, first);
}

TEST(BprMf, DeterministicGivenSeeds) {
  const auto ds = make_dataset();
  Rng rng_a(7), rng_b(7);
  recsys::BprMf a(ds, {}, rng_a);
  recsys::BprMf b(ds, {}, rng_b);
  Rng ta(8), tb(8);
  a.train_epoch(ds, ta);
  b.train_epoch(ds, tb);
  EXPECT_EQ(testing::score_row(a, 0), testing::score_row(b, 0));
  EXPECT_EQ(testing::score_row(a, 3), testing::score_row(b, 3));
}

TEST(SampledAuc, ValidatesArguments) {
  const auto ds = make_dataset();
  Rng rng(9);
  recsys::BprMf model(ds, {}, rng);
  EXPECT_THROW(recsys::sampled_auc(model, ds, rng, 0), std::invalid_argument);
}

}  // namespace
}  // namespace taamr
