// Cross-cutting property tests: invariants that must hold for *any* input,
// checked over randomized sweeps — metric symmetries, attack-interface
// contracts, ranking invariances and BPR learning behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "attack/fgsm.hpp"
#include "attack/mim.hpp"
#include "attack/pgd.hpp"
#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/ranking.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

// ---- metric symmetries -------------------------------------------------------

class MetricSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(MetricSymmetry, PsnrAndSsimAreSymmetric) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  Tensor a({3, 16, 16}), b({3, 16, 16});
  testing::fill_uniform(a, rng, 0.0f, 1.0f);
  b = a;
  for (float& v : b.storage()) v = std::clamp(v + rng.gaussian_f(0.0f, 0.05f), 0.0f, 1.0f);
  EXPECT_NEAR(metrics::psnr(a, b), metrics::psnr(b, a), 1e-9);
  EXPECT_NEAR(metrics::ssim(a, b), metrics::ssim(b, a), 1e-9);
  EXPECT_NEAR(metrics::mse(a, b), metrics::mse(b, a), 1e-12);
}

TEST_P(MetricSymmetry, SsimInvariantToJointPermutationOfWindows) {
  // SSIM averages local windows; shuffling whole window rows jointly in
  // both images must not change the score.
  Rng rng(950 + static_cast<std::uint64_t>(GetParam()));
  Tensor a({1, 16, 16}), b({1, 16, 16});
  testing::fill_uniform(a, rng, 0.0f, 1.0f);
  testing::fill_uniform(b, rng, 0.0f, 1.0f);
  const double before = metrics::ssim(a, b);
  // Swap the top and bottom 8-row bands in both images.
  auto swap_bands = [](Tensor& t) {
    for (std::int64_t y = 0; y < 8; ++y) {
      for (std::int64_t x = 0; x < 16; ++x) {
        std::swap(t.at(0, y, x), t.at(0, y + 8, x));
      }
    }
  };
  swap_bands(a);
  swap_bands(b);
  EXPECT_NEAR(metrics::ssim(a, b), before, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MetricSymmetry, ::testing::Range(0, 5));

// ---- CHR invariances ----------------------------------------------------------

TEST(ChrProperties, InvariantToUserPermutation) {
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(17);
  // Arbitrary lists.
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(ds.num_users));
  for (auto& list : lists) {
    for (int k = 0; k < 10; ++k) {
      list.push_back(static_cast<std::int32_t>(rng.index(
          static_cast<std::size_t>(ds.num_items))));
    }
  }
  const auto before = metrics::category_hit_ratio_all(lists, ds, 10);
  Rng shuffle_rng(18);
  shuffle_rng.shuffle(lists);
  const auto after = metrics::category_hit_ratio_all(lists, ds, 10);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_NEAR(before[c], after[c], 1e-12);
  }
}

TEST(ChrProperties, AdditiveOverCategories) {
  // Summing the per-category CHR of a partition equals the fill fraction.
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(19);
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(ds.num_users));
  std::int64_t total_slots = 0;
  for (auto& list : lists) {
    const int len = 3 + static_cast<int>(rng.index(8));
    for (int k = 0; k < len; ++k) {
      list.push_back(static_cast<std::int32_t>(rng.index(
          static_cast<std::size_t>(ds.num_items))));
    }
    total_slots += len;
  }
  const auto chr = metrics::category_hit_ratio_all(lists, ds, 10);
  double sum = 0.0;
  for (double v : chr) sum += v;
  EXPECT_NEAR(sum, static_cast<double>(total_slots) /
                       (10.0 * static_cast<double>(ds.num_users)),
              1e-9);
}

// ---- ranking metric relations --------------------------------------------------

TEST(RankingProperties, PrecisionEqualsHrOverN) {
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(20);
  const std::int64_t n = 10;
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(ds.num_users));
  for (auto& list : lists) {
    for (int k = 0; k < n; ++k) {
      list.push_back(static_cast<std::int32_t>(rng.index(
          static_cast<std::size_t>(ds.num_items))));
    }
  }
  EXPECT_NEAR(metrics::precision_at_n(lists, ds),
              metrics::hit_ratio_at_n(lists, ds) / static_cast<double>(n), 1e-12);
  EXPECT_EQ(metrics::recall_at_n(lists, ds), metrics::hit_ratio_at_n(lists, ds));
}

TEST(RankingProperties, NdcgBoundsByHr) {
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::vector<std::int32_t>> lists(
        static_cast<std::size_t>(ds.num_users));
    for (auto& list : lists) {
      for (int k = 0; k < 8; ++k) {
        list.push_back(static_cast<std::int32_t>(rng.index(
            static_cast<std::size_t>(ds.num_items))));
      }
    }
    const double hr = metrics::hit_ratio_at_n(lists, ds);
    const double ndcg = metrics::ndcg_at_n(lists, ds);
    EXPECT_LE(ndcg, hr + 1e-12);
    // A hit at the worst position still earns 1/log2(9) of a point.
    EXPECT_GE(ndcg, hr / std::log2(9.0) - 1e-12);
  }
}

// ---- attack-interface contracts -------------------------------------------------

class AttackContract
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(AttackContract, BoundRangeAndShapeHoldOnUntrainedNetwork) {
  // The l_inf bound, pixel range and shape contract must hold regardless of
  // the model's training state or the attack's direction.
  const auto [key, targeted] = GetParam();
  nn::MiniResNetConfig cfg;
  cfg.image_size = 8;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 4;
  Rng rng(1000 + key.size() * 2 + (targeted ? 1 : 0));
  nn::Classifier c(cfg, rng);
  Tensor x({3, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  const std::vector<std::int64_t> labels = {0, 1, 3};

  attack::AttackConfig acfg;
  acfg.epsilon = attack::epsilon_from_255(8.0f);
  acfg.targeted = targeted;
  auto attacker = attack::make(key, acfg);
  Rng arng(2000 + key.size());
  const Tensor adv = attacker->perturb(c, x, labels, arng);
  ASSERT_EQ(adv.shape(), x.shape());
  EXPECT_LE(ops::linf_distance(adv, x), acfg.epsilon + 1e-5f);
  EXPECT_GE(ops::min(adv), 0.0f);
  EXPECT_LE(ops::max(adv), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AttackContract,
    ::testing::Combine(::testing::Values(std::string("fgsm"),
                                         std::string("pgd"),
                                         std::string("mim")),
                       ::testing::Bool()));

// ---- BPR learning behaviour -----------------------------------------------------

TEST(BprBehaviour, RepeatedEpochsWidenThePreferenceGap) {
  // On a dataset where user 0 only ever interacted with item 0, training
  // must push score(0, item 0) above the catalog average — the essence of
  // the pairwise objective.
  data::ImplicitDataset ds;
  ds.name = "single";
  ds.num_users = 2;
  ds.num_items = 6;
  ds.item_category.assign(6, 0);
  ds.item_image_seed = {0, 1, 2, 3, 4, 5};
  ds.train = {{0}, {5}};
  ds.test = {-1, -1};

  Rng rng(31);
  Tensor f({6, 4});
  testing::fill_uniform(f, rng);
  recsys::VbprConfig cfg;
  cfg.mf_factors = 4;
  cfg.visual_factors = 2;
  cfg.learning_rate = 0.05f;  // tiny dataset: 2 updates per epoch
  recsys::Vbpr model(ds, f, cfg, rng);

  auto gap = [&](recsys::Vbpr& m) {
    const std::vector<float> scores = testing::score_row(m, 0);
    double rest = 0.0;
    for (int i = 1; i < 6; ++i) rest += scores[static_cast<std::size_t>(i)];
    return scores[0] - rest / 5.0;
  };
  const double before = gap(model);
  for (int e = 0; e < 150; ++e) model.train_epoch(ds, rng);
  model.set_item_features(f);
  EXPECT_GT(gap(model), before + 0.5);
}

TEST(BprBehaviour, RegularizationBoundsParameterGrowth) {
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(32);
  Tensor f({ds.num_items, 6});
  testing::fill_uniform(f, rng);
  recsys::VbprConfig strong;
  strong.reg_factors = 0.2f;
  strong.reg_bias = 0.2f;
  strong.reg_visual = 0.2f;
  strong.epochs = 20;
  recsys::VbprConfig weak = strong;
  weak.reg_factors = 0.0f;
  weak.reg_bias = 0.0f;
  weak.reg_visual = 0.0f;

  Rng r1(33), r2(33);
  recsys::Vbpr m_strong(ds, f, strong, r1);
  recsys::Vbpr m_weak(ds, f, weak, r2);
  Rng t1(34), t2(34);
  for (int e = 0; e < 20; ++e) {
    m_strong.train_epoch(ds, t1);
    m_weak.train_epoch(ds, t2);
  }
  m_strong.set_item_features(f);
  m_weak.set_item_features(f);
  // The strongly regularized model must end with smaller score magnitudes.
  const std::vector<float> s_strong = testing::score_row(m_strong, 0);
  const std::vector<float> s_weak = testing::score_row(m_weak, 0);
  double mag_strong = 0.0, mag_weak = 0.0;
  for (std::size_t i = 0; i < s_strong.size(); ++i) {
    mag_strong += std::fabs(s_strong[i]);
    mag_weak += std::fabs(s_weak[i]);
  }
  EXPECT_LT(mag_strong, mag_weak);
}

// ---- ranker consistency under score translation ----------------------------------

TEST(RankerProperties, TopNInvariantToPopularityOfExcludedItems) {
  // Excluded (training) items must have no influence on the produced list
  // regardless of their scores — the -inf masking contract.
  const auto ds = data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(35);
  Tensor f({ds.num_items, 6});
  testing::fill_uniform(f, rng);
  recsys::Vbpr model(ds, f, {}, rng);
  const auto lists = recsys::top_n_lists(model, ds, 20);
  for (std::int64_t u = 0; u < std::min<std::int64_t>(ds.num_users, 10); ++u) {
    for (std::int32_t item : lists[static_cast<std::size_t>(u)]) {
      EXPECT_FALSE(ds.user_interacted(u, item))
          << "training item leaked into user " << u << "'s list";
    }
  }
}

}  // namespace
}  // namespace taamr
