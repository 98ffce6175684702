#include <gtest/gtest.h>

#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "recsys/amr.hpp"
#include "recsys/trainer.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

Tensor make_features(const data::ImplicitDataset& ds, std::int64_t d, Rng& rng) {
  Tensor proto({static_cast<std::int64_t>(data::num_categories()), d});
  testing::fill_uniform(proto, rng, 0.0f, 2.0f);
  Tensor f({ds.num_items, d});
  for (std::int64_t i = 0; i < ds.num_items; ++i) {
    const std::int32_t c = ds.item_category[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < d; ++j) {
      f.at(i, j) = proto.at(c, j) + rng.gaussian_f(0.0f, 0.1f);
    }
  }
  return f;
}

recsys::AmrConfig small_amr() {
  recsys::AmrConfig cfg;
  cfg.vbpr.mf_factors = 8;
  cfg.vbpr.visual_factors = 4;
  cfg.warm_epochs = 20;
  cfg.adversarial_epochs = 20;
  return cfg;
}

TEST(Amr, PaperDefaultsForRegularizer) {
  recsys::AmrConfig cfg;
  EXPECT_FLOAT_EQ(cfg.adversarial.gamma, 0.1f);
  EXPECT_FLOAT_EQ(cfg.adversarial.eta, 1.0f);
}

TEST(Amr, TrainingImprovesAuc) {
  const auto ds = make_dataset();
  Rng rng(21);
  Tensor f = make_features(ds, 8, rng);
  recsys::Amr model(ds, f, small_amr(), rng);
  Rng ev(22);
  const double before = recsys::sampled_auc(model, ds, ev, 20);
  model.fit(ds, rng);
  Rng ev2(22);
  const double after = recsys::sampled_auc(model, ds, ev2, 20);
  EXPECT_GT(after, before + 0.1);
  EXPECT_GT(after, 0.6);
}

TEST(Amr, NameDistinguishesFromVbpr) {
  const auto ds = make_dataset();
  Rng rng(23);
  Tensor f = make_features(ds, 6, rng);
  recsys::Amr model(ds, f, small_amr(), rng);
  EXPECT_EQ(model.name(), "AMR");
}

TEST(Amr, AdversarialEpochChangesParametersDifferently) {
  // An adversarial epoch must produce different parameters than a plain
  // epoch from the same starting point — the regularizer has teeth.
  const auto ds = make_dataset();
  Rng rng_a(24), rng_b(24);
  Tensor f_a, f_b;
  {
    Rng frng(25);
    f_a = make_features(ds, 6, frng);
  }
  {
    Rng frng(25);
    f_b = make_features(ds, 6, frng);
  }
  recsys::VbprConfig cfg;
  cfg.mf_factors = 4;
  cfg.visual_factors = 3;
  recsys::Vbpr plain(ds, f_a, cfg, rng_a);
  recsys::Vbpr adv(ds, f_b, cfg, rng_b);
  Rng ta(26), tb(26);
  plain.train_epoch(ds, ta);
  adv.train_epoch(ds, tb, recsys::AdversarialOptions{0.5f, 1.0f});
  plain.set_item_features(f_a);
  adv.set_item_features(f_b);
  const std::vector<float> plain_row = testing::score_row(plain, 0);
  const std::vector<float> adv_row = testing::score_row(adv, 0);
  float diff = 0.0f;
  for (std::size_t i = 0; i < plain_row.size(); i += 7) {
    diff += std::abs(plain_row[i] - adv_row[i]);
  }
  EXPECT_GT(diff, 1e-5f);
}

TEST(Amr, ZeroGammaMatchesPlainVbprEpoch) {
  const auto ds = make_dataset();
  Rng rng_a(27), rng_b(27);
  Tensor f;
  {
    Rng frng(28);
    f = make_features(ds, 6, frng);
  }
  recsys::VbprConfig cfg;
  cfg.mf_factors = 4;
  cfg.visual_factors = 3;
  recsys::Vbpr a(ds, f, cfg, rng_a);
  recsys::Vbpr b(ds, f, cfg, rng_b);
  Rng ta(29), tb(29);
  a.train_epoch(ds, ta);
  b.train_epoch(ds, tb, recsys::AdversarialOptions{0.0f, 1.0f});
  a.set_item_features(f);
  b.set_item_features(f);
  const std::vector<float> a_row = testing::score_row(a, 1);
  const std::vector<float> b_row = testing::score_row(b, 1);
  for (std::size_t i = 0; i < a_row.size(); i += 11) {
    ASSERT_NEAR(a_row[i], b_row[i], 2e-4f);
  }
}

TEST(Amr, MoreRobustToFeaturePerturbationThanVbpr) {
  // The core AMR claim (and what Table II's AMR rows reflect): after
  // adversarial training, a worst-case-direction feature perturbation
  // changes AMR's scores less than VBPR's. We compare the score drop of a
  // perturbation along each model's own visual direction.
  const auto ds = make_dataset();
  Rng rng_v(30), rng_m(30);
  Tensor f;
  {
    Rng frng(31);
    f = make_features(ds, 8, frng);
  }
  recsys::VbprConfig vcfg;
  vcfg.epochs = 40;
  recsys::Vbpr vbpr(ds, f, vcfg, rng_v);
  vbpr.fit(ds, rng_v);

  recsys::AmrConfig acfg = small_amr();
  acfg.vbpr.epochs = 40;
  recsys::Amr amr(ds, f, acfg, rng_m);
  amr.fit(ds, rng_m);

  // Perturb every item's features by the same random direction and compare
  // mean |score delta| relative to each model's own score scale.
  Rng prng(32);
  Tensor f_pert = f;
  for (float& v : f_pert.storage()) v += prng.gaussian_f(0.0f, 0.3f);

  auto mean_abs_delta = [&](recsys::Vbpr& model) {
    model.set_item_features(f);
    const std::vector<float> clean = testing::score_row(model, 0);
    model.set_item_features(f_pert);
    const std::vector<float> pert = testing::score_row(model, 0);
    model.set_item_features(f);
    double delta = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
      delta += std::abs(pert[i] - clean[i]);
      scale += std::abs(clean[i]);
    }
    return delta / (scale + 1e-9);
  };
  // This is a statistical property; allow generous slack but require the
  // ordering to hold.
  EXPECT_LT(mean_abs_delta(amr), mean_abs_delta(vbpr) * 1.5);
}

}  // namespace
}  // namespace taamr
