#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/amazon_synth.hpp"
#include "data/categories.hpp"
#include "recsys/trainer.hpp"
#include "recsys/vbpr.hpp"
#include "tensor/simd/dispatch.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

// Synthetic features: items of the same category share a direction, which
// gives VBPR real signal to exploit.
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

// Evaluates Eq. 6-7 straight from the parameters, in double, bypassing
// the scoring caches and the GEMMs.
class VbprFormula : public recsys::Vbpr {
 public:
  using recsys::Vbpr::Vbpr;

  double score(std::int64_t u, std::int64_t i) const {
    const std::int64_t k = config_.mf_factors, a = config_.visual_factors;
    const std::int64_t d = feature_dim();
    double s = item_bias_[i];
    for (std::int64_t f = 0; f < k; ++f) s += user_factors_.at(u, f) * item_factors_.at(i, f);
    for (std::int64_t r = 0; r < a; ++r) {
      double theta = 0.0;
      for (std::int64_t c = 0; c < d; ++c) theta += embedding_.at(r, c) * features_.at(i, c);
      s += user_visual_.at(u, r) * theta;
    }
    for (std::int64_t c = 0; c < d; ++c) s += visual_bias_[c] * features_.at(i, c);
    return s;
  }

  const Tensor& embedding() const { return embedding_; }
  const Tensor& theta_t() const { return theta_cache_t_; }
};

std::vector<float> transposed(const float* m, std::int64_t rows, std::int64_t cols) {
  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c * rows + r)] = m[r * cols + c];
    }
  }
  return out;
}

// Theta^T [A, I] the way rebuild_caches once built it: Theta = F E^T
// ([I, A]) on `kern`, then transposed.
std::vector<float> theta_t_item_major(const simd::Kernels& kern, const Tensor& f,
                                      const Tensor& e) {
  const std::int64_t items = f.dim(0), d = f.dim(1), a = e.dim(0);
  const std::vector<float> et = transposed(e.data(), a, d);
  std::vector<float> theta(static_cast<std::size_t>(items * a), 0.0f);
  kern.gemm_panel(theta.data(), f.data(), et.data(), 0, items, d, a);
  return transposed(theta.data(), items, a);
}

// Theta^T = E F^T directly, as rebuild_caches builds it now.
std::vector<float> theta_t_direct(const simd::Kernels& kern, const Tensor& f,
                                  const Tensor& e) {
  const std::int64_t items = f.dim(0), d = f.dim(1), a = e.dim(0);
  const std::vector<float> ft = transposed(f.data(), items, d);
  std::vector<float> out(static_cast<std::size_t>(a * items), 0.0f);
  kern.gemm_panel(out.data(), e.data(), ft.data(), 0, a, d, items);
  return out;
}

TEST(FeatureTransform, StandardizesToZeroMeanUnitScale) {
  Rng rng(1);
  Tensor f({50, 6});
  testing::fill_uniform(f, rng, 2.0f, 10.0f);
  const auto t = recsys::FeatureTransform::fit(f);
  const Tensor z = t.apply(f);
  double mean = 0.0, var = 0.0;
  for (float v : z.flat()) mean += v;
  mean /= static_cast<double>(z.numel());
  EXPECT_NEAR(mean, 0.0, 1e-4);
  for (float v : z.flat()) var += (v - mean) * (v - mean);
  var /= static_cast<double>(z.numel());
  EXPECT_NEAR(var, 1.0, 0.35);  // per-dim mean removal + single global scale
}

TEST(FeatureTransform, IsFrozenAndReusable) {
  Rng rng(2);
  Tensor f({20, 4});
  testing::fill_uniform(f, rng);
  const auto t = recsys::FeatureTransform::fit(f);
  Tensor shifted = f;
  for (float& v : shifted.storage()) v += 1.0f;
  const Tensor a = t.apply(f);
  const Tensor b = t.apply(shifted);
  // Same transform on shifted inputs -> shifted outputs (no re-fitting).
  EXPECT_NEAR(b[0] - a[0], t.inv_scale, 1e-5f);
  EXPECT_THROW(t.apply(Tensor({5, 3})), std::invalid_argument);
}

TEST(Vbpr, ConstructorValidatesFeatureRows) {
  const auto ds = make_dataset();
  Rng rng(3);
  Tensor bad({ds.num_items + 1, 8});
  testing::fill_uniform(bad, rng);
  EXPECT_THROW(recsys::Vbpr(ds, bad, {}, rng), std::invalid_argument);
}

TEST(Vbpr, ScoreMatchesFormula) {
  const auto ds = make_dataset();
  Rng rng(4);
  Tensor f = make_features(ds, 8, rng);
  recsys::VbprConfig cfg;
  cfg.mf_factors = 4;
  cfg.visual_factors = 3;
  VbprFormula model(ds, f, cfg, rng);
  const std::vector<float> row = testing::score_row(model, 2);
  for (std::int32_t i = 0; i < ds.num_items; i += 17) {
    EXPECT_NEAR(row[static_cast<std::size_t>(i)], model.score(2, i), 1e-5f);
  }
  // Scattered and repeated users in one call: each row is bitwise its
  // one-user row (the GEMM computes every score as its own k-ordered chain).
  const std::int64_t users[] = {2, 0, ds.num_users - 1, 2};
  const std::size_t items = static_cast<std::size_t>(ds.num_items);
  std::vector<float> all(4 * items);
  model.score_users(users, all);
  for (std::size_t r = 0; r < 4; ++r) {
    const std::vector<float> one = testing::score_row(model, users[r]);
    EXPECT_EQ(std::memcmp(all.data() + r * items, one.data(), items * sizeof(float)), 0)
        << "row " << r;
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(model.score_users(users, wrong), std::invalid_argument);
  const std::int64_t bad_user[] = {ds.num_users};
  EXPECT_THROW(model.score_users(bad_user, {all.data(), items}), std::invalid_argument);
}

TEST(Vbpr, TrainingImprovesAuc) {
  const auto ds = make_dataset();
  Rng rng(5);
  Tensor f = make_features(ds, 8, rng);
  recsys::VbprConfig cfg;
  cfg.mf_factors = 8;
  cfg.visual_factors = 4;
  cfg.epochs = 40;
  recsys::Vbpr model(ds, f, cfg, rng);
  Rng ev(6);
  const double before = recsys::sampled_auc(model, ds, ev, 20);
  model.fit(ds, rng);
  Rng ev2(6);
  const double after = recsys::sampled_auc(model, ds, ev2, 20);
  EXPECT_GT(after, before + 0.1);
  EXPECT_GT(after, 0.6);
}

// Both orders accumulate each element over d in the same sequence; only
// the operands of each product swap sides, which is exact (FMA included).
// The scalar kernel's zero skip drops +-0 terms from an accumulator that
// starts at +0 and so never becomes -0. Hence bitwise equality, on every
// kernel table, with zeros in both operands.
TEST(Vbpr, ThetaCacheIsBitwiseTheItemMajorProductTransposed) {
  const auto ds = make_dataset();
  Rng rng(11);
  const Tensor raw = make_features(ds, 16, rng);
  VbprFormula model(ds, raw, {}, rng);
  const std::vector<float> want =
      theta_t_item_major(simd::active(), model.features(), model.embedding());
  ASSERT_EQ(static_cast<std::int64_t>(want.size()), model.theta_t().numel());
  EXPECT_EQ(std::memcmp(want.data(), model.theta_t().data(), want.size() * sizeof(float)),
            0);

  Tensor f = model.features();
  Tensor e = model.embedding();
  for (std::int64_t i = 0; i < f.dim(0); i += 5) f.at(i, i % f.dim(1)) = 0.0f;
  for (std::int64_t r = 0; r < e.dim(0); r += 3) e.at(r, (r + 1) % e.dim(1)) = -0.0f;
  for (const simd::Variant v : {simd::Variant::kScalar, simd::Variant::kAvx2}) {
    if (v == simd::Variant::kAvx2 && !simd::avx2_supported()) continue;
    const simd::Kernels& kern = *simd::kernels_for(v);
    const std::vector<float> old_order = theta_t_item_major(kern, f, e);
    const std::vector<float> new_order = theta_t_direct(kern, f, e);
    EXPECT_EQ(std::memcmp(old_order.data(), new_order.data(),
                          old_order.size() * sizeof(float)),
              0)
        << simd::variant_name(v);
  }
}

TEST(Vbpr, ScoreItemsIsTheFullRowAfterSetItemFeatures) {
  // Scoring a few items under new features gives, bit for bit, their
  // columns of score_users once those features are swapped in, for any
  // user subset and item order; the model itself does not change.
  const auto ds = make_dataset();
  Rng rng(12);
  const Tensor raw = make_features(ds, 16, rng);
  recsys::VbprConfig cfg;
  cfg.epochs = 3;
  recsys::Vbpr model(ds, raw, cfg, rng);
  model.fit(ds, rng);

  const std::vector<std::int32_t> items = {17, 3, static_cast<std::int32_t>(ds.num_items - 1),
                                           40, 0};
  Tensor rows({static_cast<std::int64_t>(items.size()), 16});
  testing::fill_uniform(rows, rng, -1.0f, 3.0f);
  std::vector<std::int64_t> users;
  for (std::int64_t u = ds.num_users - 1; u >= 0; u -= 3) users.push_back(u);
  const std::vector<float> row_before = testing::score_row(model, 5);
  std::vector<float> got(users.size() * items.size());
  model.score_items(users, items, rows, got);
  EXPECT_EQ(testing::score_row(model, 5), row_before);

  Tensor merged = raw;
  for (std::size_t j = 0; j < items.size(); ++j) {
    for (std::int64_t c = 0; c < 16; ++c) {
      merged.at(items[j], c) = rows.at(static_cast<std::int64_t>(j), c);
    }
  }
  recsys::Vbpr attacked = model;
  attacked.set_item_features(merged);
  const std::size_t num_items = static_cast<std::size_t>(ds.num_items);
  std::vector<float> full(users.size() * num_items);
  attacked.score_users(users, full);
  for (std::size_t r = 0; r < users.size(); ++r) {
    for (std::size_t j = 0; j < items.size(); ++j) {
      const float want = full[r * num_items + static_cast<std::size_t>(items[j])];
      const float have = got[r * items.size() + j];
      ASSERT_EQ(std::memcmp(&want, &have, sizeof(float)), 0)
          << "user " << users[r] << " item " << items[j];
    }
  }

  std::vector<float> one(items.size());
  const std::int64_t user = 0;
  EXPECT_THROW(model.score_items({&user, 1}, items, Tensor({5, 15}), one),
               std::invalid_argument);
  const std::vector<std::int32_t> bad = {0, 1, 2, 3, static_cast<std::int32_t>(ds.num_items)};
  EXPECT_THROW(model.score_items({&user, 1}, bad, rows, one), std::invalid_argument);
  EXPECT_THROW(model.score_items({&user, 1}, items, rows, std::span<float>(one).first(4)),
               std::invalid_argument);
}

TEST(Vbpr, StaleCachesAreRejected) {
  const auto ds = make_dataset();
  Rng rng(7);
  Tensor f = make_features(ds, 6, rng);
  recsys::Vbpr model(ds, f, {}, rng);
  model.train_epoch(ds, rng);  // leaves caches dirty
  EXPECT_THROW(testing::score_row(model, 0), std::logic_error);
  model.set_item_features(f);  // refreshes
  EXPECT_NO_THROW(testing::score_row(model, 0));
}

TEST(Vbpr, SetItemFeaturesChangesVisualScores) {
  const auto ds = make_dataset();
  Rng rng(8);
  Tensor f = make_features(ds, 6, rng);
  recsys::VbprConfig cfg;
  cfg.epochs = 10;
  recsys::Vbpr model(ds, f, cfg, rng);
  model.fit(ds, rng);
  const float before = testing::score_row(model, 1)[3];
  Tensor f2 = f;
  for (std::int64_t j = 0; j < 6; ++j) f2.at(3, j) += 5.0f;
  model.set_item_features(f2);
  const float after = testing::score_row(model, 1)[3];
  EXPECT_NE(before, after);
  // Other items are untouched.
  model.set_item_features(f);
  EXPECT_NEAR(testing::score_row(model, 1)[3], before, 1e-5f);
}

TEST(Vbpr, SetItemFeaturesValidatesShape) {
  const auto ds = make_dataset();
  Rng rng(9);
  Tensor f = make_features(ds, 6, rng);
  recsys::Vbpr model(ds, f, {}, rng);
  EXPECT_THROW(model.set_item_features(Tensor({ds.num_items, 7})),
               std::invalid_argument);
  EXPECT_THROW(model.set_item_features(Tensor({2, 6})), std::invalid_argument);
}

TEST(Vbpr, VisualSignalBeatsPureCollaborativeOnVisualData) {
  // With category-structured features and focused users, VBPR's visual
  // term should help ranking unseen items of a user's preferred category.
  const auto ds = make_dataset();
  Rng rng(10);
  Tensor f = make_features(ds, 8, rng);
  recsys::VbprConfig cfg;
  cfg.epochs = 50;
  recsys::Vbpr model(ds, f, cfg, rng);
  model.fit(ds, rng);
  Rng ev(11);
  EXPECT_GT(recsys::sampled_auc(model, ds, ev, 30), 0.6);
}

}  // namespace
}  // namespace taamr
