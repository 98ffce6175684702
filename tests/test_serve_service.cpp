// RecommendService behaviour: golden agreement with the ranker, caching and
// selective epoch invalidation, hot feature swaps, and
// a multi-threaded hammer (the CI TSAN job runs these suites — keep every
// scenario concurrency-clean).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "data/amazon_synth.hpp"
#include "recsys/amr.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/recommend_service.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

// Golden list straight from the ranker, for the same single-user tile the
// service's miss path ranks, so equality is exact.
std::vector<recsys::ScoredItem> golden_topn(const data::ImplicitDataset& ds,
                                            const recsys::Recommender& model,
                                            std::int64_t user, std::int64_t n) {
  const std::int64_t users[1] = {user};
  return recsys::rank_users(model, ds, users, n).front();
}

// A VBPR whose item q rows and biases a test can copy, so that two items
// differ only through their features.
class CloneableVbpr : public recsys::Vbpr {
 public:
  using recsys::Vbpr::Vbpr;

  void clone_item(std::int32_t dst, std::int32_t src) {
    for (std::int64_t f = 0; f < config_.mf_factors; ++f) {
      item_factors_.at(dst, f) = item_factors_.at(src, f);
    }
    item_bias_[dst] = item_bias_[src];
    rebuild_caches();
  }
};

class ServeServiceTest : public ::testing::Test {
 protected:
  ServeServiceTest()
      : dataset_(data::generate_synthetic_dataset(
            data::amazon_men_spec(data::kTestScale))),
        rng_(77),
        features_(make_features()),
        registry_(dataset_) {
    auto vbpr = std::make_shared<recsys::Vbpr>(dataset_, features_,
                                               recsys::VbprConfig{}, rng_);
    registry_.register_model("vbpr", vbpr, /*visual=*/true);
    recsys::BprMfConfig mf_cfg;
    auto mf = std::make_shared<recsys::BprMf>(dataset_, mf_cfg, rng_);
    registry_.register_model("mf", mf, /*visual=*/false);
  }

  Tensor make_features() {
    Tensor f({dataset_.num_items, 8});
    testing::fill_uniform(f, rng_, -1.0f, 1.0f);
    return f;
  }

  serve::RecommendService make_service(serve::ServeConfig cfg = {}) {
    return serve::RecommendService(dataset_, registry_, features_, cfg);
  }

  data::ImplicitDataset dataset_;
  Rng rng_;
  Tensor features_;
  serve::ModelRegistry registry_;
};

TEST_F(ServeServiceTest, MatchesGoldenRanker) {
  auto service = make_service();
  for (const char* model : {"vbpr", "mf"}) {
    const auto snap = registry_.get(model);
    for (std::int64_t u = 0; u < std::min<std::int64_t>(dataset_.num_users, 6); ++u) {
      const auto rec = service.recommend(model, u, 10);
      EXPECT_EQ(rec.items, golden_topn(dataset_, *snap.model, u, 10))
          << model << " user " << u;
      EXPECT_FALSE(rec.cached);
      ASSERT_LE(rec.items.size(), 10u);
      for (const auto& si : rec.items) {
        EXPECT_FALSE(dataset_.user_interacted(u, si.item));
      }
    }
  }
}

TEST_F(ServeServiceTest, SecondRequestIsCachedAndIdentical) {
  auto service = make_service();
  const auto first = service.recommend("vbpr", 2, 10);
  const auto second = service.recommend("vbpr", 2, 10);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.items, second.items);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  // Different n is a different cache entry.
  EXPECT_FALSE(service.recommend("vbpr", 2, 5).cached);
}

TEST_F(ServeServiceTest, ValidatesInputs) {
  auto service = make_service();
  EXPECT_THROW(service.recommend("nope", 0, 10), std::runtime_error);
  EXPECT_THROW(service.recommend("vbpr", -1, 10), std::invalid_argument);
  EXPECT_THROW(service.recommend("vbpr", dataset_.num_users, 10),
               std::invalid_argument);
  EXPECT_THROW(service.recommend("vbpr", 0, 0), std::invalid_argument);
  const std::vector<float> bad_dim = {1.0f};
  EXPECT_THROW(service.update_item_features(0, {bad_dim.data(), bad_dim.size()}),
               std::invalid_argument);
}

TEST_F(ServeServiceTest, CheckpointSwapInvalidatesWholesale) {
  auto service = make_service();
  const auto rec = service.recommend("vbpr", 0, 10);
  EXPECT_FALSE(rec.cached);
  EXPECT_TRUE(service.recommend("vbpr", 0, 10).cached);

  // Same parameters, new checkpoint version: every cached list is stale.
  registry_.swap("vbpr", std::make_shared<recsys::Vbpr>(*dynamic_cast<const recsys::Vbpr*>(
                             registry_.get("vbpr").model.get())));
  const auto after = service.recommend("vbpr", 0, 10);
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(after.model_version, rec.model_version + 1);
  EXPECT_EQ(after.items, rec.items);  // identical parameters, identical list
}

TEST_F(ServeServiceTest, NoOpFeatureUpdateRevalidatesInsteadOfRecomputing) {
  auto service = make_service();
  const auto before = service.recommend("vbpr", 0, 10);
  ASSERT_FALSE(before.items.empty());

  // Re-write an in-list item's features with identical values: the epoch
  // advances, the changed item is in the cached list, so the entry must be
  // discarded (the service cannot know the rewrite was a no-op)...
  const std::int32_t in_list = before.items[0].item;
  const std::vector<float> same = service.feature_store().item_features(in_list);
  service.update_item_features(in_list, {same.data(), same.size()});
  const auto recomputed = service.recommend("vbpr", 0, 10);
  EXPECT_FALSE(recomputed.cached);
  EXPECT_EQ(recomputed.items, before.items);

  // ...but an update to an item in NO cached list revalidates entries
  // cheaply instead of recomputing them: find an item outside the list that
  // scores strictly below the tail.
  const std::vector<float> row = testing::score_row(*registry_.get("vbpr").model, 0);
  std::int32_t outside = -1;
  for (std::int32_t c = 0; c < dataset_.num_items; ++c) {
    if (dataset_.user_interacted(0, c)) continue;
    bool in = false;
    for (const auto& si : recomputed.items) in = in || si.item == c;
    if (!in && row[static_cast<std::size_t>(c)] < recomputed.items.back().score - 1e-3f) {
      outside = c;
      break;
    }
  }
  ASSERT_NE(outside, -1) << "catalog too small to find a non-contending item";
  const std::vector<float> same2 = service.feature_store().item_features(outside);
  service.update_item_features(outside, {same2.data(), same2.size()});
  const std::uint64_t revalidated_before = service.stats().cache_revalidated;
  const auto survived = service.recommend("vbpr", 0, 10);
  EXPECT_TRUE(survived.cached);
  EXPECT_EQ(survived.items, recomputed.items);
  EXPECT_EQ(service.stats().cache_revalidated, revalidated_before + 1);
  EXPECT_EQ(survived.feature_epoch, service.feature_store().epoch());
}

TEST_F(ServeServiceTest, ExactTieWithTheTailInvalidates) {
  // Item c (lower id than the tail t of a cached list, outside it) becomes
  // t's exact score twin through a feature update: same q and bias from
  // the start, same features after the push. The canonical order then
  // lists c before t, so revalidation must drop the entry.
  constexpr std::int64_t kN = 10;
  int ties = 0;
  for (std::int64_t user = 0; user < dataset_.num_users && ties < 8; ++user) {
    auto model = std::make_shared<CloneableVbpr>(dataset_, features_,
                                                 recsys::VbprConfig{}, rng_);
    const auto list = golden_topn(dataset_, *model, user, kN);
    const auto listed = [](const std::vector<recsys::ScoredItem>& l, std::int32_t i) {
      return std::any_of(l.begin(), l.end(),
                         [i](const recsys::ScoredItem& s) { return s.item == i; });
    };
    if (static_cast<std::int64_t>(list.size()) < kN) continue;
    const std::int32_t t = list.back().item;
    std::int32_t c = 0;
    while (c < t && (listed(list, c) || dataset_.user_interacted(user, c))) ++c;
    if (c == t) continue;

    // Before the push c's features sit off t's, on the side that scores
    // lower (the score is linear in them), so c stays out of the list.
    model->clone_item(c, t);
    Tensor raw = features_;
    for (const float step : {0.5f, -0.5f}) {
      for (std::int64_t j = 0; j < raw.dim(1); ++j) raw.at(c, j) = raw.at(t, j) + step;
      model->set_item_features(raw);
      if (golden_topn(dataset_, *model, user, kN) == list) break;
    }
    ASSERT_EQ(golden_topn(dataset_, *model, user, kN), list) << "user " << user;
    // A registry and store of its own: the epochs start at 0 together.
    serve::ModelRegistry registry(dataset_);
    registry.register_model("tie", model, /*visual=*/true);
    serve::RecommendService service(dataset_, registry, raw);
    EXPECT_FALSE(service.recommend("tie", user, kN).cached);

    const std::vector<float> twin(raw.data() + t * raw.dim(1),
                                  raw.data() + (t + 1) * raw.dim(1));
    service.update_item_features(c, {twin.data(), twin.size()});
    const auto& swapped = *registry.get("tie").model;
    const std::vector<float> row = testing::score_row(swapped, user);
    ASSERT_EQ(row[static_cast<std::size_t>(c)], row[static_cast<std::size_t>(t)]);

    const auto served = service.recommend("tie", user, kN);
    EXPECT_FALSE(served.cached) << "user " << user;
    EXPECT_EQ(served.items, golden_topn(dataset_, swapped, user, kN)) << "user " << user;
    EXPECT_TRUE(listed(served.items, c));
    EXPECT_FALSE(listed(served.items, t));
    ++ties;
  }
  EXPECT_EQ(ties, 8);
}

TEST_F(ServeServiceTest, HotSwapChangesServedLists) {
  auto service = make_service();
  const auto before = service.recommend("vbpr", 1, 10);
  ASSERT_FALSE(before.items.empty());

  // Shove the top item far away in feature space; the served list must be
  // recomputed against the swapped-in model and must differ.
  const std::int32_t victim = before.items[0].item;
  std::vector<float> feats = service.feature_store().item_features(victim);
  for (float& f : feats) f = -f - 25.0f;
  const std::uint64_t epoch = service.update_item_features(victim, {feats.data(), feats.size()});
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(registry_.get("vbpr").feature_epoch, 1u);

  const auto after = service.recommend("vbpr", 1, 10);
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(after.feature_epoch, 1u);
  EXPECT_NE(after.items, before.items);
  EXPECT_EQ(after.items, golden_topn(dataset_, *registry_.get("vbpr").model, 1, 10));

  // Non-visual models are untouched by feature swaps.
  EXPECT_EQ(registry_.get("mf").feature_epoch, 0u);
}

TEST_F(ServeServiceTest, ChangelogOverflowFallsBackToRecompute) {
  serve::ServeConfig cfg;
  cfg.update_log_window = 2;
  auto service = make_service(cfg);
  const auto before = service.recommend("vbpr", 0, 10);

  // Three updates with a window of two: the entry's epoch falls off the
  // changelog, so the service must recompute rather than guess.
  for (std::int64_t i = 0; i < 3; ++i) {
    const std::vector<float> same = service.feature_store().item_features(i);
    service.update_item_features(i, {same.data(), same.size()});
  }
  const auto after = service.recommend("vbpr", 0, 10);
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(after.items, before.items);  // no-op rewrites: same scores
}

TEST_F(ServeServiceTest, ConcurrentLoadWithSwapsStaysConsistent) {
  auto service = make_service();

  constexpr int kThreads = 4;
  constexpr int kRequests = 150;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int r = 0; r < kRequests && !failed.load(); ++r) {
        const auto user = static_cast<std::int64_t>(
            rng.uniform() * static_cast<double>(dataset_.num_users));
        const char* model = (r % 3 == 0) ? "mf" : "vbpr";
        const auto rec = service.recommend(
            model, std::min(user, dataset_.num_users - 1), 10);
        for (std::size_t i = 0; i < rec.items.size(); ++i) {
          if (dataset_.user_interacted(rec.user, rec.items[i].item) ||
              (i > 0 && (rec.items[i].score > rec.items[i - 1].score ||
                         (rec.items[i].score == rec.items[i - 1].score &&
                          rec.items[i].item <= rec.items[i - 1].item)))) {
            failed.store(true);
          }
        }
      }
    });
  }
  // Concurrent hot swaps while the clients hammer.
  threads.emplace_back([&] {
    Rng rng(999);
    for (int s = 0; s < 10; ++s) {
      const auto item = static_cast<std::int64_t>(
          rng.uniform() * static_cast<double>(dataset_.num_items));
      std::vector<float> feats = service.feature_store().item_features(
          std::min(item, dataset_.num_items - 1));
      for (float& f : feats) f += 0.5f;
      service.update_item_features(std::min(item, dataset_.num_items - 1),
                                   {feats.data(), feats.size()});
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.stats().feature_swaps, 10u);
  // Post-load: every model must serve golden lists again.
  for (const char* model : {"vbpr", "mf"}) {
    const auto snap = registry_.get(model);
    EXPECT_EQ(service.recommend(model, 0, 10).items,
              golden_topn(dataset_, *snap.model, 0, 10));
  }
}

TEST_F(ServeServiceTest, AmrServesThroughTheSameRegistry) {
  // An AMR model registers and hot-swaps exactly like VBPR (it slices to
  // the shared Vbpr storage on rebuild, which scores identically).
  recsys::AmrConfig amr_cfg;
  auto amr = std::make_shared<recsys::Amr>(dataset_, features_, amr_cfg, rng_);
  registry_.register_model("amr", amr, /*visual=*/true);
  auto service = make_service();
  const auto before = service.recommend("amr", 0, 10);
  EXPECT_EQ(before.items, golden_topn(dataset_, *amr, 0, 10));

  ASSERT_FALSE(before.items.empty());
  std::vector<float> feats =
      service.feature_store().item_features(before.items[0].item);
  for (float& f : feats) f = -f - 25.0f;
  service.update_item_features(before.items[0].item, {feats.data(), feats.size()});
  const auto after = service.recommend("amr", 0, 10);
  EXPECT_EQ(after.items,
            golden_topn(dataset_, *registry_.get("amr").model, 0, 10));
  EXPECT_NE(after.items, before.items);
}

}  // namespace
}  // namespace taamr
