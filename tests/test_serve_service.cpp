// RecommendService behaviour: golden agreement with the ranker, caching and
// selective epoch invalidation, batched scoring, hot feature swaps, and
// a multi-threaded hammer (the CI TSAN job runs these suites — keep every
// scenario concurrency-clean).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
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

// Golden list through the exact arithmetic path the service uses
// (score_users + canonical tie-break + drop masked), so equality is exact.
std::vector<recsys::ScoredItem> golden_topn(const data::ImplicitDataset& ds,
                                            const recsys::Recommender& model,
                                            std::int64_t user, std::int64_t n) {
  std::vector<float> row(static_cast<std::size_t>(ds.num_items));
  const std::int64_t users[1] = {user};
  model.score_users({users, 1}, row);
  for (const std::int32_t it : ds.train[static_cast<std::size_t>(user)]) {
    row[static_cast<std::size_t>(it)] = -std::numeric_limits<float>::infinity();
  }
  return recsys::top_n_from_row(row, n, /*drop_masked=*/true);
}

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

TEST_F(ServeServiceTest, BatchMatchesSingles) {
  auto service = make_service();
  const std::vector<std::int64_t> users = {0, 3, 1, 3, 5};
  const auto batch = service.recommend_batch("vbpr", users, 8);
  ASSERT_EQ(batch.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batch[i].user, users[i]);
    EXPECT_EQ(batch[i].items, service.recommend("vbpr", users[i], 8).items);
  }
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
  const auto snap = registry_.get("vbpr");
  std::int32_t outside = -1;
  for (std::int32_t c = 0; c < dataset_.num_items; ++c) {
    if (dataset_.user_interacted(0, c)) continue;
    bool in = false;
    for (const auto& si : recomputed.items) in = in || si.item == c;
    if (!in && snap.model->score(0, c) < recomputed.items.back().score - 1e-3f) {
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

TEST_F(ServeServiceTest, RecommendBatchMixesHitsAndMisses) {
  auto service = make_service();
  // Single recommend() calls score their one miss alone.
  service.recommend("vbpr", 1, 10);
  service.recommend("vbpr", 4, 10);
  EXPECT_EQ(service.stats().coalesced_batches, 0u);

  // Users 1 and 4 are now cached; 0, 2 and 3 miss and are scored together.
  const std::vector<std::int64_t> users = {0, 1, 2, 4, 3};
  const auto batch = service.recommend_batch("vbpr", users, 10);
  const auto snap = registry_.get("vbpr");
  ASSERT_EQ(batch.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batch[i].user, users[i]);
    EXPECT_EQ(batch[i].cached, users[i] == 1 || users[i] == 4) << "user " << users[i];
    EXPECT_EQ(batch[i].items, golden_topn(dataset_, *snap.model, users[i], 10))
        << "user " << users[i];
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 5u);

  // One hit plus one miss is not a multi-miss batch.
  const std::vector<std::int64_t> one_miss = {0, 5};
  service.recommend_batch("vbpr", one_miss, 10);
  stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.cache_misses, 6u);
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
