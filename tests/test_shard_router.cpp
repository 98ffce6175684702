// ShardRouter behaviour: the stable user -> shard mapping, golden agreement
// through the routed path, per-shard cache isolation under sibling hot
// swaps, cross-shard swap consistency on the shared epoch axis, aggregated
// stats, and a concurrent hammer (suite names start with "ShardRouter" so
// the CI thread-sanitizer job picks them up).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/amazon_synth.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/shard_router.hpp"
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

class ShardRouterTest : public ::testing::Test {
 protected:
  ShardRouterTest()
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

  serve::ShardRouter make_router(std::int64_t shards) {
    serve::ShardRouterConfig cfg;
    cfg.num_shards = shards;
    return serve::ShardRouter(dataset_, registry_, features_, cfg);
  }

  // One user per shard (the generator's user space covers every shard at
  // any small shard count thanks to the splitmix64 spread).
  std::vector<std::int64_t> users_covering_shards(const serve::ShardRouter& r) {
    std::vector<std::int64_t> users(r.num_shards(), -1);
    std::size_t found = 0;
    for (std::int64_t u = 0; u < dataset_.num_users && found < users.size(); ++u) {
      const std::size_t s = r.shard_of(u);
      if (users[s] < 0) {
        users[s] = u;
        ++found;
      }
    }
    EXPECT_EQ(found, users.size()) << "user space does not cover every shard";
    return users;
  }

  data::ImplicitDataset dataset_;
  Rng rng_;
  Tensor features_;
  serve::ModelRegistry registry_;
};

TEST_F(ShardRouterTest, ShardOfIsStableAndInRange) {
  auto router = make_router(4);
  ASSERT_EQ(router.num_shards(), 4u);
  for (std::int64_t u = 0; u < dataset_.num_users; ++u) {
    const std::size_t s = router.shard_of(u);
    EXPECT_LT(s, router.num_shards());
    EXPECT_EQ(s, router.shard_of(u));  // pure function of (user, shards)
  }
}

TEST_F(ShardRouterTest, AutoShardCountIsAtLeastOne) {
  auto router = make_router(0);
  EXPECT_GE(router.num_shards(), 1u);
}

TEST_F(ShardRouterTest, RequestsLandOnTheHashedShard) {
  auto router = make_router(3);
  const std::vector<std::int64_t> users = users_covering_shards(router);
  for (std::size_t s = 0; s < users.size(); ++s) {
    for (int i = 0; i < 3; ++i) router.recommend("vbpr", users[s], 5);
  }
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.shard_stats(s).requests, 3u) << "shard " << s;
  }
}

TEST_F(ShardRouterTest, MatchesGoldenRanker) {
  auto router = make_router(4);
  for (const char* model : {"vbpr", "mf"}) {
    for (const std::int64_t user : users_covering_shards(router)) {
      const auto rec = router.recommend(model, user, 10);
      EXPECT_EQ(rec.user, user);
      EXPECT_EQ(rec.items,
                golden_topn(dataset_, *registry_.get(model).model, user, 10));
    }
  }
}

TEST_F(ShardRouterTest, RejectsOutOfRangeUsers) {
  auto router = make_router(2);
  EXPECT_THROW(router.recommend("vbpr", -1, 5), std::invalid_argument);
  EXPECT_THROW(router.recommend("vbpr", dataset_.num_users, 5),
               std::invalid_argument);
}

// A hot swap carried by one shard must invalidate exactly the sibling-shard
// entries whose lists it touches: the victim's owner recomputes, an
// unaffected user's cached list survives revalidation.
TEST_F(ShardRouterTest, SiblingShardCacheSurvivesUnrelatedSwap) {
  auto router = make_router(2);
  const std::vector<std::int64_t> users = users_covering_shards(router);
  const std::int64_t user_a = users[0];
  const std::int64_t user_b = users[1];

  const auto list_a = router.recommend("vbpr", user_a, 5).items;
  const auto list_b = router.recommend("vbpr", user_b, 5).items;
  ASSERT_FALSE(list_a.empty());
  ASSERT_FALSE(list_b.empty());
  EXPECT_TRUE(router.recommend("vbpr", user_a, 5).cached);
  EXPECT_TRUE(router.recommend("vbpr", user_b, 5).cached);

  // Pick a victim from B's list that is not in A's; shove it far down so it
  // cannot enter A's list either.
  std::int32_t victim = -1;
  for (const auto& scored : list_b) {
    bool in_a = false;
    for (const auto& a : list_a) in_a = in_a || a.item == scored.item;
    if (!in_a) {
      victim = scored.item;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "lists fully overlap; dataset too small";
  std::vector<float> feats = router.feature_store().item_features(victim);
  for (float& f : feats) f = -f - 100.0f;
  const std::uint64_t epoch = router.update_item_features(victim, feats);

  const auto after_a = router.recommend("vbpr", user_a, 5);
  EXPECT_TRUE(after_a.cached) << "unaffected sibling entry should revalidate";
  EXPECT_EQ(after_a.feature_epoch, epoch);
  EXPECT_EQ(after_a.items, list_a);

  const auto after_b = router.recommend("vbpr", user_b, 5);
  EXPECT_FALSE(after_b.cached) << "victim owner's entry must recompute";
  EXPECT_EQ(after_b.feature_epoch, epoch);
  EXPECT_NE(after_b.items, list_b);
}

// All shards share one feature store and one registry: a swap (funneled
// through shard 0) must be visible, golden-exact and epoch-stamped on every
// shard's request path.
TEST_F(ShardRouterTest, SwapIsConsistentAcrossShards) {
  auto router = make_router(4);
  const std::vector<std::int64_t> users = users_covering_shards(router);
  for (const std::int64_t u : users) router.recommend("vbpr", u, 5);

  const std::int32_t victim = router.recommend("vbpr", users[0], 5).items[0].item;
  std::vector<float> feats = router.feature_store().item_features(victim);
  for (float& f : feats) f = -f - 100.0f;
  const std::uint64_t epoch = router.update_item_features(victim, feats);
  EXPECT_EQ(registry_.get("vbpr").feature_epoch, epoch);

  const auto& swapped = *registry_.get("vbpr").model;
  for (const std::int64_t u : users) {
    const auto rec = router.recommend("vbpr", u, 5);
    EXPECT_EQ(rec.feature_epoch, epoch);
    EXPECT_EQ(rec.items, golden_topn(dataset_, swapped, u, 5));
  }
  EXPECT_EQ(router.stats().feature_swaps, 1u);
}

TEST_F(ShardRouterTest, StatsAggregateAcrossShards) {
  auto router = make_router(3);
  const std::vector<std::int64_t> users = users_covering_shards(router);
  for (const std::int64_t u : users) {
    router.recommend("vbpr", u, 5);
    router.recommend("vbpr", u, 5);
  }
  const auto total = router.stats();
  EXPECT_EQ(total.requests, 2 * users.size());
  std::uint64_t per_shard = 0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    per_shard += router.shard_stats(s).requests;
  }
  EXPECT_EQ(per_shard, total.requests);
  EXPECT_GT(total.cache_hits, 0u);
}

TEST_F(ShardRouterTest, ConcurrentHammerWithSwapsStaysCanonical) {
  auto router = make_router(2);
  constexpr int kThreads = 4;
  constexpr int kRequests = 60;
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int r = 0; r < kRequests; ++r) {
        const auto user =
            static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(dataset_.num_users)));
        const auto rec = router.recommend(t % 2 == 0 ? "vbpr" : "mf", user, 5);
        for (std::size_t i = 1; i < rec.items.size(); ++i) {
          const auto& prev = rec.items[i - 1];
          const auto& cur = rec.items[i];
          if (cur.score > prev.score ||
              (cur.score == prev.score && cur.item <= prev.item)) {
            bad.store(true);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(99);
    for (int s = 0; s < 5; ++s) {
      const auto item =
          static_cast<std::int64_t>(rng.index(static_cast<std::size_t>(dataset_.num_items)));
      std::vector<float> feats = router.feature_store().item_features(item);
      for (float& f : feats) f = -f - 1.0f;
      router.update_item_features(item, feats);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(router.stats().feature_swaps, 5u);
}

}  // namespace
}  // namespace taamr
