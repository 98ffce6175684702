// ShardRouter behaviour: the stable user -> shard mapping, golden agreement
// through the routed path, per-shard cache isolation under sibling hot
// swaps, cross-shard swap consistency on the shared epoch axis, checkpoint
// loads interleaved with feature pushes, aggregated stats, the wire
// dispatcher (respond), and a concurrent hammer (suite names start with
// "ShardRouter" so the CI thread-sanitizer job picks them up).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
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

// All shards read one feature store and one registry: a swap (written by
// the router) must be visible, golden-exact and epoch-stamped on every
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

// A checkpoint loaded after a feature push serves the store's rows, not the
// ones saved with it, and is stamped with the store's epoch: otherwise the
// next push rebuilds from the store (bringing the earlier pushed row back)
// while revalidation checks only the newly pushed item, and a cached list
// survives that a golden recompute contradicts.
TEST_F(ShardRouterTest, CheckpointLoadAfterPushServesGoldenLists) {
  auto router = make_router(1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_router_swap_model.bin").string();
  dynamic_cast<const recsys::Vbpr&>(*registry_.get("vbpr").model).save_file(path);
  const auto golden = [&](std::int64_t user) {
    return golden_topn(dataset_, *registry_.get("vbpr").model, user, 10);
  };
  const auto listed = [](const std::vector<recsys::ScoredItem>& l, std::int32_t i) {
    return std::any_of(l.begin(), l.end(),
                       [i](const recsys::ScoredItem& s) { return s.item == i; });
  };

  const std::int64_t user = 0;
  const auto before = router.recommend("vbpr", user, 10);
  ASSERT_FALSE(before.items.empty());
  // Push the user's top item A far away: it leaves the list.
  const std::int32_t a = before.items[0].item;
  std::vector<float> far = router.feature_store().item_features(a);
  for (float& f : far) f = -f - 50.0f;
  router.update_item_features(a, far);
  ASSERT_FALSE(listed(golden(user), a));

  router.swap_model("vbpr", "vbpr", path);
  std::remove(path.c_str());
  EXPECT_EQ(registry_.get("vbpr").feature_epoch, router.feature_store().epoch());
  const auto loaded = router.recommend("vbpr", user, 10);
  EXPECT_FALSE(loaded.cached);
  EXPECT_EQ(loaded.items, golden(user));
  EXPECT_FALSE(listed(loaded.items, a));

  // Push another item B, outside the list, with its row unchanged.
  std::int32_t b = 0;
  while (b == a || listed(loaded.items, b)) ++b;
  router.update_item_features(b, router.feature_store().item_features(b));
  const auto after = router.recommend("vbpr", user, 10);
  EXPECT_EQ(after.items, golden(user));
  EXPECT_FALSE(listed(after.items, a));
}

// respond answers each op the router owns as the protocol formats it, and
// refuses the ones that act on the server process.
TEST_F(ShardRouterTest, RespondAnswersTheRouterOps) {
  auto router = make_router(2);
  const auto respond = [&router](const std::string& line) {
    return router.respond(serve::parse_request(line));
  };
  const std::string rec = respond(R"({"op":"recommend","model":"vbpr","user":4,"n":7})");
  serve::Recommendation golden;
  golden.user = 4;
  golden.items = golden_topn(dataset_, *registry_.get("vbpr").model, 4, 7);
  golden.model_version = registry_.get("vbpr").version;
  EXPECT_EQ(rec, serve::format_recommendation(golden));

  std::string push = R"({"op":"update_features","item":3,"features":[)";
  for (std::int64_t d = 0; d < features_.dim(1); ++d) push += d > 0 ? ",0.5" : "0.5";
  EXPECT_EQ(respond(push + "]}"), R"({"ok":true,"epoch":1})");
  EXPECT_EQ(respond(R"({"op":"models"})"), R"({"ok":true,"models":["mf","vbpr"]})");
  const auto stats = obs::json::parse(respond(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("requests")->num, 1.0);
  EXPECT_EQ(stats.find("feature_swaps")->num, 1.0);
  const std::string metrics = respond(R"({"op":"metrics"})");
  EXPECT_EQ(metrics.substr(metrics.size() - 5), "# EOF");

  for (const char* line : {R"({"op":"update_image","item":1,"seed":2})",
                           R"({"op":"profile"})", R"({"op":"shutdown"})"}) {
    EXPECT_THROW(respond(line), std::invalid_argument) << line;
  }
}

// The swap_model ack echoes the requested name: a quote or a newline in it
// must not split the one response line or break its JSON.
TEST_F(ShardRouterTest, SwapModelAckIsOneLineForAnyName) {
  auto router = make_router(1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_router_swap_ack.bin").string();
  dynamic_cast<const recsys::Vbpr&>(*registry_.get("vbpr").model).save_file(path);
  const std::string name = "a\"b\nc";
  registry_.register_model(name, registry_.get("vbpr").model, /*visual=*/true);
  const serve::Request req = serve::parse_request(
      R"({"op":"swap_model","model":"a\"b\nc","kind":"vbpr","path":")" +
      obs::json::escape(path) + "\"}");
  ASSERT_EQ(req.model, name);
  const std::string ack = router.respond(req);
  std::remove(path.c_str());
  EXPECT_EQ(ack.find('\n'), std::string::npos) << ack;
  const auto doc = obs::json::parse(ack);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("model")->str, name);

  const auto models = obs::json::parse(router.respond(serve::parse_request(R"({"op":"models"})")));
  const auto& listed = models.find("models")->array;
  EXPECT_TRUE(std::any_of(listed.begin(), listed.end(),
                          [&name](const obs::json::Value& v) { return v.str == name; }));
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
