// Units of the serving subsystem: ModelRegistry (versioned hot-swap),
// FeatureStore (epoch changelog), TopNCache (LRU), the JSONL
// protocol. Suite names start with "Serve" so the CI thread-sanitizer job
// picks them up.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/vbpr.hpp"
#include "serve/feature_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/recommend_service.hpp"
#include "serve/shard_router.hpp"
#include "serve/topn_cache.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

data::ImplicitDataset make_dataset() {
  return data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
}

Tensor make_features(const data::ImplicitDataset& ds, Rng& rng) {
  Tensor f({ds.num_items, 8});
  testing::fill_uniform(f, rng, -1.0f, 1.0f);
  return f;
}

std::shared_ptr<recsys::Vbpr> make_vbpr(const data::ImplicitDataset& ds, Rng& rng) {
  return std::make_shared<recsys::Vbpr>(ds, make_features(ds, rng),
                                        recsys::VbprConfig{}, rng);
}

// ---- ModelRegistry ----

TEST(ServeRegistry, RegisterGetAndVersioning) {
  const auto ds = make_dataset();
  Rng rng(31);
  serve::ModelRegistry registry(ds);
  EXPECT_FALSE(registry.has("vbpr"));

  auto model = make_vbpr(ds, rng);
  registry.register_model("vbpr", model, /*visual=*/true);
  EXPECT_TRUE(registry.has("vbpr"));

  const auto snap = registry.get("vbpr");
  EXPECT_EQ(snap.model.get(), model.get());
  EXPECT_EQ(snap.version, 1u);
  EXPECT_EQ(snap.feature_epoch, 0u);
  EXPECT_TRUE(snap.visual);

  // Re-registering bumps the version; swap_features() does not.
  registry.register_model("vbpr", make_vbpr(ds, rng), /*visual=*/true);
  EXPECT_EQ(registry.get("vbpr").version, 2u);
  registry.swap_features("vbpr", make_vbpr(ds, rng), /*feature_epoch=*/7);
  const auto after = registry.get("vbpr");
  EXPECT_EQ(after.version, 2u);
  EXPECT_EQ(after.feature_epoch, 7u);
}

TEST(ServeRegistry, UnknownModelNamesRegisteredOnes) {
  const auto ds = make_dataset();
  Rng rng(32);
  serve::ModelRegistry registry(ds);
  registry.register_model("vbpr", make_vbpr(ds, rng), true);
  try {
    registry.get("missing");
    FAIL() << "unknown model accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing"), std::string::npos);
    EXPECT_NE(what.find("vbpr"), std::string::npos);
  }
  EXPECT_THROW(registry.swap_features("missing", make_vbpr(ds, rng), 1),
               std::runtime_error);
}

TEST(ServeRegistry, RejectsMismatchedModel) {
  const auto ds = make_dataset();
  auto other_spec = data::amazon_men_spec(data::kTestScale);
  other_spec.num_users += 3;
  const auto other = data::generate_synthetic_dataset(other_spec);
  Rng rng(33);
  serve::ModelRegistry registry(ds);
  EXPECT_THROW(registry.register_model("vbpr", make_vbpr(other, rng), true),
               std::invalid_argument);
  EXPECT_THROW(registry.register_model("null", nullptr, false), std::invalid_argument);
}

TEST(ServeRegistry, LoadsCheckpointsFromDisk) {
  const auto ds = make_dataset();
  Rng rng(34);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string vbpr_path = (tmp / "taamr_serve_vbpr.bin").string();
  const std::string bpr_path = (tmp / "taamr_serve_bpr.bin").string();

  const Tensor features = make_features(ds, rng);
  recsys::Vbpr vbpr(ds, features, recsys::VbprConfig{}, rng);
  vbpr.save_file(vbpr_path);
  recsys::BprMf bpr(ds, {}, rng);
  bpr.save_file(bpr_path);

  // Checkpoints load through the router, the registry's one writer, and
  // replace only names the registry already holds.
  serve::ModelRegistry registry(ds);
  registry.register_model("vbpr", make_vbpr(ds, rng), true);
  registry.register_model(
      "bpr_mf", std::make_shared<recsys::BprMf>(ds, recsys::BprMfConfig{}, rng), false);
  serve::ShardRouter router(ds, registry, features);
  router.swap_model("vbpr", "vbpr", vbpr_path);
  router.swap_model("bpr_mf", "bpr_mf", bpr_path);
  EXPECT_EQ(registry.names().size(), 2u);
  EXPECT_EQ(registry.get("vbpr").version, 2u);
  EXPECT_NEAR(testing::score_row(*registry.get("vbpr").model, 0)[3],
              testing::score_row(vbpr, 0)[3], 1e-6f);
  EXPECT_NEAR(testing::score_row(*registry.get("bpr_mf").model, 1)[2],
              testing::score_row(bpr, 1)[2], 1e-6f);
  EXPECT_FALSE(registry.get("bpr_mf").visual);

  EXPECT_THROW(router.swap_model("vbpr", "vbpr", "/nonexistent/ckpt.bin"),
               std::runtime_error);
  EXPECT_THROW(router.swap_model("vbpr", "knn", vbpr_path), std::invalid_argument);
  EXPECT_THROW(router.swap_model("x", "vbpr", vbpr_path), std::runtime_error);
  EXPECT_EQ(registry.names().size(), 2u);
  std::remove(vbpr_path.c_str());
  std::remove(bpr_path.c_str());
}

// Sample lines in the global registry's exposition (every line but the
// "# TYPE" and "# EOF" comments); a new series adds at least one.
std::size_t metric_series() {
  std::istringstream text(obs::MetricsRegistry::global().to_prometheus());
  std::size_t n = 0;
  for (std::string line; std::getline(text, line);) {
    if (!line.empty() && line[0] != '#') ++n;
  }
  return n;
}

TEST(ServeRegistry, ModelNamesAddNoMetricSeries) {
  // Model names arrive on the wire ({"op":"swap_model"}), so no metric may
  // take one as a label value: each new name would add series unboundedly.
  const auto ds = make_dataset();
  Rng rng(35);
  serve::ModelRegistry registry(ds);
  registry.register_model("vbpr", make_vbpr(ds, rng), true);
  const serve::FeatureStore store(make_features(ds, rng));
  serve::RecommendService service(ds, registry, store);
  service.recommend("vbpr", 0, 5);  // registers whatever a request touches
  const std::size_t before = metric_series();

  const std::string fresh = "client-chosen-name";
  registry.register_model(fresh, make_vbpr(ds, rng), true);
  registry.register_model(fresh, make_vbpr(ds, rng), true);  // a checkpoint swap
  for (std::int64_t u = 0; u < 3; ++u) service.recommend(fresh, u, 5);
  EXPECT_EQ(metric_series(), before) << obs::MetricsRegistry::global().to_prometheus();
}

// ---- FeatureStore ----

TEST(ServeFeatureStore, EpochAdvancesAndRowsUpdate) {
  Tensor f({4, 3}, 1.0f);
  serve::FeatureStore store(std::move(f));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.num_items(), 4);
  EXPECT_EQ(store.feature_dim(), 3);

  const std::vector<float> row = {7.0f, 8.0f, 9.0f};
  EXPECT_EQ(store.update(2, {row.data(), row.size()}), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.item_features(2), row);
  EXPECT_EQ(store.item_features(1), (std::vector<float>{1.0f, 1.0f, 1.0f}));

  const Tensor snap = store.snapshot();
  EXPECT_FLOAT_EQ(snap.data()[2 * 3 + 0], 7.0f);
  EXPECT_FLOAT_EQ(snap.data()[0], 1.0f);
}

TEST(ServeFeatureStore, ChangedSinceTracksExactItems) {
  serve::FeatureStore store(Tensor({8, 2}, 0.0f));
  const std::vector<float> row = {1.0f, 2.0f};
  store.update(5, {row.data(), row.size()});
  store.update(3, {row.data(), row.size()});
  store.update(5, {row.data(), row.size()});  // repeat: deduplicated

  const auto all = store.changed_since(0);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, (std::vector<std::int32_t>{3, 5}));

  const auto tail = store.changed_since(2);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, (std::vector<std::int32_t>{5}));

  const auto current = store.changed_since(store.epoch());
  ASSERT_TRUE(current.has_value());
  EXPECT_TRUE(current->empty());
}

TEST(ServeFeatureStore, WindowExceededIsUnknown) {
  serve::FeatureStore store(Tensor({8, 2}, 0.0f), /*log_window=*/2);
  const std::vector<float> row = {1.0f, 2.0f};
  for (std::int64_t i = 0; i < 4; ++i) store.update(i, {row.data(), row.size()});
  // Epochs 1-2 have been trimmed from the log: since=0 and since=1 cannot be
  // answered; since=2 still can (log holds epochs 3 and 4).
  EXPECT_FALSE(store.changed_since(0).has_value());
  EXPECT_FALSE(store.changed_since(1).has_value());
  const auto ok = store.changed_since(2);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, (std::vector<std::int32_t>{2, 3}));
}

TEST(ServeFeatureStore, Validates) {
  EXPECT_THROW(serve::FeatureStore(Tensor({0, 3})), std::invalid_argument);
  EXPECT_THROW(serve::FeatureStore(Tensor({4})), std::invalid_argument);
  serve::FeatureStore store(Tensor({4, 3}, 0.0f));
  const std::vector<float> bad = {1.0f};
  EXPECT_THROW(store.update(0, {bad.data(), bad.size()}), std::invalid_argument);
  const std::vector<float> row = {1.0f, 2.0f, 3.0f};
  EXPECT_THROW(store.update(9, {row.data(), row.size()}), std::invalid_argument);
  EXPECT_THROW(store.item_features(-1), std::invalid_argument);
}

// ---- TopNCache ----

TEST(ServeCache, PutGetAndKeyIdentity) {
  serve::TopNCache cache(16);
  const serve::CacheKey key{"vbpr", 3, 10};
  EXPECT_FALSE(cache.get(key).has_value());

  serve::CacheEntry entry;
  entry.items = {{7, 1.5f}, {2, 0.5f}};
  entry.model_version = 1;
  entry.feature_epoch = 4;
  cache.put(key, entry);

  const auto got = cache.get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->items, entry.items);
  EXPECT_EQ(got->model_version, 1u);
  EXPECT_EQ(got->feature_epoch, 4u);

  // (model, user, n) are all part of the identity.
  EXPECT_FALSE(cache.get({"vbpr", 3, 5}).has_value());
  EXPECT_FALSE(cache.get({"amr", 3, 10}).has_value());
  EXPECT_FALSE(cache.get({"vbpr", 4, 10}).has_value());
}

TEST(ServeCache, LruEvictsOldestPerShard) {
  serve::TopNCache cache(4);
  for (std::int64_t u = 0; u < 4; ++u) {
    cache.put({"m", u, 10}, serve::CacheEntry{{{0, 1.0f}}, 1, 0});
  }
  // Touch user 0 so user 1 becomes the LRU victim.
  EXPECT_TRUE(cache.get({"m", 0, 10}).has_value());
  cache.put({"m", 4, 10}, serve::CacheEntry{{{0, 1.0f}}, 1, 0});
  EXPECT_TRUE(cache.get({"m", 0, 10}).has_value());
  EXPECT_FALSE(cache.get({"m", 1, 10}).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 4u);
}

TEST(ServeCache, TouchEpochRestamps) {
  serve::TopNCache cache(8);
  cache.put({"m", 0, 10}, serve::CacheEntry{{{0, 1.0f}}, 1, 0});
  cache.touch_epoch({"m", 0, 10}, 1, 9);
  const auto got = cache.get({"m", 0, 10});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->feature_epoch, 9u);
  cache.touch_epoch({"m", 99, 10}, 1, 9);  // absent: no-op

  cache.clear();
  EXPECT_FALSE(cache.get({"m", 0, 10}).has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ServeCache, Validates) {
  EXPECT_THROW(serve::TopNCache(0), std::invalid_argument);
  EXPECT_THROW(serve::TopNCache(-3), std::invalid_argument);
  EXPECT_EQ(serve::TopNCache(2).stats().capacity, 2u);
}

// ---- Protocol ----

TEST(ServeProtocol, ParsesRecommend) {
  const auto req =
      serve::parse_request(R"({"op":"recommend","model":"vbpr","user":3,"n":7})");
  EXPECT_EQ(req.op, serve::Op::kRecommend);
  EXPECT_EQ(req.model, "vbpr");
  EXPECT_EQ(req.user, 3);
  EXPECT_EQ(req.n, 7);
  // n defaults to 10.
  EXPECT_EQ(serve::parse_request(R"({"op":"recommend","model":"m","user":0})").n, 10);
}

TEST(ServeProtocol, ParsesOtherOps) {
  const auto upd = serve::parse_request(
      R"({"op":"update_features","item":5,"features":[0.5,-1.25]})");
  EXPECT_EQ(upd.op, serve::Op::kUpdateFeatures);
  EXPECT_EQ(upd.item, 5);
  EXPECT_EQ(upd.features, (std::vector<float>{0.5f, -1.25f}));

  const auto img = serve::parse_request(R"({"op":"update_image","item":2,"seed":99})");
  EXPECT_EQ(img.op, serve::Op::kUpdateImage);
  EXPECT_EQ(img.seed, 99u);

  const auto swap = serve::parse_request(
      R"({"op":"swap_model","model":"m","kind":"bpr_mf","path":"/tmp/x.bin"})");
  EXPECT_EQ(swap.op, serve::Op::kSwapModel);
  EXPECT_EQ(swap.kind, "bpr_mf");

  EXPECT_EQ(serve::parse_request(R"({"op":"models"})").op, serve::Op::kModels);
  EXPECT_EQ(serve::parse_request(R"({"op":"stats"})").op, serve::Op::kStats);
  EXPECT_EQ(serve::parse_request(R"({"op":"metrics"})").op, serve::Op::kMetrics);
  EXPECT_EQ(serve::parse_request(R"({"op":"shutdown"})").op, serve::Op::kShutdown);
}

TEST(ServeProtocol, ParsesDebugFlag) {
  EXPECT_FALSE(
      serve::parse_request(R"({"op":"recommend","model":"m","user":0})").debug);
  EXPECT_TRUE(serve::parse_request(
                  R"({"op":"recommend","model":"m","user":0,"debug":true})")
                  .debug);
  EXPECT_FALSE(serve::parse_request(
                   R"({"op":"recommend","model":"m","user":0,"debug":false})")
                   .debug);
  // Debug must be a boolean, not a truthy lookalike.
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"recommend","model":"m","user":0,"debug":1})"),
               std::runtime_error);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("[1,2]"), std::runtime_error);
  EXPECT_THROW(serve::parse_request(R"({"op":"warp"})"), std::runtime_error);
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","model":"m"})"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","model":"m","user":1.5})"),
               std::runtime_error);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"swap_model","model":"m","kind":"x","path":"p"})"),
      std::runtime_error);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"update_features","item":0,"features":["a"]})"),
      std::runtime_error);
  // Numbers no float or int64_t holds: casting them would be undefined, and
  // a non-finite feature would give the item a non-finite score.
  for (const char* line : {
           R"({"op":"update_features","item":0,"features":[0.5,1e39]})",
           R"({"op":"update_features","item":0,"features":[-1e39]})",
           R"({"op":"update_features","item":0,"features":[1e400]})",
           R"({"op":"update_features","item":0,"features":[-1e400]})",
           R"({"op":"recommend","model":"m","user":1e300})",
           R"({"op":"recommend","model":"m","user":0,"n":-1e19})",
           R"({"op":"update_image","item":9223372036854775808,"seed":1})",
       }) {
    EXPECT_THROW(serve::parse_request(line), std::runtime_error) << line;
  }
  // The extremes that do fit still parse.
  EXPECT_EQ(serve::parse_request(
                R"({"op":"update_features","item":0,"features":[3.40282347e38]})")
                .features,
            (std::vector<float>{FLT_MAX}));
  EXPECT_EQ(serve::parse_request(
                R"({"op":"update_image","item":-9223372036854775808,"seed":1})")
                .item,
            std::numeric_limits<std::int64_t>::min());
}

TEST(ServeProtocol, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // One line of 200,000 '[' once recursed until the shard worker's stack
  // overflowed. Nesting stops at 64 levels with the parser's usual error.
  const std::string deep(200000, '[');
  EXPECT_THROW(obs::json::parse(deep), std::runtime_error);
  EXPECT_THROW(serve::parse_request(deep), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
  EXPECT_THROW(serve::parse_request(objects), std::runtime_error);
  // 64 levels still parse; 65 do not.
  EXPECT_NO_THROW(obs::json::parse(std::string(64, '[') + std::string(64, ']')));
  EXPECT_THROW(obs::json::parse(std::string(65, '[') + std::string(65, ']')),
               std::runtime_error);
}

TEST(ServeProtocol, ResponsesAreValidJson) {
  serve::Recommendation rec;
  rec.user = 3;
  rec.items = {{7, 1.5f}, {2, -0.25f}};
  rec.cached = true;
  rec.model_version = 2;
  rec.feature_epoch = 5;
  const auto doc = obs::json::parse(serve::format_recommendation(rec));
  EXPECT_EQ(doc.find("ok")->boolean, true);
  EXPECT_EQ(doc.find("user")->num, 3.0);
  EXPECT_EQ(doc.find("cached")->boolean, true);
  ASSERT_EQ(doc.find("items")->array.size(), 2u);
  EXPECT_EQ(doc.find("items")->array[0].find("item")->num, 7.0);

  const auto err = obs::json::parse(serve::format_error("bad \"quoted\" thing"));
  EXPECT_EQ(err.find("ok")->boolean, false);
  EXPECT_EQ(err.find("error")->str, "bad \"quoted\" thing");

  serve::RouterStats stats;
  stats.requests = 10;
  stats.cache_hits = 6;
  stats.cache_misses = 4;
  const auto st = obs::json::parse(serve::format_stats(stats));
  EXPECT_EQ(st.find("requests")->num, 10.0);
  EXPECT_NEAR(st.find("hit_rate")->num, 0.6, 1e-9);

  const auto models = obs::json::parse(serve::format_models({"a", "b"}));
  ASSERT_EQ(models.find("models")->array.size(), 2u);
  EXPECT_EQ(models.find("models")->array[1].str, "b");

  EXPECT_EQ(serve::format_ok(), "{\"ok\":true}");
  EXPECT_EQ(obs::json::parse(serve::format_ok("\"epoch\":3")).find("epoch")->num, 3.0);
}

TEST(ServeProtocol, StatsCarryTelemetryFields) {
  serve::RouterStats stats;
  stats.slow_requests = 3;
  stats.deadline_breaches = 1;
  stats.suspect_updates = 2;
  stats.audit_records = 9;
  stats.rolling_p50_s = 0.001;
  stats.rolling_p90_s = 0.010;
  stats.rolling_p99_s = 0.250;
  const auto doc = obs::json::parse(serve::format_stats(stats));
  EXPECT_EQ(doc.find("slow_requests")->num, 3.0);
  EXPECT_EQ(doc.find("deadline_breaches")->num, 1.0);
  EXPECT_EQ(doc.find("suspect_updates")->num, 2.0);
  EXPECT_EQ(doc.find("audit_records")->num, 9.0);
  EXPECT_NEAR(doc.find("rolling_p50_ms")->num, 1.0, 1e-9);
  EXPECT_NEAR(doc.find("rolling_p90_ms")->num, 10.0, 1e-9);
  EXPECT_NEAR(doc.find("rolling_p99_ms")->num, 250.0, 1e-9);
  // Constant, but the benchmark's stats reader fails without the key.
  ASSERT_NE(doc.find("coalesced_batches"), nullptr);
  EXPECT_EQ(doc.find("coalesced_batches")->num, 0.0);
}

TEST(ServeProtocol, DebugEchoAttachesStageBreakdown) {
  serve::Recommendation rec;
  rec.user = 1;
  rec.items = {{4, 2.0f}};
  obs::RequestContext ctx;
  ctx.add_stage("parse", 10);
  ctx.add_stage("score", 200);

  // Without a context the response has no debug payload.
  EXPECT_EQ(obs::json::parse(serve::format_recommendation(rec)).find("debug"),
            nullptr);

  const auto doc = obs::json::parse(serve::format_recommendation(rec, &ctx));
  const obs::json::Value* dbg = doc.find("debug");
  ASSERT_NE(dbg, nullptr);
  EXPECT_EQ(dbg->find("request_id")->str, std::to_string(ctx.id()));
  const obs::json::Value* stages = dbg->find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->find("parse")->num, 10.0);
  EXPECT_DOUBLE_EQ(stages->find("score")->num, 200.0);
}

}  // namespace
}  // namespace taamr
