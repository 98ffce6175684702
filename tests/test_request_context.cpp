#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"

namespace taamr::obs {
namespace {

TEST(RequestContext, IdsEmbedPidAndIncrease) {
  const std::uint64_t a = next_request_id();
  const std::uint64_t b = next_request_id();
  EXPECT_EQ(a >> 32, static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ(b >> 32, static_cast<std::uint64_t>(::getpid()));
  EXPECT_EQ((a & 0xffffffffu) + 1, b & 0xffffffffu);
}

TEST(RequestContext, IdsUniqueAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      for (int i = 0; i < kPerThread; ++i) {
        per_thread[static_cast<std::size_t>(t)].push_back(next_request_id());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::uint64_t> all;
  for (const auto& ids : per_thread) all.insert(ids.begin(), ids.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(RequestContext, MarksCloseStagesInOrder) {
  RequestContext ctx;
  ctx.mark("parse");
  ctx.mark("score");
  ctx.add_stage("serialize", 123);
  ASSERT_EQ(ctx.stages().size(), 3u);
  EXPECT_STREQ(ctx.stages()[0].first, "parse");
  EXPECT_STREQ(ctx.stages()[1].first, "score");
  EXPECT_STREQ(ctx.stages()[2].first, "serialize");
  EXPECT_EQ(ctx.stages()[2].second, 123u);
  EXPECT_GE(ctx.total_us(), ctx.stages()[0].second + ctx.stages()[1].second);
}

TEST(RequestContext, DebugJsonCarriesIdAndStages) {
  RequestContext ctx;
  ctx.mark("parse");
  ctx.add_stage("score", 42);
  const json::Value doc = json::parse(ctx.debug_json());
  ASSERT_TRUE(doc.is_object());
  // The id is rendered as a string: pid<<32 overflows JSON's 53-bit doubles.
  EXPECT_EQ(doc.find("request_id")->str, std::to_string(ctx.id()));
  EXPECT_GE(doc.find("total_us")->num, 0.0);
  const json::Value* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_NE(stages->find("score"), nullptr);
  EXPECT_DOUBLE_EQ(stages->find("score")->num, 42.0);
}

TEST(RequestContext, PublishObservesStageHistograms) {
  auto& reg = MetricsRegistry::global();
  auto& h = reg.histogram("serve_stage_seconds", {{"stage", "test_stage"}});
  const std::uint64_t before = h.count();
  RequestContext ctx;
  ctx.add_stage("test_stage", 2'000'000);  // 2 s
  ctx.publish();
  EXPECT_EQ(h.count(), before + 1);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(RequestContext, ExpandPidPathReplacesEveryToken) {
  EXPECT_EQ(expand_pid_path("plain.json", 42), "plain.json");
  EXPECT_EQ(expand_pid_path("out_%p.json", 42), "out_42.json");
  EXPECT_EQ(expand_pid_path("%p/%p", 7), "7/7");
  EXPECT_EQ(expand_pid_path("%q%", 7), "%q%");  // only %p is special
  const std::string self = expand_pid_path("t_%p");
  EXPECT_EQ(self, "t_" + std::to_string(::getpid()));
}

TEST(RequestContext, PidSuffixedWritersDoNotInterleave) {
  // The fork-safety contract behind "%p": two producers handed the same
  // path template land in distinct files, so concurrent writes never
  // interleave. Simulated with two threads expanding distinct pids.
  const std::string tmpl = std::string(::testing::TempDir()) + "pidtest_%p.log";
  const std::string path_a = expand_pid_path(tmpl, 1111);
  const std::string path_b = expand_pid_path(tmpl, 2222);
  ASSERT_NE(path_a, path_b);
  auto writer = [](const std::string& path, const std::string& tag) {
    std::ofstream os(path, std::ios::trunc);
    for (int i = 0; i < 2000; ++i) os << tag << ":" << i << "\n" << std::flush;
  };
  std::thread ta(writer, path_a, std::string("A"));
  std::thread tb(writer, path_b, std::string("B"));
  ta.join();
  tb.join();
  for (const auto& [path, tag] : {std::pair{path_a, 'A'}, {path_b, 'B'}}) {
    std::ifstream in(path);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      ASSERT_EQ(line, std::string(1, tag) + ":" + std::to_string(n)) << path;
      ++n;
    }
    EXPECT_EQ(n, 2000) << path;
    std::remove(path.c_str());
  }
}

TEST(RequestContext, PrometheusExpositionShape) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test_prom_counter", {{"k", "v"}}).add(3.0);
  reg.gauge("test_prom_gauge").set(1.5);
  reg.histogram("test_prom_hist", {}, {1.0, 10.0}).observe(0.5);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("test_prom_counter{k=\"v\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 1.5"), std::string::npos);
  // Cumulative buckets: le="10" includes the le="1" observation.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum 0.5"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
  // The terminator doubles as the serving protocol's framing marker.
  const std::string tail = "# EOF\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

}  // namespace
}  // namespace taamr::obs
