// Unit tests of the benchmark's own machinery: order statistics, the
// open-loop generator, the capacity search, span self time, and agreement
// between the metrics taamr_bench reports and those BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.hpp"
#include "obs/json.hpp"
#include "result.hpp"
#include "serve/event_loop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace taamr::bench {
namespace {

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(BenchStats, NearestRankPercentile) {
  const std::vector<double> v = iota_sample(100);  // 1..100
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(BenchStats, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  // 100 samples support p90 (10 beyond) but not p99 (1 beyond).
  SupportedTail t = highest_supported_percentile(iota_sample(100));
  EXPECT_EQ(t.q, 0.9);
  EXPECT_EQ(t.value, 90.0);
  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  t = highest_supported_percentile(iota_sample(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990.0);
  // Too few samples for even the median to have 10 beyond it.
  EXPECT_EQ(highest_supported_percentile(iota_sample(15)).q, 0.0);
}

Traffic test_traffic() {
  Traffic t;
  t.rate = 2000.0;
  t.seconds = 0.5;
  t.num_users = 5000;
  t.num_items = 300;
  t.update_rate = 40.0;
  return t;
}

TEST(BenchLoadgen, ScheduleIsReproducibleFromTheSeed) {
  const std::vector<Planned> a = make_schedule(test_traffic(), 7);
  const std::vector<Planned> b = make_schedule(test_traffic(), 7);
  const std::vector<Planned> c = make_schedule(test_traffic(), 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].line(), b[i].line());
    EXPECT_EQ(a[i].connection, b[i].connection);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].line() != c[i].line();
  EXPECT_TRUE(differs);

  std::size_t updates = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) EXPECT_LE(a[i - 1].due_s, a[i].due_s);
    EXPECT_LT(a[i].due_s, 0.5);
    if (a[i].op == Op::kUpdate) {
      ++updates;
      EXPECT_EQ(a[i].connection, 0);  // acks come back in order
      EXPECT_LT(a[i].item, 300);
    } else {
      EXPECT_LT(a[i].user, 5000);
    }
  }
  // Poisson counts around rate x seconds: 1000 recommends, 20 updates.
  EXPECT_NEAR(static_cast<double>(a.size() - updates), 1000.0, 150.0);
  EXPECT_GT(updates, 5u);
}

// A server whose single worker stalls for 50 ms on one request: every
// request due while it is stalled must be charged the wait, measured from
// its due time, even though the generator sent it on schedule.
TEST(BenchLoadgen, ServerStallShowsInEveryLaterRequest) {
  constexpr std::int64_t kStallUser = 424242;
  serve::EventLoopConfig config;
  config.workers_per_shard = 1;
  serve::EventLoop loop(
      config, 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) {
        if (line.find("\"user\":" + std::to_string(kStallUser)) != std::string::npos) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return std::string("{\"ok\":true}");
      });
  loop.start();

  std::vector<Planned> plan;
  for (int i = 0; i < 400; ++i) {  // 2000 requests/s for 0.2 s over 4 connections
    Planned p;
    p.due_s = i * 0.0005;
    p.user = i == 100 ? kStallUser : i;
    p.connection = i % 4;
    plan.push_back(p);
  }
  const LegRecord leg = run_leg(loop.port(), plan);
  loop.request_shutdown();
  ASSERT_EQ(loop.join(), 0);

  const double stall_end = leg.outcomes[100].received_s;
  EXPECT_GE(stall_end - plan[100].due_s, 0.050);
  for (std::size_t i = 101; i < plan.size() && plan[i].due_s < stall_end; ++i) {
    const double latency = leg.outcomes[i].received_s - plan[i].due_s;
    EXPECT_GE(latency, stall_end - plan[i].due_s - 0.002) << "request " << i;
    EXPECT_GE(latency, 0.0);
  }
  // The generator itself kept to the schedule.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_LT(leg.outcomes[i].sent_s - plan[i].due_s, 0.02) << "request " << i;
  }
}

TEST(BenchLoadgen, BisectionFindsSyntheticCapacity) {
  const auto capacity = [](double rate) { return rate <= 1000.0; };
  const CapacitySearch s = bisect_capacity(250.0, 2000.0, 6, capacity);
  EXPECT_TRUE(s.any_pass);
  EXPECT_FALSE(s.all_pass);
  EXPECT_LE(s.rate, 1000.0);
  EXPECT_GT(s.rate, 1000.0 - 1750.0 / 64.0);
  // Midpoints 1125 and 1015.6 fail, and each failure is retried once.
  EXPECT_EQ(s.probes.size(), 6u + 2u);

  // Everything fails: no pass, report the floor. Everything passes: the
  // bracket's top saturated.
  const CapacitySearch none = bisect_capacity(250.0, 2000.0, 3, [](double) { return false; });
  EXPECT_FALSE(none.any_pass);
  EXPECT_EQ(none.rate, 250.0);
  const CapacitySearch all = bisect_capacity(250.0, 2000.0, 3, [](double) { return true; });
  EXPECT_TRUE(all.all_pass);
}

TEST(BenchLoadgen, BisectionRetriesAHiccup) {
  // One spurious failure below capacity: the retry passes and the search
  // lands where it would have without the hiccup.
  bool hiccuped = false;
  const CapacitySearch s = bisect_capacity(250.0, 2000.0, 6, [&](double rate) {
    if (!hiccuped && rate < 1000.0) {
      hiccuped = true;
      return false;
    }
    return rate <= 1000.0;
  });
  const CapacitySearch clean =
      bisect_capacity(250.0, 2000.0, 6, [](double rate) { return rate <= 1000.0; });
  EXPECT_TRUE(hiccuped);
  EXPECT_EQ(s.rate, clean.rate);
  bool retried_pass = false;
  for (const ProbeOutcome& p : s.probes) retried_pass |= p.retry && p.pass;
  EXPECT_TRUE(retried_pass);
}

Span make_span(const char* name, double start_us, double end_us, std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  return s;
}

TEST(BenchSpans, SelfTimeSubtractsWhatChildrenCover) {
  std::vector<Span> spans = {
      make_span("root", 0, 100, -1),  // 0
      make_span("a", 10, 40, 0),      // 1
      make_span("b", 50, 70, 0),      // 2
      make_span("a.x", 15, 25, 1),    // 3
      make_span("b", 80, 90, 0),      // 4
  };
  auto totals = aggregate_spans(spans);
  EXPECT_NEAR(totals.at("root").self_s, 40e-6, 1e-12);
  EXPECT_NEAR(totals.at("a").self_s, 20e-6, 1e-12);
  EXPECT_NEAR(totals.at("a.x").self_s, 10e-6, 1e-12);
  EXPECT_NEAR(totals.at("b").wall_s, 30e-6, 1e-12);
  EXPECT_EQ(totals.at("b").calls, 2u);

  // A child on another thread overlapping "a" and "b": the time the
  // children cover, [10, 70] and [80, 90], counts once.
  spans.push_back(make_span("c", 20, 60, 0));
  totals = aggregate_spans(spans);
  EXPECT_NEAR(totals.at("root").self_s, 30e-6, 1e-12);
}

TEST(BenchSpans, RecorderLinksParentsAndWritesChromeTrace) {
  SpanRecorder recorder;
  std::int64_t root_index = -1;
  {
    ScopedSpan root(&recorder, "root");
    root_index = root.index();
    { ScopedSpan child(&recorder, "child", 7, 3); }
    std::thread([&] { ScopedSpan remote(&recorder, "remote", 0, 1, root_index); }).join();
  }
  { ScopedSpan off(nullptr, "not recorded"); }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, root_index);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_EQ(spans[1].calls, 3u);
  EXPECT_EQ(spans[2].parent, root_index);
  EXPECT_NE(spans[2].tid, spans[0].tid);

  const obs::json::Value doc = obs::json::parse(recorder.chrome_json());
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[1].find("ph")->str, "X");
  EXPECT_EQ(events->array[1].find("args")->find("parent")->num, 0.0);
}

std::vector<MetricDecl> declared_in_file(const char* key) {
  std::ifstream in(BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(text.str());
  std::vector<MetricDecl> out;
  for (const obs::json::Value& m : doc.find(key)->array) {
    out.push_back({m.find("name")->str, m.find("unit")->str, m.find("better")->str});
  }
  return out;
}

void expect_same(const std::vector<MetricDecl>& file, const std::vector<MetricDecl>& reported) {
  ASSERT_EQ(file.size(), reported.size());
  for (std::size_t i = 0; i < file.size(); ++i) {
    EXPECT_EQ(file[i].name, reported[i].name);
    EXPECT_EQ(file[i].unit, reported[i].unit) << file[i].name;
    EXPECT_EQ(file[i].better, reported[i].better) << file[i].name;
  }
}

TEST(BenchMetrics, ReportsWhatBenchmarkJsonDeclares) {
  expect_same(declared_in_file("end_to_end"), end_to_end_metrics());
  expect_same(declared_in_file("per_layer"), per_layer_metrics());
}

TEST(BenchMetrics, ResultRefusesIncompleteOrUndeclaredMetrics) {
  Result r;
  EXPECT_THROW(r.set("no.such_metric", 1.0), std::logic_error);
  for (const MetricDecl& d : end_to_end_metrics()) {
    if (d.name != "peak_rss_mb") r.set(d.name, 1.0);
  }
  EXPECT_THROW(r.json(end_to_end_metrics()), std::logic_error);
  r.set("peak_rss_mb", 2.5);
  const obs::json::Value doc = obs::json::parse(r.json(end_to_end_metrics()));
  EXPECT_TRUE(doc.find("correct")->boolean);
  EXPECT_EQ(doc.find("metrics")->find("peak_rss_mb")->find("value")->num, 2.5);
  EXPECT_EQ(doc.find("metrics")->find("peak_rss_mb")->find("unit")->str, "MiB");
  r.check(false, "a failed check");
  EXPECT_FALSE(obs::json::parse(r.json(end_to_end_metrics())).find("correct")->boolean);
}

}  // namespace
}  // namespace taamr::bench
