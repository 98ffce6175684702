#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace taamr::obs {
namespace {

// Tests share the process-global registry with the instrumented library
// code, so every metric name here is prefixed to avoid collisions.

TEST(Metrics, CounterConcurrentHammering) {
  auto& c = MetricsRegistry::global().counter("test_hammer_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeSetAndAdd) {
  auto& g = MetricsRegistry::global().gauge("test_gauge");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
}

TEST(Metrics, LabeledFamiliesAreDistinctInstruments) {
  auto& a = MetricsRegistry::global().counter("test_family", {{"k", "a"}});
  auto& b = MetricsRegistry::global().counter("test_family", {{"k", "b"}});
  EXPECT_NE(&a, &b);
  a.add(1.0);
  EXPECT_DOUBLE_EQ(b.value(), 0.0);
  // Same name + labels resolves to the same instrument; label order is
  // irrelevant.
  auto& a2 = MetricsRegistry::global().counter("test_family", {{"k", "a"}});
  EXPECT_EQ(&a, &a2);
  auto& two1 = MetricsRegistry::global().counter(
      "test_family2", {{"x", "1"}, {"y", "2"}});
  auto& two2 = MetricsRegistry::global().counter(
      "test_family2", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&two1, &two2);
}

TEST(Metrics, HistogramBucketsAndStats) {
  auto& h = MetricsRegistry::global().histogram("test_hist_buckets", {},
                                                {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (le is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 556.5 / 5.0);
}

TEST(Metrics, HistogramConcurrentHammering) {
  auto& h = MetricsRegistry::global().histogram("test_hist_hammer", {},
                                                exponential_bounds(1e-3, 10.0, 5));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t % 4) + 0.5);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(h.count(), total);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, total);
  // Values are 0.5, 1.5, 2.5, 3.5, a quarter of observations each.
  EXPECT_DOUBLE_EQ(h.sum(), 2.0 * static_cast<double>(total));
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
}

TEST(Metrics, SnapshotWhileHammeringIsConsistent) {
  auto& c = MetricsRegistry::global().counter("test_snapshot_counter");
  auto& h = MetricsRegistry::global().histogram("test_snapshot_hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      do {  // at least one write even if `stop` lands before first schedule
        c.add(1.0);
        h.observe(1e-4);
      } while (!stop.load());
    });
  }
  // Snapshots taken mid-hammer (as {"op":"metrics"} takes them on live
  // traffic) must always be whole: they end with the framing marker.
  const std::string eof = "# EOF\n";
  for (int i = 0; i < 20; ++i) {
    const std::string snap = MetricsRegistry::global().to_prometheus();
    ASSERT_GE(snap.size(), eof.size());
    EXPECT_EQ(snap.compare(snap.size() - eof.size(), eof.size(), eof), 0) << snap;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(c.value(), 0.0);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(h.count(), bucket_total);
}

TEST(Metrics, ExponentialBoundsShape) {
  const auto bounds = exponential_bounds(1e-3, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  EXPECT_NEAR(bounds[3], 1.0, 1e-12);
  EXPECT_THROW(exponential_bounds(0.0, 2.0, 3), std::invalid_argument);
  EXPECT_THROW(exponential_bounds(1.0, 1.0, 3), std::invalid_argument);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace taamr::obs
