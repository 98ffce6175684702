#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/trace_stats.hpp"

namespace taamr::obs {
namespace {

std::string wrap(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}

std::string span(const char* name, int ts, int dur, int tid = 1) {
  return std::string("{\"name\":\"") + name + "\",\"ph\":\"X\",\"ts\":" +
         std::to_string(ts) + ",\"dur\":" + std::to_string(dur) +
         ",\"tid\":" + std::to_string(tid) + "}";
}

TEST(TraceStats, ParsesCompleteEvents) {
  const TraceDocument doc =
      parse_trace_document(wrap(span("a", 0, 100) + "," + span("b", 10, 20)));
  EXPECT_EQ(doc.total_events(), 2u);
  ASSERT_EQ(doc.by_tid.count(1), 1u);
  EXPECT_EQ(doc.by_tid.at(1).size(), 2u);
}

TEST(TraceStats, RejectsEmptyFile) {
  try {
    parse_trace_document("   \n  ");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(TraceStats, RejectsTruncatedJson) {
  // A file cut off mid-array, the classic killed-writer artifact.
  const std::string truncated = "{\"traceEvents\":[" + span("a", 0, 1) + ",";
  EXPECT_THROW(parse_trace_document(truncated), std::runtime_error);
}

TEST(TraceStats, RejectsMissingTraceEvents) {
  EXPECT_THROW(parse_trace_document("{\"foo\":1}"), std::runtime_error);
  EXPECT_THROW(parse_trace_document("{\"traceEvents\":{}}"), std::runtime_error);
}

TEST(TraceStats, RejectsEventMissingKeys) {
  EXPECT_THROW(parse_trace_document(wrap("{\"name\":\"a\",\"ph\":\"X\"}")),
               std::runtime_error);
}

TEST(TraceStats, RejectsIllTypedFields) {
  // ts as a string used to be silently read as 0.
  EXPECT_THROW(
      parse_trace_document(wrap(
          "{\"name\":\"a\",\"ph\":\"X\",\"ts\":\"zero\",\"dur\":1,\"tid\":1}")),
      std::runtime_error);
  EXPECT_THROW(
      parse_trace_document(
          wrap("{\"name\":7,\"ph\":\"X\",\"ts\":0,\"dur\":1,\"tid\":1}")),
      std::runtime_error);
}

TEST(TraceStats, RejectsNegativeTimes) {
  EXPECT_THROW(parse_trace_document(wrap(
                   "{\"name\":\"a\",\"ph\":\"X\",\"ts\":-5,\"dur\":1,\"tid\":1}")),
               std::runtime_error);
}

TEST(TraceStats, SkipsNonCompleteEvents) {
  const TraceDocument doc = parse_trace_document(wrap(
      span("a", 0, 10) +
      ",{\"name\":\"m\",\"ph\":\"M\",\"ts\":0,\"dur\":0,\"tid\":1}"));
  EXPECT_EQ(doc.total_events(), 1u);
}

TEST(TraceStats, SelfTimeSubtractsNestedChildren) {
  // parent [0,100) contains child [10,40): parent self = 70.
  const TraceDocument doc = parse_trace_document(
      wrap(span("parent", 0, 100) + "," + span("child", 10, 30)));
  const auto ranked = trace_top_spans(doc, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, "parent");
  EXPECT_EQ(ranked[0].second.wall_us, 100u);
  EXPECT_EQ(ranked[0].second.self_us, 70u);
  EXPECT_EQ(ranked[1].second.self_us, 30u);
}

TEST(TraceStats, ThreadsAccumulateIndependently) {
  // Same span name on two threads; overlap across threads is not nesting.
  const TraceDocument doc = parse_trace_document(
      wrap(span("work", 0, 50, 1) + "," + span("work", 0, 50, 2)));
  const auto ranked = trace_top_spans(doc, 10);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].second.count, 2u);
  EXPECT_EQ(ranked[0].second.wall_us, 100u);
  EXPECT_EQ(ranked[0].second.self_us, 100u);
}

TEST(TraceStats, TopKTruncates) {
  const TraceDocument doc = parse_trace_document(
      wrap(span("a", 0, 30) + "," + span("b", 40, 20) + "," + span("c", 70, 10)));
  EXPECT_EQ(trace_top_spans(doc, 2).size(), 2u);
  EXPECT_EQ(trace_top_spans(doc, 99).size(), 3u);
}

// ---- flow events ----

TEST(TraceStats, ParsesFlowEvents) {
  // Flow arrows ("ph":"s"/"f") are skipped like any other unused phase,
  // even without an id: the span rollup is the same as without them.
  const std::string spans = span("parent", 0, 100) + "," + span("child", 10, 30, 2);
  const std::string flows =
      "{\"name\":\"c\",\"ph\":\"s\",\"ts\":2,\"tid\":1,\"id\":7},"
      "{\"name\":\"c\",\"ph\":\"f\",\"ts\":20,\"tid\":2}";
  const TraceDocument plain = parse_trace_document(wrap(spans));
  const TraceDocument with_flows = parse_trace_document(wrap(spans + "," + flows));
  EXPECT_EQ(with_flows.total_events(), plain.total_events());
  const auto expected = trace_top_spans(plain, 10);
  const auto actual = trace_top_spans(with_flows, 10);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first);
    EXPECT_EQ(actual[i].second.wall_us, expected[i].second.wall_us);
    EXPECT_EQ(actual[i].second.self_us, expected[i].second.self_us);
    EXPECT_EQ(actual[i].second.count, expected[i].second.count);
  }
}

}  // namespace
}  // namespace taamr::obs
