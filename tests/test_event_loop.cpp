// EventLoop behaviour over real loopback sockets: newline framing across
// arbitrary packet splits, per-connection response ordering, shard routing,
// drain-then-close shutdown, and admission control (suite names start with
// "EventLoop" / "Admission" so the CI thread-sanitizer job picks them up).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "test_client.hpp"

namespace taamr {
namespace {

using testing::TestClient;

serve::EventLoopConfig test_config() {
  serve::EventLoopConfig cfg;
  cfg.port = 0;
  cfg.workers_per_shard = 2;
  cfg.drain_timeout_ms = 5000;
  return cfg;
}

TEST(EventLoopTest, PipelinedEchoKeepsRequestOrder) {
  serve::EventLoop loop(
      test_config(), 2, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) { return "echo:" + line; });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 32; ++i) burst += "req" + std::to_string(i) + "\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(client.read_line(), "echo:req" + std::to_string(i));
  }
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_EQ(stats.responses, 32u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(EventLoopTest, ReassemblesLinesAcrossPacketSplits) {
  serve::EventLoop loop(
      test_config(), 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) { return "got:" + line; });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  // One request split into three sends, then a send carrying the tail of
  // nothing plus two complete lines plus the head of a third.
  ASSERT_TRUE(client.send_raw("hel"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw("lo wo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw("rld\nalpha\nbeta\ngam"));
  EXPECT_EQ(client.read_line(), "got:hello world");
  EXPECT_EQ(client.read_line(), "got:alpha");
  EXPECT_EQ(client.read_line(), "got:beta");
  ASSERT_TRUE(client.send_raw("ma\n"));
  EXPECT_EQ(client.read_line(), "got:gamma");
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
}

TEST(EventLoopTest, RoutesLinesToTheHintedShard) {
  // Route on the line's first digit; the handler reports which shard ran it.
  serve::EventLoop loop(
      test_config(), 4,
      [](const std::string& line) {
        return static_cast<std::size_t>(line[0] - '0') % 4;
      },
      [](std::size_t shard, const std::string& line) {
        return line + ":shard" + std::to_string(shard);
      });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("0\n1\n2\n3\n"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.read_line(),
              std::to_string(i) + ":shard" + std::to_string(i));
  }
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
}

TEST(EventLoopTest, DrainCompletesInflightBeforeClosing) {
  std::atomic<int> handled{0};
  serve::EventLoop loop(
      test_config(), 1, [](const std::string&) { return std::size_t{0}; },
      [&handled](std::size_t, const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        handled.fetch_add(1);
        return "done:" + line;
      });
  loop.start();
  const int port = loop.port();

  TestClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("slow\n"));
  // Give the loop a beat to admit the request, then begin the drain while
  // the handler is still sleeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  loop.request_shutdown();
  EXPECT_EQ(client.read_line(), "done:slow");  // flushed before close
  EXPECT_EQ(loop.join(), 0);
  EXPECT_EQ(handled.load(), 1);

  // The listener is gone: new connections are refused.
  TestClient late(port);
  EXPECT_FALSE(late.connected());
}

// A line over the cap is answered with an error after the requests before
// it, and its connection then closes; a line of exactly the cap is served,
// and so is every other connection.
TEST(EventLoopTest, OverlongLineIsRejectedInSequenceAndCloses) {
  const std::int64_t feature_dim = 16;
  const std::size_t cap = serve::max_request_bytes(feature_dim);
  // The longest legal update_features line fits under the cap.
  std::string legal =
      "{\"op\":\"update_features\",\"item\":9223372036854775807,\"features\":[";
  for (std::int64_t j = 0; j < feature_dim; ++j) {
    legal += (j > 0 ? ", " : "") + obs::json::number(-1.17549435e-38f);
  }
  legal += "]}";
  EXPECT_LE(legal.size(), cap);

  serve::EventLoop loop(
      test_config(), 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) {
        return "len:" + std::to_string(line.size());
      },
      cap);
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("first\n" + std::string(cap, 'a') + "\n"));
  // cap + 1 bytes and no newline, in two reads: the second read resumes
  // the newline search where the first stopped.
  ASSERT_TRUE(client.send_raw(std::string(cap / 2, 'x')));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(std::string(cap + 1 - cap / 2, 'x'));
  EXPECT_EQ(client.read_line(), "len:5");
  EXPECT_EQ(client.read_line(), "len:" + std::to_string(cap));
  EXPECT_EQ(client.read_line(), "{\"ok\":false,\"error\":\"request line too long\"}");
  EXPECT_EQ(client.read_line(), "");  // closed

  TestClient other(loop.port());
  ASSERT_TRUE(other.connected());
  ASSERT_TRUE(other.send_raw("after\n"));
  EXPECT_EQ(other.read_line(), "len:5");

  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.responses, 4u);
}

TEST(EventLoopTest, PeekUserExtractsRoutingHint) {
  EXPECT_EQ(serve::peek_user("{\"op\":\"recommend\",\"user\":42,\"n\":5}"), 42);
  EXPECT_EQ(serve::peek_user("{\"user\" : 7}"), 7);
  EXPECT_EQ(serve::peek_user("{\"op\":\"stats\"}"), -1);
  EXPECT_EQ(serve::peek_user("{\"user\":\"nope\"}"), -1);
  EXPECT_EQ(serve::peek_user(""), -1);
  // Past INT64_MAX: no hint, and no signed overflow on the way.
  EXPECT_EQ(serve::peek_user("{\"user\":9223372036854775807}"), INT64_MAX);
  EXPECT_EQ(serve::peek_user("{\"user\":9223372036854775808}"), -1);
  EXPECT_EQ(serve::peek_user("{\"user\":99999999999999999999}"), -1);
}

TEST(AdmissionTest, OverloadShedsInsteadOfHanging) {
  serve::EventLoopConfig cfg = test_config();
  cfg.workers_per_shard = 1;
  cfg.max_inflight = 2;
  serve::EventLoop loop(
      cfg, 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return "ok:" + line;
      });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  constexpr int kBurst = 8;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += 'r';
    burst += std::to_string(i);
    burst += '\n';
  }
  ASSERT_TRUE(client.send_raw(burst));

  // Exactly one response line per request line, in request order, with the
  // overflow shed as overload errors rather than queued or dropped.
  int ok = 0;
  int shed = 0;
  int last_ok = -1;
  for (int i = 0; i < kBurst; ++i) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " never arrived";
    if (line.find("overloaded") != std::string::npos) {
      ++shed;
    } else {
      ASSERT_EQ(line.rfind("ok:r", 0), 0u) << line;
      const int idx = std::stoi(line.substr(4));
      EXPECT_GT(idx, last_ok) << "non-shed responses out of order";
      last_ok = idx;
      ++ok;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never overflowed the 2-deep queue";
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.responses, static_cast<std::uint64_t>(kBurst));
}

}  // namespace
}  // namespace taamr
