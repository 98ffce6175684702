// Protocol fuzz: seeded mutants of valid request lines (byte flips,
// truncations, splices, deep nesting, huge and non-finite numbers,
// out-of-range ids, escaped strings) through the three layers a wire line
// crosses: parse_request, ShardRouter::respond inside taamr_serve's error
// envelope, and the router's front door over loopback with random packet
// splits. Every request line gets exactly one response line, in order, a
// JSON object with an "ok" field. Valid recommend lines and feature pushes
// are interleaved with the mutants, and each valid recommend gets the
// rank_users list of the registry's current model.
//
// Never sent: profile and shutdown (they act on the process), metrics (its
// answer is the multi-line exposition by design), and swap_model outside
// the test's temp dir (a mutated path can name a file that blocks a
// worker, e.g. /dev/stdin). Suite "ServeFuzz": the CI thread-sanitizer
// job's "Serve" filter and the ASan + UBSan job run it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "obs/request_context.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/shard_router.hpp"
#include "test_client.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

constexpr std::int64_t kFeatureDim = 8;

// taamr_serve's handler for every op the router answers.
std::string envelope(serve::ShardRouter& router, const std::string& line) {
  obs::RequestContext ctx;
  try {
    const serve::Request req = serve::parse_request(line);
    ctx.mark("parse");
    return router.respond(req, &ctx);
  } catch (const std::exception& e) {
    return serve::format_error(e.what());
  }
}

class ServeFuzz : public ::testing::Test {
 protected:
  ServeFuzz()
      : dataset_(data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale))),
        rng_(2029),
        registry_(dataset_),
        dir_(std::filesystem::temp_directory_path() /
             ("taamr_serve_fuzz_" + std::to_string(::getpid()))) {
    Tensor features({dataset_.num_items, kFeatureDim});
    testing::fill_uniform(features, rng_, -1.0f, 1.0f);
    auto vbpr = std::make_shared<recsys::Vbpr>(dataset_, features, recsys::VbprConfig{}, rng_);
    auto mf = std::make_shared<recsys::BprMf>(dataset_, recsys::BprMfConfig{}, rng_);
    std::filesystem::create_directories(dir_);
    vbpr->save_file((dir_ / "vbpr.bin").string());
    mf->save_file((dir_ / "mf.bin").string());
    registry_.register_model("vbpr", vbpr, /*visual=*/true);
    registry_.register_model("mf", mf, /*visual=*/false);
    serve::ShardRouterConfig cfg;
    cfg.num_shards = 2;
    router_ = std::make_unique<serve::ShardRouter>(dataset_, registry_, features, cfg);
    seeds_ = {
        R"({"op":"recommend","model":"vbpr","user":3,"n":10})",
        R"({"op":"recommend","model":"mf","user":104,"n":5,"debug":true})",
        R"({"op":"recommend","model":"v\u0062pr","user":0})",
        R"({"op":"update_features","item":5,"features":[0.5,-1.25,3e-3,1,0,-0,2.5,1e2]})",
        R"({"op":"update_image","item":5,"seed":42})",
        R"({"op":"swap_model","model":"vbpr","kind":"vbpr","path":")" + path("vbpr.bin") + "\"}",
        R"({"op":"swap_model","model":"a\"b\nc","kind":"bpr_mf","path":")" + path("mf.bin") + "\"}",
        R"({"op":"models"})",
        R"({"op":"stats"})",
    };
  }
  ~ServeFuzz() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& file) const { return obs::json::escape((dir_ / file).string()); }

  // A field value from the pools the mutants draw on.
  std::string value() {
    static const char* kPool[] = {
        "0", "-1", "3", "104", "105", "330", "331", "-0", "1e2", "1.5", "1e400", "-1e400",
        "1e308", "1e15", "9223372036854775807", "9223372036854775808",
        "-9223372036854775809", "18446744073709551616", "NaN", "Infinity", "-Infinity",
        "nan", "0x10", "+1", "00012", "1e-400", "-", "true", "null", "\"vbpr\"", "\"mf\"",
        "\"\"", "\"\\u0000\"", "\"a\\\"b\\nc\"", "\"\\ud800\"", "\"\\uZZZZ\"", "\"\\x\"",
        "\"\\u00e9\\t\\/\"", "[]", "{}", "[1,[2,[3]]]", "{\"a\":{\"b\":1}}",
        "[3.4028235e38]", "[1e39]", "[0.5,0.5,0.5,0.5,0.5,0.5,0.5]"};
    switch (rng_.index(4)) {
      case 0: {  // deep nesting, past the parser's depth limit half the time
        const std::size_t depth = 1 + rng_.index(128);
        return rng_.bernoulli(0.5)
                   ? std::string(depth, '[') + std::string(depth, ']')
                   : repeat("{\"a\":", depth) + "1" + std::string(depth, '}');
      }
      case 1: {  // a features array of D or D +- 1 floats, some beyond float range
        std::string out = "[";
        const std::size_t n = static_cast<std::size_t>(kFeatureDim) - 1 + rng_.index(3);
        for (std::size_t i = 0; i < n; ++i) {
          if (i > 0) out += ',';
          out += rng_.bernoulli(0.05) ? kPool[rng_.index(std::size(kPool))]
                                      : obs::json::number(rng_.uniform(-4.0, 4.0));
        }
        return out + "]";
      }
      default:
        return kPool[rng_.index(std::size(kPool))];
    }
  }

  static std::string repeat(const std::string& s, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += s;
    return out;
  }

  // A seed rewritten field by field from the value pools, then mutated
  // bytewise. Never empty and free of '\n', so it is one wire line.
  std::string mutant() {
    static const char* kOps[] = {"recommend", "update_features", "update_image",
                                 "swap_model", "models", "stats", "RECOMMEND", "recommend "};
    static const char* kKeys[] = {"model", "user", "n", "debug", "item", "features",
                                  "seed", "kind", "path", "op"};
    std::string line;
    if (rng_.bernoulli(0.5)) {
      line = seeds_[rng_.index(seeds_.size())];
    } else {
      line = std::string("{\"op\":\"") + kOps[rng_.index(std::size(kOps))] + "\"";
      const std::size_t fields = rng_.index(5);
      for (std::size_t f = 0; f < fields; ++f) {
        line += std::string(",\"") + kKeys[rng_.index(std::size(kKeys))] + "\":" + value();
      }
      line += "}";
    }
    const std::size_t edits = rng_.index(3);
    for (std::size_t e = 0; e < edits && !line.empty(); ++e) {
      switch (rng_.index(3)) {
        case 0:  // byte flip
          line[rng_.index(line.size())] = static_cast<char>(rng_.index(256));
          break;
        case 1:  // truncation
          line.resize(rng_.index(line.size()));
          break;
        default: {  // splice with another seed
          const std::string& other = seeds_[rng_.index(seeds_.size())];
          line = line.substr(0, rng_.index(line.size() + 1)) +
                 other.substr(rng_.index(other.size() + 1));
        }
      }
    }
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    // The front door drops one trailing '\r' and skips empty lines.
    while (!line.empty() && line.back() == '\r') line.pop_back();
    return line.empty() ? std::string("{") : line;
  }

  // Whether `line` may be sent: no process ops, no metrics, and checkpoint
  // loads only from this test's directory.
  bool sendable(const std::string& line) const {
    serve::Request req;
    try {
      req = serve::parse_request(line);
    } catch (const std::exception&) {
      return true;
    }
    if (req.op == serve::Op::kSwapModel) {
      return req.path.rfind(dir_.string() + "/", 0) == 0 &&
             req.path.find("..") == std::string::npos;
    }
    return req.op != serve::Op::kProfile && req.op != serve::Op::kShutdown &&
           req.op != serve::Op::kMetrics;
  }

  static bool writes(const std::string& line) {
    try {
      const serve::Op op = serve::parse_request(line).op;
      return op == serve::Op::kUpdateFeatures || op == serve::Op::kSwapModel;
    } catch (const std::exception&) {
      return false;
    }
  }

  // A valid recommend for a model the registry holds now. Few users and
  // list lengths, so most are cache hits that pushes revalidate.
  std::string checked_recommend(std::int64_t* user) {
    static const int kN[] = {3, 10, 20};
    const std::vector<std::string> names = registry_.names();
    *user = static_cast<std::int64_t>(rng_.index(12));
    return "{\"op\":\"recommend\",\"model\":\"" +
           obs::json::escape(names[rng_.index(names.size())]) +
           "\",\"user\":" + std::to_string(*user) +
           ",\"n\":" + std::to_string(kN[rng_.index(std::size(kN))]) + "}";
  }

  // A valid feature push of a random item far enough to move lists.
  std::string push() {
    std::string line = "{\"op\":\"update_features\",\"item\":" +
                       std::to_string(rng_.index(static_cast<std::size_t>(dataset_.num_items))) +
                       ",\"features\":[";
    for (std::int64_t d = 0; d < kFeatureDim; ++d) {
      if (d > 0) line += ',';
      line += obs::json::number(static_cast<float>(rng_.gaussian(0.0, 3.0)));
    }
    return line + "]}";
  }

  // The next line of a stream: a checked recommend (user >= 0), a valid
  // push, or a mutant.
  std::string next_line(std::int64_t* user) {
    *user = -1;
    const double r = rng_.uniform();
    if (r < 0.25) return checked_recommend(user);
    if (r < 0.35) return push();
    return mutant();
  }

  // One response line: a JSON object with "ok". For a checked recommend,
  // also the user's golden list from the model the registry holds now.
  void check_response(const std::string& request, const std::string& response,
                      std::int64_t user = -1) {
    ASSERT_EQ(response.find('\n'), std::string::npos) << request << " -> " << response;
    obs::json::Value doc;
    ASSERT_NO_THROW(doc = obs::json::parse(response)) << request << " -> " << response;
    ASSERT_TRUE(doc.is_object()) << response;
    const obs::json::Value* ok = doc.find("ok");
    ASSERT_NE(ok, nullptr) << request << " -> " << response;
    ASSERT_EQ(ok->type, obs::json::Value::Type::kBool) << response;
    if (user < 0) return;
    ASSERT_TRUE(ok->boolean) << request << " -> " << response;
    const serve::Request req = serve::parse_request(request);
    const std::int64_t users[1] = {user};
    const std::vector<recsys::ScoredItem> golden =
        recsys::rank_users(*registry_.get(req.model).model, dataset_, users, req.n).front();
    std::vector<recsys::ScoredItem> served;
    for (const obs::json::Value& item : doc.find("items")->array) {
      served.push_back({static_cast<std::int32_t>(item.find("item")->num),
                        static_cast<float>(item.find("score")->num)});
    }
    EXPECT_EQ(doc.find("user")->num, static_cast<double>(user)) << response;
    EXPECT_EQ(served, golden) << request << " -> " << response;
  }

  data::ImplicitDataset dataset_;
  Rng rng_;
  serve::ModelRegistry registry_;
  std::filesystem::path dir_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::vector<std::string> seeds_;
};

// parse_request either returns a request or throws a std::exception, and an
// accepted update_features carries only finite floats.
TEST_F(ServeFuzz, ParseRequestRejectsOrAccepts) {
  for (int i = 0; i < 20000; ++i) {
    const std::string line = mutant();
    try {
      const serve::Request req = serve::parse_request(line);
      for (const float f : req.features) ASSERT_TRUE(std::isfinite(f)) << line;
    } catch (const std::exception&) {
    }
  }
}

// swap_model replaces names and never adds one, so no line grows the
// registry.
TEST_F(ServeFuzz, RespondAnswersEveryLineWithOneJsonLine) {
  const std::size_t names = registry_.names().size();
  for (int i = 0; i < 3000 && !HasFatalFailure(); ++i) {
    std::int64_t user = -1;
    const std::string line = next_line(&user);
    if (sendable(line)) check_response(line, envelope(*router_, line), user);
  }
  EXPECT_EQ(registry_.names().size(), names);
}

// Read-only lines go out in pipelined batches, split into random packets;
// a write goes alone and is answered before the next batch, so a checked
// recommend in a batch sees one registry state.
TEST_F(ServeFuzz, FrontDoorAnswersEveryLineInOrder) {
  serve::EventLoopConfig cfg;
  cfg.workers_per_shard = 2;
  cfg.drain_timeout_ms = 5000;
  const std::unique_ptr<serve::EventLoop> loop = router_->front_door(
      cfg, [this](std::size_t, const std::string& line) { return envelope(*router_, line); });
  loop->start();
  testing::TestClient client(loop->port());
  ASSERT_TRUE(client.connected());

  struct Sent {
    std::string line;
    std::int64_t user;
  };
  const auto exchange = [&](const std::vector<Sent>& batch) {
    std::string bytes;
    for (const Sent& s : batch) bytes += s.line + "\n";
    for (std::size_t off = 0; off < bytes.size();) {
      const std::size_t len = std::min(bytes.size() - off, 1 + rng_.index(64));
      ASSERT_TRUE(client.send_raw(bytes.substr(off, len)));
      off += len;
    }
    for (const Sent& s : batch) {
      check_response(s.line, client.read_line(), s.user);
      if (HasFatalFailure()) return;
    }
  };

  std::vector<Sent> batch;
  for (int i = 0; i < 1500 && !HasFatalFailure(); ++i) {
    std::int64_t user = -1;
    std::string line = next_line(&user);
    if (!sendable(line)) continue;
    if (writes(line)) {
      exchange(batch);
      batch.clear();
      exchange({{std::move(line), -1}});
    } else {
      batch.push_back({std::move(line), user});
    }
    if (batch.size() >= 16) {
      exchange(batch);
      batch.clear();
    }
  }
  exchange(batch);
  loop->request_shutdown();
  EXPECT_EQ(loop->join(), 0);
  const serve::EventLoop::Stats stats = loop->stats();
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace taamr
