// Newline-delimited JSON protocol of tools/taamr_serve. One request object
// per line in, one response object per line out, over stdin/stdout or a TCP
// loopback connection. Built on obs::json (the repo's minimal parser), so
// the wire format round-trips with the observability writers.
//
// Requests:
//   {"op":"recommend","model":"vbpr","user":3,"n":10}
//   {"op":"recommend","model":"vbpr","user":3,"n":10,"debug":true}
//   {"op":"update_features","item":5,"features":[0.1, ...]}
//   {"op":"update_image","item":5,"seed":42}      // re-render + re-extract
//   {"op":"swap_model","model":"vbpr","kind":"vbpr","path":"ckpt.bin"}
//   {"op":"profile","seconds":2}                  // on-demand CPU window
//   {"op":"models"} | {"op":"stats"} | {"op":"metrics"} | {"op":"shutdown"}
//
// Responses always carry "ok"; failures carry "error" with the exception
// message. recommend responses: {"ok":true,"user":3,"cached":false,
// "model_version":1,"feature_epoch":0,"items":[{"item":7,"score":1.5},...]};
// with "debug":true they additionally echo the request id and per-stage
// latency attribution under "debug".
//
// "metrics" and "profile" are the multi-line responses. "metrics" is the
// Prometheus text exposition of every registered metric (rolling SLO gauges
// refreshed at scrape time); "profile" samples the live process for
// `seconds` (default 1, clamped to [0.05, 60]) and returns the window's
// collapsed CPU stacks, flamegraph-ready. Both terminate with a "# EOF"
// line that doubles as the framing marker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/request_context.hpp"
#include "serve/recommend_service.hpp"

namespace taamr::serve {

struct RouterStats;  // serve/shard_router.hpp

enum class Op {
  kRecommend,
  kUpdateFeatures,
  kUpdateImage,
  kSwapModel,
  kModels,
  kStats,
  kMetrics,
  kProfile,
  kShutdown,
};

struct Request {
  Op op = Op::kRecommend;
  std::string model;           // recommend / swap_model
  std::int64_t user = -1;      // recommend
  std::int64_t n = 10;         // recommend (default top-10)
  bool debug = false;          // recommend: echo stage attribution
  std::int64_t item = -1;      // update_features / update_image
  std::vector<float> features; // update_features
  std::uint64_t seed = 0;      // update_image
  std::string kind;            // swap_model: "vbpr" | "bpr_mf"
  std::string path;            // swap_model checkpoint path
  double seconds = 1.0;        // profile: sampling window length
};

// Parses one request line. Throws std::runtime_error with a descriptive
// message on unknown ops, missing fields, or malformed JSON (the server
// turns that into an error response instead of dying).
Request parse_request(const std::string& line);

// The longest line a well-formed request can take when the served models
// have `feature_dim` features: an update_features line with every float at
// "%.9g", or a swap_model naming a PATH_MAX-long checkpoint path. The TCP
// front door answers a longer line with an error and closes the connection.
std::size_t max_request_bytes(std::int64_t feature_dim);

// Cheap scan for the "user" field of a request line, without a full JSON
// parse — the event loop's shard-routing hint. Returns -1 when the line has
// no parsable non-negative user. Only a placement hint: correctness of the
// user->shard mapping lives in ShardRouter, which re-derives the shard from
// the parsed request.
std::int64_t peek_user(const std::string& line);

// Response formatters; each returns a single line without the trailing
// newline. `ctx` non-null appends the "debug" stage-attribution object
// (the driver passes it only when the request asked for it).
std::string format_recommendation(const Recommendation& rec,
                                  const obs::RequestContext* ctx = nullptr);
std::string format_error(const std::string& message);
// {"ok":true} plus optional extra pre-rendered fields, e.g. R"("epoch":3)".
std::string format_ok(const std::string& extra_fields = "");
std::string format_models(const std::vector<std::string>& names);
std::string format_stats(const RouterStats& stats);

}  // namespace taamr::serve
