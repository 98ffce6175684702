#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/json.hpp"
#include "serve/shard_router.hpp"

namespace taamr::serve {

namespace {

using obs::json::Value;

const Value& require(const Value& root, const char* key, Value::Type type,
                     const char* type_name) {
  const Value* v = root.find(key);
  if (v == nullptr) {
    throw std::runtime_error(std::string("request missing field \"") + key + "\"");
  }
  if (v->type != type) {
    throw std::runtime_error(std::string("request field \"") + key + "\" must be " +
                             type_name);
  }
  return *v;
}

std::int64_t require_int(const Value& root, const char* key) {
  const Value& v = require(root, key, Value::Type::kNumber, "a number");
  const double d = v.num;
  // [-2^63, 2^63): the doubles that cast to int64_t without overflow.
  if (!std::isfinite(d) || d != std::floor(d) || d < -0x1p63 || d >= 0x1p63) {
    throw std::runtime_error(std::string("request field \"") + key +
                             "\" must be an integer in the int64 range");
  }
  return static_cast<std::int64_t>(d);
}

std::string require_string(const Value& root, const char* key) {
  return require(root, key, Value::Type::kString, "a string").str;
}

}  // namespace

Request parse_request(const std::string& line) {
  Value root;
  try {
    root = obs::json::parse(line);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("malformed request JSON: ") + e.what());
  }
  if (!root.is_object()) {
    throw std::runtime_error("request must be a JSON object");
  }
  const std::string op = require_string(root, "op");

  Request req;
  if (op == "recommend") {
    req.op = Op::kRecommend;
    req.model = require_string(root, "model");
    req.user = require_int(root, "user");
    if (root.find("n") != nullptr) req.n = require_int(root, "n");
    if (const Value* dbg = root.find("debug"); dbg != nullptr) {
      if (dbg->type != Value::Type::kBool) {
        throw std::runtime_error("request field \"debug\" must be a boolean");
      }
      req.debug = dbg->boolean;
    }
  } else if (op == "update_features") {
    req.op = Op::kUpdateFeatures;
    req.item = require_int(root, "item");
    const Value& feats = require(root, "features", Value::Type::kArray, "an array");
    req.features.reserve(feats.array.size());
    for (const Value& v : feats.array) {
      // A feature that is no finite float would give the item a non-finite
      // score for every user. The bound is the midpoint between FLT_MAX and
      // 2^128: below it a double rounds to a finite float (FLT_MAX's own
      // "%.9g" text, 3.40282347e38, lies above FLT_MAX and rounds to it).
      if (!v.is_number() || !(std::abs(v.num) < 0x1.ffffffp127)) {
        throw std::runtime_error(
            "request field \"features\" must hold finite float-range numbers");
      }
      req.features.push_back(static_cast<float>(v.num));
    }
  } else if (op == "update_image") {
    req.op = Op::kUpdateImage;
    req.item = require_int(root, "item");
    req.seed = static_cast<std::uint64_t>(require_int(root, "seed"));
  } else if (op == "swap_model") {
    req.op = Op::kSwapModel;
    req.model = require_string(root, "model");
    req.kind = require_string(root, "kind");
    req.path = require_string(root, "path");
    if (req.kind != "vbpr" && req.kind != "bpr_mf") {
      throw std::runtime_error("swap_model kind must be \"vbpr\" or \"bpr_mf\"");
    }
  } else if (op == "models") {
    req.op = Op::kModels;
  } else if (op == "stats") {
    req.op = Op::kStats;
  } else if (op == "metrics") {
    req.op = Op::kMetrics;
  } else if (op == "profile") {
    req.op = Op::kProfile;
    if (const Value* secs = root.find("seconds"); secs != nullptr) {
      if (!secs->is_number() || !std::isfinite(secs->num) || secs->num <= 0.0) {
        throw std::runtime_error(
            "request field \"seconds\" must be a positive number");
      }
      req.seconds = secs->num;
    }
  } else if (op == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    throw std::runtime_error("unknown op \"" + op + "\"");
  }
  return req;
}

std::size_t max_request_bytes(std::int64_t feature_dim) {
  // One feature: the longest "%.9g" float ("-1.17549435e-38", 15 chars)
  // and a ", " separator.
  constexpr std::size_t kFeatureBytes = 17;
  // The rest of the line: op and field names, ids, and a swap_model path
  // of up to PATH_MAX (4096) bytes.
  constexpr std::size_t kEnvelopeBytes = 4096 + 256;
  return kEnvelopeBytes + kFeatureBytes * static_cast<std::size_t>(feature_dim);
}

std::int64_t peek_user(const std::string& line) {
  const std::size_t key = line.find("\"user\"");
  if (key == std::string::npos) return -1;
  std::size_t pos = key + 6;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size() || line[pos] != ':') return -1;
  ++pos;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  std::int64_t value = 0;
  bool any = false;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    const int digit = line[pos] - '0';
    if (value > (INT64_MAX - digit) / 10) return -1;  // would overflow
    value = value * 10 + digit;
    any = true;
    ++pos;
  }
  return any ? value : -1;
}

std::string format_recommendation(const Recommendation& rec,
                                  const obs::RequestContext* ctx) {
  std::string out = "{\"ok\":true,\"user\":" + std::to_string(rec.user) +
                    ",\"cached\":" + (rec.cached ? "true" : "false") +
                    ",\"model_version\":" + std::to_string(rec.model_version) +
                    ",\"feature_epoch\":" + std::to_string(rec.feature_epoch) +
                    ",\"items\":[";
  for (std::size_t i = 0; i < rec.items.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"item\":" + std::to_string(rec.items[i].item) +
           ",\"score\":" + obs::json::number(rec.items[i].score) + '}';
  }
  out += "]";
  if (ctx != nullptr) {
    out += ",\"debug\":" + ctx->debug_json();
  }
  out += '}';
  return out;
}

std::string format_error(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + obs::json::escape(message) + "\"}";
}

std::string format_ok(const std::string& extra_fields) {
  if (extra_fields.empty()) return "{\"ok\":true}";
  return "{\"ok\":true," + extra_fields + '}';
}

std::string format_models(const std::vector<std::string>& names) {
  std::string out = "{\"ok\":true,\"models\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + obs::json::escape(names[i]) + '"';
  }
  out += "]}";
  return out;
}

std::string format_stats(const RouterStats& stats) {
  std::string out = "{\"ok\":true";
  out += ",\"requests\":" + std::to_string(stats.requests);
  out += ",\"cache_hits\":" + std::to_string(stats.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(stats.cache_misses);
  out += ",\"cache_revalidated\":" + std::to_string(stats.cache_revalidated);
  // Always 0: no request path batches misses. The key stays because the
  // benchmark's stats reader (benchmark/src/serve_workloads.cpp) requires it.
  out += ",\"coalesced_batches\":0";
  out += ",\"feature_swaps\":" + std::to_string(stats.feature_swaps);
  out += ",\"slow_requests\":" + std::to_string(stats.slow_requests);
  out += ",\"deadline_breaches\":" + std::to_string(stats.deadline_breaches);
  out += ",\"suspect_updates\":" + std::to_string(stats.suspect_updates);
  out += ",\"audit_records\":" + std::to_string(stats.audit_records);
  out += ",\"rolling_p50_ms\":" + obs::json::number(stats.rolling_p50_s * 1e3);
  out += ",\"rolling_p90_ms\":" + obs::json::number(stats.rolling_p90_s * 1e3);
  out += ",\"rolling_p99_ms\":" + obs::json::number(stats.rolling_p99_s * 1e3);
  out += ",\"hit_rate\":" + obs::json::number(stats.hit_rate());
  out += ",\"cache_size\":" + std::to_string(stats.cache.size);
  out += ",\"cache_capacity\":" + std::to_string(stats.cache.capacity);
  out += ",\"cache_evictions\":" + std::to_string(stats.cache.evictions);
  out += '}';
  return out;
}

}  // namespace taamr::serve
