#include "util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace taamr::env {

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

template <typename T>
T reject(const char* name, const char* raw, T fallback) {
  log_warn() << "ignoring malformed " << name << "='" << raw << "', using default "
             << fallback;
  return fallback;
}

}  // namespace

std::optional<std::int64_t> parse_int(std::string_view text) {
  return parse_whole<std::int64_t>(text);
}

std::int64_t get_int(const char* name, std::int64_t fallback, std::int64_t lo,
                     std::int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<std::int64_t> v = parse_int(raw);
  if (!v || *v < lo || *v > hi) return reject(name, raw, fallback);
  return *v;
}

double get_positive_real(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<double> v = parse_whole<double>(raw);
  if (!v || !std::isfinite(*v) || *v <= 0.0) return reject(name, raw, fallback);
  return *v;
}

}  // namespace taamr::env
