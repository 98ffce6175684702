// The one reader of numeric TAAMR_* environment knobs.
//
// Every knob has a default. An unset or empty variable means "use the
// default"; a value that is not a plain number in range is reported with a
// warning on stderr and replaced by the default, so a typo never silently
// becomes 0 (an empty dataset, a zero-sized cache). Path knobs
// (TAAMR_TRACE, TAAMR_AUDIT_LOG, ...) need no parsing and are read with
// std::getenv at their use sites.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace taamr::env {

// Whole-string integer parse: no whitespace, '+' prefix, or trailing junk.
std::optional<std::int64_t> parse_int(std::string_view text);

// Integer knob in [lo, hi].
std::int64_t get_int(const char* name, std::int64_t fallback, std::int64_t lo = 1,
                     std::int64_t hi = std::numeric_limits<std::int64_t>::max());

// Real knob, strictly positive.
double get_positive_real(const char* name, double fallback);

}  // namespace taamr::env
