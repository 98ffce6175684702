// Process memory telemetry: peak resident set size, read from the OS
// (getrusage). Used by the bench reporter's memory section
// and dumped as gauges into any TAAMR_METRICS_OUT snapshot by callers that
// want them. Returns 0 where the platform offers no answer.
#pragma once

#include <cstdint>

namespace taamr::obs {

// Lifetime peak resident set size of this process, in bytes.
std::int64_t peak_rss_bytes();

}  // namespace taamr::obs
