// Attack-forensics audit trail for the serving path.
//
// TAaMR-style attacks reach a live recommender as a stream of
// update_features / update_image requests: an iterative PGD or MIM push
// re-uploads one item's image every few hundred milliseconds with a small,
// norm-bounded delta until the extracted features cross the category
// boundary. Individually each update is indistinguishable from a catalog
// refresh; the signature only exists across updates. This module records
// that cross-update evidence:
//
//  * AuditLog — append-only JSONL file ($TAAMR_AUDIT_LOG, "%p" expands to
//    the pid). One AuditRecord per mutation: item id, L-inf/L2 delta vs the
//    previous feature vector, SSIM vs the previous rendered image when the
//    front-end has one, the feature epoch the update created, the anomaly
//    verdict, and a rank-shift sample for a few probe users.
//  * UpdateAnomalyScorer — streaming detector over that stream: a per-item
//    EWMA of update rate (iterative attacks revisit one item far faster
//    than catalog churn) plus a global mean/variance EWMA of L2 delta norms
//    whose z-score flags single out-of-band jumps. Pure function of its
//    inputs (explicit timestamps) so tests can replay exact schedules.
//
// The serving layer turns suspect verdicts into
// serve_suspect_update_total{reason=...} counter increments; the audit file
// is the evidence trail an operator greps after the alert fires.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace taamr::obs {

// Where the updated item ranks for one probe user: recsys::item_rank minus
// one (0-based, training items excluded), or -1 on both sides when the
// probe user trained on the item.
struct RankShift {
  std::int64_t user = 0;
  std::int64_t before = 0;  // rank prior to the update
  std::int64_t after = 0;
};

struct AuditRecord {
  std::uint64_t t_us = 0;       // monotonic_us() at the update
  std::int64_t item = 0;
  std::uint64_t epoch = 0;      // feature epoch the update produced
  std::string source;           // "update_features" | "update_image" | ...
  double linf_delta = 0.0;      // vs the item's previous feature vector
  double l2_delta = 0.0;
  double ssim = -1.0;           // vs previous rendered image; -1 = unavailable
  double rate_ewma = 0.0;       // updates/sec EWMA for this item
  double delta_z = 0.0;         // z-score of l2_delta vs global EWMA stats
  bool suspect = false;
  std::string reason;           // "rate" | "delta_spike" | "" when clean
  std::vector<RankShift> rank_shifts;
};

// One JSONL line (no trailing newline).
std::string audit_record_json(const AuditRecord& rec);

// Thread-safe append-only JSONL sink. The global() instance opens
// $TAAMR_AUDIT_LOG (pid-expanded) at first use; disabled when unset.
class AuditLog {
 public:
  static AuditLog& global();

  AuditLog() = default;
  explicit AuditLog(const std::string& path) { open(path); }

  // (Re)targets the sink; empty path disables. Truncates an existing file.
  void open(const std::string& path);
  bool enabled() const;
  const std::string& path() const { return path_; }

  // Appends one line and flushes, so records survive an abrupt exit and a
  // tailing operator sees them live.
  void append(const AuditRecord& rec);

  std::uint64_t records_written() const;

 private:
  mutable std::mutex mutex_;
  std::string path_;
  bool enabled_ = false;
  std::uint64_t written_ = 0;
};

struct AnomalyConfig {
  // Per-item rate EWMA: smoothing over inter-arrival gaps. A catalog item
  // refreshed daily sits near 0; an iterative push at 5 Hz converges to ~5.
  double rate_halflife_s = 10.0;
  double rate_threshold_per_s = 0.5;  // flag "rate" above this...
  std::uint64_t min_updates = 3;      // ...once an item has this many updates
  // Global delta-norm stats: EWMA mean/variance over every update's L2
  // delta; flag "delta_spike" when a delta sits `z_threshold` deviations
  // out, after `warmup` updates have seeded the statistics.
  double delta_halflife = 20.0;  // in updates, not seconds
  double z_threshold = 4.0;
  std::uint64_t warmup = 8;
};

class UpdateAnomalyScorer {
 public:
  explicit UpdateAnomalyScorer(AnomalyConfig config = {});

  struct Verdict {
    double rate_ewma = 0.0;
    double z = 0.0;
    bool suspect = false;
    std::string reason;  // first triggered of "rate", "delta_spike"
  };

  // Scores one observed update and folds it into the running statistics.
  // Thread-safe; `now_us` is explicit so tests can replay schedules.
  Verdict score(std::int64_t item, double l2_delta, std::uint64_t now_us);

 private:
  struct ItemState {
    std::uint64_t last_us = 0;
    std::uint64_t updates = 0;
    double rate_ewma = 0.0;
  };

  AnomalyConfig config_;
  std::mutex mutex_;
  std::unordered_map<std::int64_t, ItemState> items_;
  std::uint64_t total_updates_ = 0;
  double delta_mean_ = 0.0;
  double delta_var_ = 0.0;
};

}  // namespace taamr::obs
