// Run-ledger reporting: single-run summaries and two-run diffs
// (loss-curve deltas, score-distribution drift). Shared by the
// tools/tfmae_report CLI and the golden tests, so the rendering itself is
// testable without spawning a process.
//
// All output is deterministic: wall-clock timestamps are reported only as
// run-relative durations derived from the event "t" fields when explicitly
// requested (RenderRunReport with show_timing), and the diff view never
// includes them — two renders of the same pair of ledgers are
// byte-identical.
#ifndef TFMAE_OBS_REPORT_H_
#define TFMAE_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/ledger.h"

namespace tfmae::obs {

struct ReportOptions {
  /// Include wall-clock-derived figures (run duration, steps/sec) in the
  /// single-run summary. Off in tests: timing varies run to run.
  bool show_timing = true;
  /// Rows of the per-epoch loss table (0 = all).
  int max_epoch_rows = 0;
};

/// Digest of one ledger the renderers work from (exposed for tests).
struct RunDigest {
  std::string tool;
  std::string run_id;
  int num_threads = 0;
  bool sealed = false;
  std::int64_t dropped_lines = 0;
  std::int64_t steps = 0;
  std::int64_t guard_trips = 0;
  std::int64_t guard_give_ups = 0;
  std::int64_t checkpoints_ok = 0;
  std::int64_t checkpoints_failed = 0;
  std::int64_t stream_events = 0;
  std::int64_t plan_captures = 0;     ///< "plan" events (inference-plan
                                      ///< captures) in the run
  std::int64_t plan_ops = 0;          ///< replay ops of the last capture
  std::int64_t plan_arena_bytes = 0;  ///< arena size of the last capture
  // "quant" events (int8 scoring path, DESIGN.md §12).
  std::int64_t quant_calibrations = 0;  ///< verdict=calibrated events
  std::int64_t quant_plans = 0;         ///< verdict=self_verified events
  std::int64_t quant_fallbacks = 0;     ///< verdict=fallback events
  std::int64_t quant_sites = 0;         ///< calibrated sites (last event)
  std::int64_t quant_linear_ops = 0;    ///< int8 matmuls (last plan)
  std::int64_t quant_elided_pairs = 0;  ///< elided quant/dequant pairs
  std::int64_t quant_arena_bytes = 0;   ///< packed u8 arena (last plan)
  double quant_amax_min = 0.0;  ///< calibration range summary (last event)
  double quant_amax_max = 0.0;
  std::string quant_fallback_reason;  ///< reason of the last fallback
  double first_loss = 0.0;  ///< loss of the first step event
  double last_loss = 0.0;   ///< loss of the last step event
  /// (epoch, mean_loss) per epoch_end event, in order.
  std::vector<std::pair<std::int64_t, double>> epochs;
  /// score_histogram events, in order.
  std::vector<LedgerEvent> histograms;
  std::uint64_t first_t_us = 0;  ///< timestamp of the first event
  std::uint64_t last_t_us = 0;   ///< timestamp of the last event
};

RunDigest DigestRun(const LedgerFile& file);

/// Two-sample Kolmogorov-Smirnov distance between two binned score
/// distributions: sup |CDF_a - CDF_b| over the merged bucket edges. Each
/// histogram is (lo, hi, buckets); buckets span [lo, hi] linearly. Returns
/// 0 when either side is empty.
double KsDistance(double lo_a, double hi_a,
                  const std::vector<std::uint64_t>& buckets_a, double lo_b,
                  double hi_b, const std::vector<std::uint64_t>& buckets_b);

/// Human-readable single-run summary: manifest, integrity state, step and
/// guard counts, per-epoch loss table, stored score-distribution quantiles.
std::string RenderRunReport(const LedgerFile& file,
                            const ReportOptions& options = {});

/// Two-run comparison: per-epoch loss deltas, final-loss delta, guard and
/// checkpoint count deltas, and K-S drift per stored score histogram.
/// Deterministic (never includes timing).
std::string RenderRunDiff(const LedgerFile& a, const LedgerFile& b,
                          const ReportOptions& options = {});

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_REPORT_H_
