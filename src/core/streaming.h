// Online/streaming anomaly detection on top of any fitted AnomalyDetector.
//
// The observability deployments the paper motivates (server fleets, water
// treatment, spacecraft) consume telemetry as a stream. StreamingDetector
// wraps a fitted detector with a ring buffer: observations are pushed one at
// a time; once the buffer holds a full window, each arriving observation is
// scored against its trailing window and compared to a calibrated threshold.
//
// Real telemetry is dirty, so Push additionally implements the degraded-
// input contract of docs/RESILIENCE.md instead of trusting every row:
//  * a wrong-arity observation is REJECTED (typed status, stream unchanged)
//    rather than aborting the process or indexing out of contract;
//  * NaN/Inf values are imputed per feature by last-observation-carried-
//    forward, up to `impute_staleness_cap` consecutive rows;
//  * a row whose staleness cap is exhausted, or that contains a wildly
//    out-of-range value (|x - mean| > quarantine_sigma * std of the values
//    accepted so far), is QUARANTINED: an imputed row keeps the window
//    moving, but no score or alert is emitted for it;
//  * per-stream health counts are available from health() and exported as
//    `streaming.degraded.*` metrics.
//
// The per-stream state (sliding window, LOCF sources, Welford statistics,
// hop cadence, threshold) lives in the standalone StreamState class so that
// serve::FleetServer (docs/SERVING.md) can hold thousands of compact stream
// states against ONE shared detector. StreamState decides WHAT to do with a
// row (absorb / reject / quarantine / rescore-due); its owner decides WHEN
// and HOW to score the window it exposes. StreamingDetector remains the
// synchronous single-stream owner with unchanged semantics.
#ifndef TFMAE_CORE_STREAMING_H_
#define TFMAE_CORE_STREAMING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/anomaly_detector.h"
#include "util/checkpoint_file.h"

namespace tfmae::core {

/// Configuration of the streaming wrapper.
struct StreamingOptions {
  /// Trailing-window length used per score (should match the detector's
  /// training window).
  std::int64_t window = 50;
  /// Score every k-th arriving observation against its trailing window and
  /// back-fill the k-1 in-between scores from the same window (k = hop).
  /// hop=1 scores every step (most accurate, most expensive).
  std::int64_t hop = 5;
  /// Maximum consecutive rows a feature may be imputed (LOCF) before the
  /// row is quarantined instead of scored.
  std::int64_t impute_staleness_cap = 5;
  /// Quarantine a row when any feature deviates more than this many running
  /// standard deviations from its running mean. 0 disables the range check.
  double quarantine_sigma = 0.0;
  /// Accepted rows required before the range check activates (the running
  /// statistics are meaningless earlier).
  std::int64_t quarantine_warmup = 64;
};

/// What happened to the most recent Push (see last_push_status()).
enum class PushStatus {
  kScored,       ///< row accepted and a result emitted
  kWarmup,       ///< row accepted; the first window is still filling
  kRejected,     ///< row refused (wrong arity / unimputable); stream unchanged
  kQuarantined,  ///< row replaced by an imputed stand-in; no result emitted
};

/// Per-observation streaming result.
struct StreamingResult {
  float score = 0.0f;
  bool is_anomaly = false;
  /// True when any feature of this row was imputed (the score is computed
  /// from repaired data — trustworthy, but worth surfacing to operators).
  bool degraded = false;
  /// Features imputed in this row.
  std::int32_t imputed_values = 0;
};

/// Cumulative per-stream health (mirrors the `streaming.degraded.*`
/// counters, but counted with TFMAE_OBS off too).
struct StreamHealth {
  std::int64_t rows_scored = 0;
  std::int64_t rows_warmup = 0;
  std::int64_t rows_imputed = 0;      ///< rows accepted with >= 1 imputed value
  std::int64_t rows_quarantined = 0;
  std::int64_t rows_rejected = 0;
  std::int64_t values_imputed = 0;    ///< individual feature values repaired
};

/// Everything one stream's Absorb() decided, for the owner to act on.
struct AbsorbOutcome {
  PushStatus status = PushStatus::kWarmup;
  /// status == kScored only: the trailing window must be (re)scored before a
  /// result can be emitted for this row (window() holds the values; commit
  /// the tail score with CommitRescore()). False: reuse last_tail_score().
  bool rescore_due = false;
  /// rescore_due only: rows scored fresh since the previous rescore
  /// (min(pushes since rescore, window)); feeds TailScore().
  std::int64_t fresh = 0;
  /// Features imputed in this row (status kScored/kWarmup).
  std::int32_t imputed_values = 0;
  /// status == kRejected only: distinguishes a wrong-arity transport error
  /// from an unimputable row (both rejected, different operator messages).
  bool wrong_arity = false;
};

/// The compact per-stream state: sliding window, LOCF/staleness repair
/// state, Welford running statistics, hop cadence, and alert threshold.
/// Holds NO model and performs NO scoring — Absorb() classifies a row and
/// reports when the window must be rescored; the owner scores window() and
/// commits the result. One instance costs ApproxBytes() (~window*features
/// floats plus per-feature repair state), which is what lets a fleet server
/// keep thousands of streams against one shared model.
///
/// Not thread-safe; owners serialize access per stream.
class StreamState {
 public:
  explicit StreamState(StreamingOptions options);

  /// Classifies and absorbs one observation. Exactly the degraded-input
  /// contract documented on StreamingDetector::Push: the first push fixes
  /// the arity; wrong-arity and unimputable rows are rejected without
  /// consuming them; NaN/Inf values are LOCF-imputed; stale or out-of-range
  /// rows are quarantined (window slides on stand-in values, hop cadence
  /// does not advance). Bumps the `streaming.degraded.*` counters and
  /// health() exactly as StreamingDetector always has.
  AbsorbOutcome Absorb(const std::vector<float>& observation);

  /// Stores the tail score of the rescore Absorb() asked for. Must be
  /// called (with TailScore() of the fresh segment) before the next Absorb
  /// whenever rescore_due was true; results for in-between pushes reuse it.
  void CommitRescore(float tail_score) { last_tail_score_ = tail_score; }

  /// Max over the `fresh` newest of `window_scores` — the per-row score a
  /// rescore emits, so an anomaly anywhere inside the hop segment surfaces.
  static float TailScore(const std::vector<float>& window_scores,
                         std::int64_t window, std::int64_t fresh);

  /// The current trailing window, row-major [buffered_rows() x
  /// num_features()] (full `window` rows once warm-up completes).
  const std::vector<float>& window() const { return buffer_; }

  const StreamingOptions& options() const { return options_; }
  /// Arity fixed by the first push (-1 before it).
  std::int64_t num_features() const { return num_features_; }
  std::int64_t buffered_rows() const { return buffered_rows_; }
  /// Observations consumed so far (rejected rows excluded).
  std::int64_t total_pushed() const { return total_pushed_; }
  float last_tail_score() const { return last_tail_score_; }

  void set_threshold(float threshold) { threshold_ = threshold; }
  float threshold() const { return threshold_; }

  /// Disposition of the most recent Absorb (kWarmup before any).
  PushStatus last_push_status() const { return last_push_status_; }

  /// Cumulative degraded-input accounting.
  const StreamHealth& health() const { return health_; }

  /// Approximate resident bytes of this stream state (struct plus the
  /// capacity of every owned buffer). This is the per-stream marginal cost
  /// of a fleet server — exported as the `streaming.bytes_per_stream` gauge
  /// and reported by `tfmae_serve --stats` (ROADMAP item 1's "small
  /// per-stream footprint", made measurable).
  std::int64_t ApproxBytes() const;

  /// Serializes the complete mutable state (window buffer, hop cadence,
  /// LOCF/staleness repair state, Welford statistics, health, threshold) so
  /// that a decoded copy continues bitwise-identically to this stream.
  /// The StreamingOptions are NOT encoded — they are configuration, carried
  /// by the owner (serve::FleetSnapshot stores them once per fleet) and
  /// supplied to the constructor before DecodeFrom.
  void EncodeTo(util::ByteWriter* writer) const;

  /// Restores state written by EncodeTo into this instance. Returns false
  /// (state unspecified, stream must be discarded) on a truncated payload or
  /// any internal inconsistency: wrong buffer size for the recorded row
  /// count, repair arrays that disagree with the arity, an out-of-range
  /// enum. The options this instance was constructed with must match the
  /// encoding stream's (the owner validates that before calling).
  bool DecodeFrom(util::ByteReader* reader);

 private:
  /// Validates and repairs one row in place. Returns the status the row
  /// should be treated with (kScored for a clean/imputed row, kRejected /
  /// kQuarantined otherwise); fills `imputed` with the repaired count.
  PushStatus SanitizeRow(std::vector<float>* row, std::int32_t* imputed);

  StreamingOptions options_;
  std::int64_t num_features_ = -1;
  std::vector<float> buffer_;  // row-major sliding window, flattened
  std::int64_t buffered_rows_ = 0;
  std::int64_t total_pushed_ = 0;
  std::int64_t pushes_since_rescore_ = 0;
  bool scored_once_ = false;
  float last_tail_score_ = 0.0f;
  float threshold_ = 0.0f;

  // Degraded-input state.
  PushStatus last_push_status_ = PushStatus::kWarmup;
  StreamHealth health_;
  std::vector<float> last_good_;        // per-feature LOCF source
  std::vector<bool> has_last_good_;
  std::vector<std::int64_t> staleness_;  // consecutive imputations per feature
  // Running per-feature statistics over accepted values (Welford).
  std::int64_t stats_count_ = 0;
  std::vector<double> stats_mean_;
  std::vector<double> stats_m2_;
};

/// Streams observations through a fitted detector.
///
/// Typical use:
///   TfmaeDetector detector(config);
///   detector.Fit(history);
///   StreamingDetector stream(&detector, options);
///   stream.CalibrateThreshold(detector.Score(validation), 0.02);
///   for (each new observation row) {
///     if (auto r = stream.Push(row)) { if (r->is_anomaly) Alert(...); }
///   }
class StreamingDetector {
 public:
  /// `detector` must outlive this wrapper and must already be fitted.
  StreamingDetector(AnomalyDetector* detector, StreamingOptions options);

  /// Sets the alert threshold so that `anomaly_fraction` of the calibration
  /// scores exceed it.
  void CalibrateThreshold(const std::vector<float>& calibration_scores,
                          double anomaly_fraction);

  /// Sets an explicit alert threshold.
  void set_threshold(float threshold) { state_.set_threshold(threshold); }
  float threshold() const { return state_.threshold(); }

  /// Pushes one observation (num_features values; the first accepted push
  /// fixes the arity). Returns the score for this observation once enough
  /// history exists; std::nullopt during the initial fill and for rejected
  /// or quarantined rows — last_push_status() distinguishes the three. The
  /// trailing window is re-scored every `hop` pushes; pushes in between
  /// reuse the latest tail score (a documented approximation trading
  /// latency for compute — set hop=1 for exact per-step scoring).
  ///
  /// Warm-up semantics (hop > 1): the first `window - 1` accepted pushes
  /// return std::nullopt — there is no partial-window scoring. The push
  /// that completes the first window ALWAYS triggers a fresh rescore,
  /// regardless of where it falls in the hop cycle, so the first emitted
  /// result is never a stale placeholder; only the newest observation
  /// (fresh = 1) is scored fresh at that point. The hop cadence then
  /// restarts from this first scoreable push: the next rescore happens at
  /// push `window + hop`, and the `hop - 1` results in between repeat the
  /// first fresh tail score. See streaming_test.cc
  /// ("WarmUpFirstResultIsFreshWithHop") for the pinned behaviour.
  std::optional<StreamingResult> Push(const std::vector<float>& observation);

  /// Disposition of the most recent Push (kWarmup before any push).
  PushStatus last_push_status() const { return state_.last_push_status(); }

  /// Cumulative degraded-input accounting.
  const StreamHealth& health() const { return state_.health(); }

  /// Number of observations consumed so far (rejected rows excluded).
  std::int64_t total_pushed() const { return state_.total_pushed(); }

  /// Approximate resident bytes of the per-stream state (see
  /// StreamState::ApproxBytes).
  std::int64_t ApproxBytes() const { return state_.ApproxBytes(); }

 private:
  AnomalyDetector* detector_;
  StreamState state_;
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_STREAMING_H_
