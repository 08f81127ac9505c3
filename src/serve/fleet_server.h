// Fleet serving plane: one shared trained model, thousands of streams
// (docs/SERVING.md; ROADMAP item 1).
//
// A monitoring fleet has N-thousand entities emitting telemetry rows, but
// only ONE trained model. Wrapping each entity in its own StreamingDetector
// would work, yet leaves the real serving lever on the table: every rescore
// is an identical window geometry, so ready windows from DIFFERENT streams
// can be coalesced into one batched pass through the pre-planned executor
// (DESIGN.md §10) instead of N separate synchronous Score() calls.
//
// FleetServer owns:
//  * one read-only fitted TfmaeDetector (model + z-score normalizer) shared
//    by every stream — weights are never copied per stream;
//  * N compact core::StreamState instances (sliding window, LOCF repair,
//    quarantine statistics, hop cadence — ApproxBytes() each);
//  * a bounded ready-window queue with typed admission control: when the
//    queue is full, Push returns AdmitStatus::kOverloaded WITHOUT consuming
//    the row (the stream is unchanged; the caller retries after a Flush);
//  * a batcher that drains up to batch_max ready windows at a time and
//    scores them in one ParallelFor pass over per-lane InferencePlan
//    replicas (the PR 6 arena planner extended to a batch dimension: each
//    lane owns its own planned arena, so lanes replay concurrently with
//    zero shared mutable state).
//
// Determinism contract: a window's score depends only on its values — the
// plan replay is bitwise-identical to eager scoring at any thread count,
// and every lane self-verified against eager at capture. Therefore batched
// scores are bitwise-identical to what a sequential per-stream
// StreamingDetector (sharing the same fitted detector) would emit,
// regardless of batch composition, flush timing, ingest interleaving, or
// TFMAE_NUM_THREADS. tests/serve_test.cc pins this at 1/2/4 threads.
//
// Int8 serving (DESIGN.md §12): when the detector selects QuantMode::kInt8
// and carries a calibration spec, lanes capture quantized plans instead.
// Quantized capture is deterministic, so every int8 lane is identical and
// the contract holds with "sequential replay of the same int8 plan" as the
// baseline. All lanes always share one precision: if any int8 capture
// fails, the server demotes every lane to fp32 (sticky, counted in
// ServeStats::quant_fallbacks) rather than mix precisions across a batch.
#ifndef TFMAE_SERVE_FLEET_SERVER_H_
#define TFMAE_SERVE_FLEET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/drift.h"
#include "core/streaming.h"
#include "obs/metrics.h"
#include "serve/fleet_snapshot.h"

namespace tfmae::serve {

/// What admission control does when the ready-window queue is full
/// (docs/RESILIENCE.md, "Serving resilience"). Every policy is typed and
/// accounted (ServeStats `rows_overloaded`, `shed_*`); none silently drops
/// an ADMITTED window — kDropOldest surfaces the victim as a shed-marked
/// result.
enum class ShedPolicy {
  /// Refuse the new row with kOverloaded; the row is not consumed and the
  /// caller retries after a Flush. The pre-PR-9 behaviour.
  kRejectNew,
  /// Evict the oldest queued window to admit the new row. The victim is
  /// never scored; it is published through TakeResults with `shed = true`
  /// (score meaningless) so its absence is observable, and its stream's
  /// tail score simply stays stale until the next rescore. Favors freshness
  /// over completeness.
  kDropOldest,
  /// Before admission, the pushing thread self-services the backlog
  /// (bounded flush-and-wait up to shed_deadline_ms); if the queue is still
  /// full at the deadline the push fails kOverloaded and
  /// `shed_deadline_expired` counts it. Favors completeness over
  /// ingest latency.
  kBlockDeadline,
};

/// Stable lower-case name ("reject" / "drop_oldest" / "block"), as used by
/// TFMAE_SERVE_SHED_POLICY and `tfmae_serve --shed_policy`.
const char* ShedPolicyName(ShedPolicy policy);
/// Inverse of ShedPolicyName; nullopt for an unknown name.
std::optional<ShedPolicy> ParseShedPolicy(std::string_view name);

/// Fleet-server configuration.
struct FleetOptions {
  /// Per-stream windowing and degraded-input knobs. `streaming.window` must
  /// not exceed the detector's config().window so that every ready window
  /// maps to exactly one model window (the serving geometry).
  core::StreamingOptions streaming;
  /// Streams this server can ever hold (slots are preallocated so ingest
  /// never races a reallocation).
  std::int64_t max_streams = 65536;
  /// Ready-window queue bound. A Push whose queue is full is refused with
  /// kOverloaded before the row is consumed. Under concurrent ingest the
  /// depth can transiently exceed this by the number of in-flight pushes
  /// (admission is checked before the row is absorbed).
  std::int64_t queue_capacity = 4096;
  /// Max windows coalesced into one batched pass.
  std::int64_t batch_max = 64;
  /// Score a batch inline (from the pushing thread) whenever batch_max
  /// windows are ready. Off: windows accumulate until Flush()/Drain().
  bool auto_flush = true;
  /// Queue-full behaviour (see ShedPolicy).
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// kBlockDeadline only: longest a push may self-service the backlog
  /// before giving up with kOverloaded.
  std::int64_t shed_deadline_ms = 50;
  /// Consecutive shed/overload events before the server latches sticky
  /// degraded mode (one `serve.shed` ledger event + flight-recorder note;
  /// stats().degraded stays true for the rest of the run). <= 0 disables.
  std::int64_t degraded_after = 8;
  /// Snapshot directory for SnapshotNow()/automatic snapshots; empty
  /// disables snapshotting entirely.
  std::string snapshot_dir;
  /// Automatic crash-safety cadence: a snapshot is cut roughly every this
  /// many absorbed rows (checked after each push, outside all locks).
  /// 0 = manual SnapshotNow() only.
  std::int64_t snapshot_every = 0;
  /// Snapshots retained in snapshot_dir (older ones are pruned after every
  /// successful write). At least 2, so a torn newest file always leaves a
  /// valid predecessor to fall back to.
  int snapshot_keep = 4;
  /// Scoring watchdog: a batch in flight longer than this many ms is
  /// declared stalled — `watchdog_stalls` is bumped and, when the
  /// flight recorder is armed, a postmortem is dumped. 0 = no watchdog
  /// thread.
  std::int64_t watchdog_stall_ms = 0;

  // ---- Live observability (docs/OBSERVABILITY.md, "Live endpoints & SLOs") -
  /// Sampled full-span window timelines: every Nth scored window emits its
  /// four stage spans (queue/batch/score/result) into the chrome-trace
  /// capture while tracing is active (obs::StartTracing). 0 = no sampling.
  std::int64_t trace_sample = 0;
  /// Per-stream latency SLO: a window whose experienced latency (admission
  /// to result commit) exceeds this many ns counts as a violation against
  /// its stream's error budget. 0 disables the latency objective.
  std::int64_t slo_latency_ns = 0;
  /// Per-stream staleness SLO: a result answering a row more than this many
  /// rows behind its stream's current head counts as a violation. 0
  /// disables the staleness objective.
  std::int64_t slo_staleness_rows = 0;
  /// Sliding error-budget window, in scored windows per stream.
  std::int64_t slo_window = 256;
  /// Fraction of the SLO window allowed to violate before the stream's
  /// budget is exhausted: once a full window holds more than
  /// floor(slo_budget * slo_window) violations the stream latches exhausted
  /// (one `serve.slo` ledger event per episode) until it recovers.
  double slo_budget = 0.01;
  /// Online drift monitor cadence: compare the recent-score reservoir
  /// against the calibration score reference every this many scored
  /// windows. 0 disables; so does a detector without a score reference
  /// (core/drift.h) when none was set via SetDriftReference or
  /// CalibrateThreshold.
  std::int64_t drift_check_every = 0;
  /// Two-sample K-S distance above which a drift alarm fires
  /// (`serve.drift` ledger event + `drift_alarms` counter).
  double drift_threshold = 0.35;
  /// Recent-score reservoir capacity (a ring of the newest scores).
  std::int64_t drift_reservoir = 512;
};

/// Typed admission result of one Push.
enum class AdmitStatus {
  kAccepted,     ///< row absorbed; result available synchronously
  kQueued,       ///< row absorbed; window queued for batched scoring
  kWarmup,       ///< row absorbed; the first window is still filling
  kQuarantined,  ///< row replaced by an imputed stand-in; no score
  kRejectedRow,  ///< degraded-input reject (wrong arity / unimputable)
  kOverloaded,   ///< queue full: row NOT consumed, retry after Flush/Drain
  kUnknownStream,  ///< stream id was never OpenStream()ed
  kDraining,     ///< Drain() began: row NOT consumed, the server is shutting
                 ///< down and will never admit again
};

/// One asynchronous scoring result (delivered via TakeResults()).
struct ScoredWindow {
  std::int64_t stream = -1;
  /// Push index within the stream (StreamState::total_pushed() - 1 at
  /// enqueue time): which row this score answers.
  std::int64_t seq = -1;
  float score = 0.0f;
  bool is_anomaly = false;
  /// Rows scored fresh by this window (the hop segment).
  std::int64_t fresh = 0;
  bool degraded = false;
  std::int32_t imputed_values = 0;
  /// kDropOldest only: this window was evicted unscored to admit a newer
  /// row — `score`/`is_anomaly` are meaningless, the entry exists so the
  /// gap in (stream, seq) coverage is observable rather than silent.
  bool shed = false;
};

/// Cumulative serving counters, gauges and latency histograms. The server
/// keeps one copy of each quantity, counted with TFMAE_OBS on or off;
/// stats() reads it, and /statusz (ServeStatsJson) and the `serve.*`
/// families of /metrics (AppendServeMetrics) render that one read, each
/// quantity under its field name.
struct ServeStats {
  std::int64_t streams = 0;
  std::int64_t rows_pushed = 0;        ///< rows absorbed into a stream
  std::int64_t rows_overloaded = 0;    ///< pushes refused by admission control
  std::int64_t rows_rejected = 0;      ///< degraded-input rejects
  std::int64_t rows_quarantined = 0;
  std::int64_t rows_warmup = 0;
  std::int64_t windows_enqueued = 0;
  std::int64_t windows_scored = 0;
  std::int64_t eager_windows = 0;  ///< scored without a plan (capture failed)
  std::int64_t batches = 0;
  std::int64_t max_batch = 0;
  std::int64_t alerts = 0;
  std::int64_t plan_lanes = 0;         ///< captured plan replicas
  std::int64_t quant_lanes = 0;        ///< lanes replaying an int8 plan
  std::int64_t quant_fallbacks = 0;    ///< int8 requests served fp32 (lane
                                       ///< captures + detector-side)
  std::int64_t plan_arena_bytes = 0;   ///< fp32 activation arena, one lane
  std::int64_t quant_arena_bytes = 0;  ///< packed u8 arena, one int8 lane
  std::int64_t peak_queue_depth = 0;
  std::int64_t bytes_per_stream = 0;   ///< StreamState::ApproxBytes (stream 0)
  std::int64_t shed_dropped = 0;       ///< windows evicted by kDropOldest
  std::int64_t shed_deadline_expired = 0;  ///< kBlockDeadline give-ups
  bool degraded = false;               ///< sticky saturation latch
  std::int64_t snapshots_written = 0;
  std::int64_t snapshots_failed = 0;
  std::int64_t snapshot_index = 0;     ///< index of the newest snapshot cut
  std::int64_t watchdog_stalls = 0;
  double p50_window_ns = 0.0;  ///< score_window_hist quantiles
  double p95_window_ns = 0.0;
  double p99_window_ns = 0.0;
  // Stage-attributed timeline sums (ns), the sums of the stage histograms
  // below. Queue is each window's own admit->pop wait; batch/score/result
  // are the window's share of its batch's prepare/score/commit phases. By
  // construction
  //   stage_total_ns == stage_queue_ns + stage_batch_ns
  //                     + stage_score_ns + stage_result_ns.
  std::int64_t stage_queue_ns = 0;
  std::int64_t stage_batch_ns = 0;
  std::int64_t stage_score_ns = 0;
  std::int64_t stage_result_ns = 0;
  std::int64_t stage_total_ns = 0;
  double p50_e2e_ns = 0.0;  ///< e2e_hist quantiles
  double p95_e2e_ns = 0.0;
  double p99_e2e_ns = 0.0;
  std::int64_t slo_latency_breaches = 0;    ///< windows over the latency SLO
  std::int64_t slo_staleness_breaches = 0;  ///< windows over the staleness SLO
  std::int64_t slo_exhausted_streams = 0;   ///< streams currently out of budget
  std::int64_t slo_exhausted_episodes = 0;  ///< exhaustion latches ever fired
  std::int64_t drift_checks = 0;            ///< reservoir-vs-reference checks
  std::int64_t drift_alarms = 0;            ///< checks over drift_threshold
  double drift_ks = 0.0;  ///< latest K-S distance vs the calibration reference
  // Latency histograms, copied together in one latency_mu_ section: every
  // scored window adds one sample to the score-window and the five stage
  // histograms, so their counts agree in any one read (the e2e histogram
  // skips windows restored from a snapshot). /statusz and /metrics name a
  // stage histogram after its sum above (`stage_queue_ns`), the other two
  // `score_window_ns` and `e2e_ns`.
  obs::HistogramSnapshot score_window_hist;  ///< per-window score latency
  obs::HistogramSnapshot e2e_hist;  ///< experienced admit->commit latency
  obs::HistogramSnapshot stage_queue_hist;
  obs::HistogramSnapshot stage_batch_hist;
  obs::HistogramSnapshot stage_score_hist;
  obs::HistogramSnapshot stage_result_hist;
  obs::HistogramSnapshot stage_total_hist;
};

/// One-line JSON rendering of ServeStats — the payload of the /statusz
/// endpoint and of `tfmae_serve --stats_every` periodic lines. Keys are
/// the field names in a stable order; a histogram prints its sum.
std::string ServeStatsJson(const ServeStats& stats);

/// Adds the ServeStats counters, gauges and histograms to `snap` as
/// `serve.<name>`, under the names ServeStatsJson prints (rendered
/// `tfmae_serve_<name>`, counters with `_total`), and keeps the snapshot's
/// by-name order. The fractional fields (latency quantiles, drift_ks) stay
/// out: the histograms carry the quantiles, and a gauge holds an integer.
/// What the /metrics endpoint of `tfmae_serve` renders.
void AppendServeMetrics(const ServeStats& stats, obs::MetricsSnapshot* snap);

/// Serves thousands of concurrent streams from one process.
///
/// Typical use:
///   TfmaeDetector detector(config);
///   detector.Fit(history);
///   serve::FleetServer server(&detector, options);
///   server.CalibrateThreshold(detector.Score(validation), 0.02);
///   std::vector<std::int64_t> ids;
///   for (int s = 0; s < fleet_size; ++s) ids.push_back(server.OpenStream());
///   // ingest (any thread; per-stream order is the caller's):
///   while (server.Push(ids[s], row) == serve::AdmitStatus::kOverloaded)
///     server.Flush();
///   // alerts:
///   for (const auto& r : server.TakeResults()) if (r.is_anomaly) Alert(r);
///   // shutdown:
///   server.Drain();  // scores every admitted window; loses nothing
///
/// Thread-safety: Push may be called concurrently for DIFFERENT streams;
/// pushes to the same stream must be externally ordered (they are the
/// stream's timeline). Flush/Drain/TakeResults may run concurrently with
/// ingest. The detector must not be refit while serving.
class FleetServer {
 public:
  /// `detector` must be fitted and outlive the server; its model and
  /// normalizer are shared read-only across all streams.
  FleetServer(core::TfmaeDetector* detector, FleetOptions options);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Registers a new stream and returns its id (dense, starting at 0).
  /// Fails (returns -1) once max_streams slots are in use.
  std::int64_t OpenStream();
  std::int64_t num_streams() const {
    return num_streams_.load(std::memory_order_acquire);
  }

  /// Sets the alert threshold applied to every stream (current and future).
  void set_threshold(float threshold);
  /// Threshold from calibration scores, as StreamingDetector does. Also
  /// builds the drift monitor's reference distribution from the same scores
  /// when none was installed yet (the detector's score reference or
  /// SetDriftReference).
  void CalibrateThreshold(const std::vector<float>& calibration_scores,
                          double anomaly_fraction);

  /// Replaces the drift monitor's reference distribution (normally copied
  /// from the detector's persisted score reference at construction).
  void SetDriftReference(core::ScoreDistribution reference);

  /// Admits one observation row into `stream`. kQueued: the trailing window
  /// became due and was enqueued — its score arrives via TakeResults (tagged
  /// with this row's seq). kAccepted: no rescore due; when `result` is
  /// non-null it is filled with the stream's latest committed tail score
  /// (StreamingDetector's in-between-hop semantics). kOverloaded: the row
  /// was NOT consumed — the stream state is untouched and the same row
  /// should be re-pushed after a Flush.
  AdmitStatus Push(std::int64_t stream, const std::vector<float>& row,
                   core::StreamingResult* result = nullptr);

  /// Scores every queued window (in admission order, batch_max at a time).
  /// Returns the number of windows scored.
  std::int64_t Flush();

  /// Shutdown: latches the server closed — every Push from this point on
  /// returns kDraining WITHOUT consuming the row, so concurrent producers
  /// cannot livelock the drain by refilling the queue — then scores every
  /// already-admitted window and emits the ledger `serve` summary event
  /// (once, even if Drain is called again or by the destructor). No
  /// admitted window is ever dropped.
  std::int64_t Drain();

  /// True once Drain() has begun.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // ---- Crash safety (docs/RESILIENCE.md, "Serving resilience") -----------

  /// Cuts one snapshot of the complete serving state (every stream, the
  /// pending queue, the counters) and writes it to options_.snapshot_dir as
  /// "fleet_<index>.tfmae" (atomic tmp+rename; older files pruned to
  /// snapshot_keep). Ingest and scoring are blocked for the capture — the
  /// copy is taken at a batch boundary with every stream lock held, so the
  /// snapshot is a consistent cut: each stream's state and its queued
  /// windows agree. Returns false (reason in `*error`, previous snapshots
  /// untouched) on I/O failure or when no snapshot_dir is configured.
  /// Fault point: "serve.snapshot_write".
  bool SnapshotNow(std::string* error = nullptr);

  /// Rebuilds this server from a snapshot (see FindLatestValidFleetSnapshot
  /// for picking one). Must be called on a FRESH server (no OpenStream yet)
  /// whose detector and FleetOptions::streaming match the snapshot's; the
  /// detector's config CRC is verified against the snapshot's. Reopens
  /// every stream, decodes its state, re-enqueues the pending windows, and
  /// restores the counters, so that re-feeding each stream its rows from
  /// total_pushed(stream) on yields scores bitwise-identical to a run that
  /// was never interrupted (tests/serve_resilience_test.cc pins this at
  /// 1/2/4 threads). Returns false on any mismatch or corrupt stream
  /// payload; the server is then in an unspecified state and must be
  /// discarded.
  bool Restore(const FleetSnapshotData& snapshot, std::string* error = nullptr);

  /// Index of the newest snapshot cut (or restored from); 0 before any.
  std::int64_t snapshot_index() const {
    return static_cast<std::int64_t>(
        snapshot_index_.load(std::memory_order_relaxed));
  }

  /// True once the sticky degraded-mode latch fired (see
  /// FleetOptions::degraded_after).
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Completed results since the previous TakeResults, in scoring order
  /// (admission order; per-stream order always matches push order).
  std::vector<ScoredWindow> TakeResults();

  /// Per-stream degraded-input health (valid stream ids only).
  const core::StreamHealth& health(std::int64_t stream) const;
  /// Latest committed tail score of one stream.
  float last_score(std::int64_t stream) const;
  /// Rows consumed by one stream.
  std::int64_t total_pushed(std::int64_t stream) const;

  /// Approximate resident bytes of one stream's state.
  std::int64_t ApproxBytesPerStream() const;

  /// Cumulative serving counters and histograms (latency quantiles
  /// computed on call).
  ServeStats stats() const;

 private:
  struct Entry;
  struct Lane;
  struct Request;

  /// Drains and scores one batch; requires score_mu_. Returns windows
  /// scored (0 = queue empty).
  std::int64_t ScoreBatchLocked();
  /// One-batch flush from the ingest path (skips if a batch is in flight).
  void TryFlush();
  /// Ensures >= `want` capture-verified lanes; requires score_mu_. Returns
  /// false when capture fails (the batch falls back to eager scoring).
  bool EnsureLanesLocked(std::int64_t want, const core::MaskedWindow& example);
  /// Post-commit accounting of one scored batch: the score-window, stage
  /// and experienced-latency histograms, per-stream SLO budgets, the drift
  /// reservoir, and sampled chrome-trace spans. `batch` is the
  /// scored batch in admission order; the t_* stamps are the batch's phase
  /// boundaries on the local NowNs() clock.
  void AccountBatch(const std::vector<Request>& batch,
                    const std::vector<float>& scores, std::uint64_t t_pop,
                    std::uint64_t t_prep, std::uint64_t t_scored,
                    std::uint64_t t_done);
  /// Appends `scores` to the drift reservoir and runs a reference
  /// comparison when the cadence is due.
  void DriftObserve(const std::vector<float>& scores);
  /// Consistent cut of the whole serving state (locks score_mu_, open_mu_,
  /// every stream, then the queue — in that order).
  FleetSnapshotData CaptureSnapshot();
  /// Cuts a snapshot when snapshot_every rows have been absorbed since the
  /// last one. Called after each push, outside all locks.
  void MaybeAutoSnapshot();
  /// One shed/overload event: bumps the strike counter and latches sticky
  /// degraded mode at degraded_after consecutive strikes.
  void RecordShedStrike();
  /// Watchdog thread body: flags batches in flight > watchdog_stall_ms.
  void WatchdogLoop();

  core::TfmaeDetector* detector_;
  FleetOptions options_;
  float default_threshold_ = 0.0f;
  /// Crc32(ConfigToString(detector config)), stamped into every snapshot
  /// and verified on Restore.
  std::uint32_t config_crc_ = 0;

  // Stream slots are preallocated; OpenStream fills slot [num_streams_] and
  // then publishes the new count, so Push can index lock-free.
  std::vector<std::unique_ptr<Entry>> streams_;
  std::atomic<std::int64_t> num_streams_{0};
  std::mutex open_mu_;

  std::mutex queue_mu_;
  std::deque<Request> queue_;

  // One batched pass at a time: the process-wide ThreadPool supports a
  // single dispatching thread (util/thread_pool.h), so batch execution is
  // serialized here while ingest continues concurrently.
  std::mutex score_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Lane summary for stats(), which reads it without score_mu_.
  std::atomic<std::int64_t> plan_lanes_{0};
  std::atomic<std::int64_t> quant_lanes_{0};
  std::atomic<std::int64_t> plan_arena_bytes_{0};
  std::atomic<std::int64_t> quant_arena_bytes_{0};
  /// Phase-1 outputs, one per window of the largest batch so far; their
  /// buffers are reused batch after batch. Guarded by score_mu_.
  std::vector<core::MaskedWindow> prep_slots_;
  /// Sticky int8 demotion: set when a quantized lane capture fails, so the
  /// server never mixes int8 and fp32 lanes in one batch. Guarded by
  /// score_mu_; the counter is read by stats() without it.
  bool quant_capture_failed_ = false;
  std::atomic<std::int64_t> quant_lane_fallbacks_{0};

  std::mutex results_mu_;
  std::vector<ScoredWindow> results_;

  // Counters (atomics: bumped from ingest and scoring paths concurrently).
  std::atomic<std::int64_t> rows_pushed_{0};
  std::atomic<std::int64_t> rows_overloaded_{0};
  std::atomic<std::int64_t> rows_rejected_{0};
  std::atomic<std::int64_t> rows_quarantined_{0};
  std::atomic<std::int64_t> rows_warmup_{0};
  std::atomic<std::int64_t> windows_enqueued_{0};
  std::atomic<std::int64_t> windows_scored_{0};
  std::atomic<std::int64_t> eager_windows_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> max_batch_{0};
  std::atomic<std::int64_t> alerts_{0};
  std::atomic<std::int64_t> peak_queue_depth_{0};
  std::atomic<std::int64_t> shed_dropped_{0};
  std::atomic<std::int64_t> shed_deadline_expired_{0};
  std::atomic<std::int64_t> shed_strikes_{0};  ///< consecutive; reset on admit
  std::atomic<bool> degraded_{false};          ///< sticky saturation latch
  std::atomic<bool> draining_{false};          ///< set by Drain, never cleared

  // Snapshot plumbing. snapshot_index_ is the index of the newest snapshot
  // cut (the next one is index + 1); last_snapshot_rows_ is the rows_pushed_
  // watermark at which it was cut (MaybeAutoSnapshot's cadence source).
  std::atomic<std::uint64_t> snapshot_index_{0};
  std::atomic<std::int64_t> last_snapshot_rows_{0};
  std::atomic<std::int64_t> snapshots_written_{0};
  std::atomic<std::int64_t> snapshots_failed_{0};

  // Watchdog: ScoreBatchLocked publishes the wall-clock start of the batch
  // in flight (0 = idle); the watchdog thread flags a batch that stays in
  // flight past watchdog_stall_ms, once per batch.
  std::atomic<std::uint64_t> batch_start_ns_{0};
  std::atomic<std::int64_t> watchdog_stalls_{0};
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mu_

  // Latency histograms (see ServeStats), all written by AccountBatch in
  // one latency_mu_ section per batch, so a copy taken under the lock is a
  // consistent cut.
  mutable std::mutex latency_mu_;
  obs::HistogramSnapshot window_latency_ns_;
  obs::HistogramSnapshot e2e_latency_ns_;
  obs::HistogramSnapshot stage_queue_ns_;
  obs::HistogramSnapshot stage_batch_ns_;
  obs::HistogramSnapshot stage_score_ns_;
  obs::HistogramSnapshot stage_result_ns_;
  obs::HistogramSnapshot stage_total_ns_;
  bool drained_event_emitted_ = false;

  // Per-stream SLO accounting (rings live in each Entry, under entry.mu;
  // these are the fleet-wide totals).
  std::atomic<std::int64_t> slo_latency_breaches_{0};
  std::atomic<std::int64_t> slo_staleness_breaches_{0};
  std::atomic<std::int64_t> slo_exhausted_streams_{0};
  std::atomic<std::int64_t> slo_exhausted_episodes_{0};

  // Sampled-timeline cadence: one sample per trace_sample scored windows.
  std::atomic<std::uint64_t> trace_counter_{0};

  // Online drift monitor (guarded by drift_mu_ except the two counters,
  // which stats() reads without it).
  mutable std::mutex drift_mu_;
  core::ScoreDistribution drift_ref_;
  std::vector<float> drift_ring_;  ///< newest drift_reservoir scores
  std::size_t drift_pos_ = 0;
  std::uint64_t drift_seen_ = 0;
  std::int64_t drift_since_check_ = 0;
  double drift_ks_ = 0.0;  ///< latest K-S distance
  std::atomic<std::int64_t> drift_checks_{0};
  std::atomic<std::int64_t> drift_alarms_{0};
};

}  // namespace tfmae::serve

#endif  // TFMAE_SERVE_FLEET_SERVER_H_
