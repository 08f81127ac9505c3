#include "serve/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>

#include "core/config_io.h"
#include "core/inference_plan.h"
#include "eval/detection.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae::serve {
namespace {

// Per-(stream, seq) mask-RNG seed. The paper's CV/amplitude masks are pure
// functions of the window values and never draw from it; the random-masking
// ablation variants do, and this keeps their draws deterministic under ANY
// batch composition (a shared RNG would make mask draws depend on scoring
// order). splitmix64 finalizer.
std::uint64_t MixSeed(std::uint64_t seed, std::int64_t stream,
                      std::int64_t seq) {
  std::uint64_t x = seed +
                    0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1) +
                    0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(seq + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AtomicMax(std::atomic<std::int64_t>* target, std::int64_t value) {
  std::int64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew:
      return "reject";
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kBlockDeadline:
      return "block";
  }
  return "reject";
}

std::optional<ShedPolicy> ParseShedPolicy(std::string_view name) {
  if (name == "reject") return ShedPolicy::kRejectNew;
  if (name == "drop_oldest") return ShedPolicy::kDropOldest;
  if (name == "block") return ShedPolicy::kBlockDeadline;
  return std::nullopt;
}

/// One stream slot: the compact state plus its ingest lock. Pushes to
/// different streams contend only on the queue; pushes to the same stream
/// are the caller's timeline and serialize here.
struct FleetServer::Entry {
  /// `slo_window` > 0 allocates this stream's sliding error-budget ring
  /// (one byte per tracked window); 0 means no SLO objective is active and
  /// the ring stays empty.
  Entry(const core::StreamingOptions& options, std::int64_t slo_window)
      : state(options) {
    if (slo_window > 0) {
      slo_ring.assign(static_cast<std::size_t>(slo_window), 0);
    }
  }
  std::mutex mu;
  core::StreamState state;
  // Sliding SLO error budget (guarded by mu): violation bits of the last
  // slo_window scored windows, their running sum, and the sticky-per-
  // episode exhaustion latch (clears when the window recovers).
  std::vector<std::uint8_t> slo_ring;
  std::size_t slo_pos = 0;
  std::int64_t slo_filled = 0;
  std::int64_t slo_violations = 0;
  bool slo_exhausted = false;
};

/// One batch lane: a private InferencePlan replica with its own planned
/// arena plus a reusable output buffer. Lanes are the batch dimension of
/// the PR 6 arena planner — replay is stateful (one arena, rebindable
/// inputs), so concurrency comes from replicas, not sharing. Every lane
/// self-verified against the eager path at capture, so all lanes produce
/// bitwise-identical scores for the same window.
struct FleetServer::Lane {
  std::unique_ptr<core::InferencePlan> plan;
  bool quantized = false;  ///< plan compiled for the int8 path
  std::vector<float> out;
  std::atomic_flag busy = ATOMIC_FLAG_INIT;
};

/// One ready window awaiting a batched pass: a value snapshot (the stream's
/// buffer keeps sliding underneath) plus the metadata its result carries.
struct FleetServer::Request {
  std::int64_t stream = -1;
  std::int64_t seq = -1;
  std::int64_t fresh = 0;
  std::int32_t imputed = 0;
  std::vector<float> values;
  /// Stage clock: admission stamp (local NowNs()) for the queue-wait stage
  /// and the experienced-latency SLO. 0 for windows restored from a
  /// snapshot — their wait predates this process, so they count a zero
  /// queue stage and are exempt from the latency objective.
  std::uint64_t t_admit_ns = 0;
};

FleetServer::FleetServer(core::TfmaeDetector* detector, FleetOptions options)
    : detector_(detector), options_(options) {
  TFMAE_CHECK(detector != nullptr);
  TFMAE_CHECK_MSG(detector->fitted(),
                  "FleetServer requires a fitted detector");
  TFMAE_CHECK(options_.max_streams >= 1);
  TFMAE_CHECK(options_.queue_capacity >= 1);
  TFMAE_CHECK(options_.batch_max >= 1);
  // The serving geometry: one ready window == one model window, so the
  // batcher can coalesce windows from any mix of streams into one pass. A
  // larger stream window would make Score() slice sub-windows and average —
  // use the synchronous StreamingDetector for that shape.
  TFMAE_CHECK_MSG(options_.streaming.window <= detector->config().window,
                  "FleetServer: streaming.window must not exceed the "
                  "detector's config().window (one window per rescore)");
  TFMAE_CHECK(options_.snapshot_keep >= 2);
  streams_.resize(static_cast<std::size_t>(options_.max_streams));
  const std::string config_text = core::ConfigToString(detector_->config());
  config_crc_ = util::Crc32(config_text.data(), config_text.size());
  // Drift monitor reference: the detector's persisted calibration score
  // distribution when it carries one (its file's score_ref section);
  // otherwise CalibrateThreshold or SetDriftReference installs one later.
  if (detector_->has_score_reference()) {
    drift_ref_ = detector_->score_reference();
  }
  if (options_.drift_check_every > 0 && options_.drift_reservoir > 0) {
    drift_ring_.reserve(static_cast<std::size_t>(options_.drift_reservoir));
  }
  if (options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

FleetServer::~FleetServer() {
  // Shutdown contract: every admitted window is scored before the server
  // goes away, even if the owner forgot to Drain().
  Drain();
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

std::int64_t FleetServer::OpenStream() {
  std::lock_guard<std::mutex> lock(open_mu_);
  const std::int64_t n = num_streams_.load(std::memory_order_relaxed);
  if (n >= options_.max_streams) return -1;
  const bool slo_on =
      options_.slo_latency_ns > 0 || options_.slo_staleness_rows > 0;
  auto entry = std::make_unique<Entry>(options_.streaming,
                                       slo_on ? options_.slo_window : 0);
  entry->state.set_threshold(default_threshold_);
  streams_[static_cast<std::size_t>(n)] = std::move(entry);
  // Publish AFTER the slot is filled so lock-free readers of num_streams()
  // always find a constructed Entry behind any id they accept.
  num_streams_.store(n + 1, std::memory_order_release);
  return n;
}

void FleetServer::set_threshold(float threshold) {
  std::lock_guard<std::mutex> lock(open_mu_);
  default_threshold_ = threshold;
  const std::int64_t n = num_streams_.load(std::memory_order_acquire);
  for (std::int64_t s = 0; s < n; ++s) {
    Entry& entry = *streams_[static_cast<std::size_t>(s)];
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    entry.state.set_threshold(threshold);
  }
}

void FleetServer::CalibrateThreshold(
    const std::vector<float>& calibration_scores, double anomaly_fraction) {
  set_threshold(
      eval::QuantileThreshold(calibration_scores, anomaly_fraction));
  // The same calibration scores double as the drift monitor's reference
  // distribution when no persisted one was installed.
  std::lock_guard<std::mutex> lock(drift_mu_);
  if (drift_ref_.empty()) {
    drift_ref_ = core::BuildScoreDistribution(calibration_scores);
  }
}

void FleetServer::SetDriftReference(core::ScoreDistribution reference) {
  std::lock_guard<std::mutex> lock(drift_mu_);
  drift_ref_ = std::move(reference);
}

AdmitStatus FleetServer::Push(std::int64_t stream,
                              const std::vector<float>& row,
                              core::StreamingResult* result) {
  TFMAE_TRACE("serve.push");
  if (draining_.load(std::memory_order_acquire)) return AdmitStatus::kDraining;
  if (stream < 0 || stream >= num_streams()) return AdmitStatus::kUnknownStream;
  if (TFMAE_FAULT("serve.push")) {
    // Injected ingest failure, shaped exactly like an admission-control
    // refusal: the row is untouched and the caller's overload retry path
    // must absorb it.
    rows_overloaded_.fetch_add(1, std::memory_order_relaxed);
    RecordShedStrike();
    return AdmitStatus::kOverloaded;
  }
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];

  if (options_.shed_policy == ShedPolicy::kBlockDeadline) {
    // Self-service pre-wait: instead of bouncing kOverloaded back, the
    // pushing thread spends its own time scoring the backlog, up to the
    // deadline. Runs BEFORE entry.mu so a waiting push never blocks the
    // scoring path's result commits for this stream.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.shed_deadline_ms);
    for (;;) {
      {
        std::lock_guard<std::mutex> queue_lock(queue_mu_);
        if (static_cast<std::int64_t>(queue_.size()) <
            options_.queue_capacity) {
          break;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      TryFlush();  // no-op when another thread is mid-batch; then nap
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  bool queued = false;
  std::int64_t depth = 0;
  {
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    {
      // Admission control BEFORE the row is absorbed: an overloaded refusal
      // must leave the stream untouched so the caller can re-push the same
      // row after draining. Checked up front rather than at enqueue time —
      // once Absorb() has advanced the hop cadence there is no way to hand
      // the window back.
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      if (static_cast<std::int64_t>(queue_.size()) >=
          options_.queue_capacity) {
        if (options_.shed_policy == ShedPolicy::kDropOldest &&
            !queue_.empty()) {
          // Evict the oldest admitted window to make room for the new row,
          // and publish the victim as a shed-marked result so the coverage
          // gap is observable rather than silent.
          Request victim = std::move(queue_.front());
          queue_.pop_front();
          shed_dropped_.fetch_add(1, std::memory_order_relaxed);
          RecordShedStrike();
          ScoredWindow marker;
          marker.stream = victim.stream;
          marker.seq = victim.seq;
          marker.fresh = victim.fresh;
          marker.degraded = victim.imputed > 0;
          marker.imputed_values = victim.imputed;
          marker.shed = true;
          std::lock_guard<std::mutex> results_lock(results_mu_);
          results_.push_back(marker);
        } else {
          rows_overloaded_.fetch_add(1, std::memory_order_relaxed);
          if (options_.shed_policy == ShedPolicy::kBlockDeadline) {
            shed_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
          }
          RecordShedStrike();
          return AdmitStatus::kOverloaded;
        }
      }
    }
    // The row is being admitted: saturation is over for strike purposes
    // (the degraded latch, once set, stays).
    shed_strikes_.store(0, std::memory_order_relaxed);

    const core::AbsorbOutcome outcome = entry.state.Absorb(row);
    switch (outcome.status) {
      case core::PushStatus::kRejected:
        rows_rejected_.fetch_add(1, std::memory_order_relaxed);
        return AdmitStatus::kRejectedRow;
      case core::PushStatus::kQuarantined:
        rows_quarantined_.fetch_add(1, std::memory_order_relaxed);
        rows_pushed_.fetch_add(1, std::memory_order_relaxed);
        return AdmitStatus::kQuarantined;
      case core::PushStatus::kWarmup:
        rows_warmup_.fetch_add(1, std::memory_order_relaxed);
        rows_pushed_.fetch_add(1, std::memory_order_relaxed);
        return AdmitStatus::kWarmup;
      case core::PushStatus::kScored:
        break;
    }
    rows_pushed_.fetch_add(1, std::memory_order_relaxed);

    if (outcome.rescore_due) {
      Request request;
      request.stream = stream;
      request.seq = entry.state.total_pushed() - 1;
      request.fresh = outcome.fresh;
      request.imputed = outcome.imputed_values;
      request.values = entry.state.window();  // snapshot before it slides
      request.t_admit_ns = NowNs();           // stage clock: queue wait starts
      std::lock_guard<std::mutex> queue_lock(queue_mu_);
      queue_.push_back(std::move(request));
      depth = static_cast<std::int64_t>(queue_.size());
      AtomicMax(&peak_queue_depth_, depth);
      windows_enqueued_.fetch_add(1, std::memory_order_relaxed);
      queued = true;
    } else if (result != nullptr) {
      // In-between-hop push: StreamingDetector's documented semantics —
      // reuse the latest committed tail score.
      result->score = entry.state.last_tail_score();
      result->is_anomaly = result->score >= entry.state.threshold();
      result->degraded = outcome.imputed_values > 0;
      result->imputed_values = outcome.imputed_values;
    }
  }

  if (!queued) {
    MaybeAutoSnapshot();
    return AdmitStatus::kAccepted;
  }
  // Flush OUTSIDE every lock: the scoring path re-acquires stream locks to
  // commit results (lock order: score_mu_ -> entry.mu; the push path holds
  // entry.mu -> queue_mu_ — no cycle as long as nothing here holds a lock
  // while asking for score_mu_).
  if (options_.auto_flush && depth >= options_.batch_max) TryFlush();
  MaybeAutoSnapshot();
  return AdmitStatus::kQueued;
}

bool FleetServer::EnsureLanesLocked(std::int64_t want,
                                    const core::MaskedWindow& example) {
  want = std::max<std::int64_t>(want, 1);
  while (static_cast<std::int64_t>(lanes_.size()) < want) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  // Lane precision: int8 when the detector selected it and carries a
  // calibration spec, unless a quantized capture already failed (sticky —
  // mixed-precision lanes would make batch scores depend on lane
  // assignment, breaking the batch-composition invariance contract).
  const core::QuantSpec* spec = nullptr;
  if (!quant_capture_failed_ &&
      detector_->quant_mode() == core::TfmaeDetector::QuantMode::kInt8 &&
      detector_->has_quant_spec()) {
    spec = &detector_->quant_spec();
  }
  bool captured = true;
  for (std::int64_t i = 0; i < want; ++i) {
    Lane& lane = *lanes_[static_cast<std::size_t>(i)];
    const bool want_quant = spec != nullptr;
    if (lane.plan != nullptr && lane.plan->Matches(example) &&
        lane.quantized == want_quant) {
      continue;
    }
    lane.plan.reset();
    std::string error;
    lane.plan = core::InferencePlan::Capture(*detector_->model(), example,
                                             &lane.out, &error, spec);
    if (lane.plan == nullptr) {
      if (spec != nullptr) {
        // A failed int8 capture demotes the WHOLE server to fp32 lanes
        // (sticky): every already-captured int8 lane is dropped and this
        // loop restarts in fp32, so one batch never mixes precisions.
        quant_capture_failed_ = true;
        quant_lane_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        spec = nullptr;
        for (auto& l : lanes_) l->plan.reset();
        i = -1;
        continue;
      }
      // Capture failure never produces a wrong plan, only no plan: this
      // batch scores eagerly and the next batch retries the capture.
      captured = false;
      break;
    }
    lane.quantized = want_quant;
  }
  // The lane summary stats() reads, published here so that a stats() read
  // never waits for the batch in flight.
  std::int64_t plans = 0;
  std::int64_t quantized = 0;
  const core::InferencePlan* first = nullptr;
  for (const auto& l : lanes_) {
    if (l->plan == nullptr) continue;
    ++plans;
    if (l->quantized) ++quantized;
    if (first == nullptr) first = l->plan.get();
  }
  plan_lanes_.store(plans, std::memory_order_relaxed);
  quant_lanes_.store(quantized, std::memory_order_relaxed);
  plan_arena_bytes_.store(first != nullptr ? first->stats().arena_bytes : 0,
                          std::memory_order_relaxed);
  quant_arena_bytes_.store(
      first != nullptr ? first->stats().quant_arena_bytes : 0,
      std::memory_order_relaxed);
  return captured;
}

std::int64_t FleetServer::ScoreBatchLocked() {
  std::vector<Request> batch;
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    const std::int64_t take = std::min<std::int64_t>(
        options_.batch_max, static_cast<std::int64_t>(queue_.size()));
    batch.reserve(static_cast<std::size_t>(take));
    for (std::int64_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  if (batch.empty()) return 0;
  TFMAE_TRACE("serve.batch");
  const std::int64_t batch_size = static_cast<std::int64_t>(batch.size());
  const std::int64_t window = options_.streaming.window;
  const core::TfmaeModel& model = *detector_->model();
  const core::TfmaeConfig& config = detector_->config();
  const std::uint64_t t0 = NowNs();
  // Heartbeat for the watchdog: this batch is now in flight.
  batch_start_ns_.store(t0, std::memory_order_release);
  const bool fault_slow_batch = TFMAE_FAULT("serve.score");
  if (fault_slow_batch) {
    // Injected scoring stall: long enough for a tight watchdog deadline to
    // fire, and the batch is forced onto the eager path (bitwise-identical
    // scores by the plan's capture-time self-verification, so the
    // determinism contract is unaffected).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Phase 1 (parallel): each window runs the detector's window pipeline,
  // TfmaeDetector::PrepareRawWindow (global z-score, optional per-window
  // normalization, masks), the one Score() runs. It is most of a batch's
  // work at wide windows (55 Bluestein-length columns on MSL). The mask rng
  // is keyed by (stream, seq), so a window's masks do not depend on the
  // batch or thread that prepares it. Workers write into server-owned
  // slots, shaped here on the dispatch thread and reused batch after
  // batch: outputs allocated on workers would live on in their per-thread
  // malloc arenas and raise resident memory.
  if (prep_slots_.size() < batch.size()) {
    const std::size_t shaped = prep_slots_.size();
    prep_slots_.resize(batch.size());
    for (std::size_t i = shaped; i < prep_slots_.size(); ++i) {
      prep_slots_[i].Reserve(window, model.num_features());
    }
  }
  ParallelFor(0, batch_size, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t i = b0; i < b1; ++i) {
      const Request& request = batch[static_cast<std::size_t>(i)];
      Rng mask_rng(MixSeed(config.seed, request.stream, request.seq));
      detector_->PrepareRawWindow(request.values.data(), window, &mask_rng,
                                  &prep_slots_[static_cast<std::size_t>(i)]);
    }
  });
  const std::vector<core::MaskedWindow>& masked = prep_slots_;

  // Stage clock: phase 1's wall time (parallel normalization + masking) is
  // the batch-formation stage of every window in this batch.
  const std::uint64_t t_prep = NowNs();

  // Phase 2: score. Planned path: a second ParallelFor over the batch, each
  // chunk claiming a free lane — inside a chunk every kernel-level
  // ParallelFor runs inline at fixed chunk boundaries (util/thread_pool.h),
  // so each window's scores are bitwise those of a sequential replay.
  const std::int64_t lane_want = std::min<std::int64_t>(
      batch_size, ThreadPool::Instance().num_threads());
  const bool planned = !fault_slow_batch && detector_->inference_plan_enabled() &&
                       EnsureLanesLocked(lane_want, masked[0]);
  std::vector<float> scores(batch.size(), 0.0f);
  if (planned) {
    ParallelFor(0, batch_size, 1, [&](std::int64_t b0, std::int64_t b1) {
      // Claim a lane: at most min(batch, threads) chunks run concurrently
      // and that many verified lanes exist, so the scan always terminates.
      Lane* lane = nullptr;
      for (std::size_t l = 0;; l = (l + 1) % static_cast<std::size_t>(lane_want)) {
        if (!lanes_[l]->busy.test_and_set(std::memory_order_acquire)) {
          lane = lanes_[l].get();
          break;
        }
      }
      for (std::int64_t i = b0; i < b1; ++i) {
        const Request& request = batch[static_cast<std::size_t>(i)];
        lane->plan->Score(masked[static_cast<std::size_t>(i)], &lane->out);
        scores[static_cast<std::size_t>(i)] =
            core::StreamState::TailScore(lane->out, window, request.fresh);
      }
      lane->busy.clear(std::memory_order_release);
    });
  } else {
    for (std::int64_t i = 0; i < batch_size; ++i) {
      const std::vector<float> out =
          model.ScoreWindow(masked[static_cast<std::size_t>(i)]);
      scores[static_cast<std::size_t>(i)] = core::StreamState::TailScore(
          out, window, batch[static_cast<std::size_t>(i)].fresh);
    }
    eager_windows_.fetch_add(batch_size, std::memory_order_relaxed);
  }
  const std::uint64_t t_scored = NowNs();

  // Phase 3 (dispatch thread, serial, admission order): commit tail scores
  // and publish results.
  std::vector<ScoredWindow> done(batch.size());
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const Request& request = batch[static_cast<std::size_t>(i)];
    ScoredWindow& result = done[static_cast<std::size_t>(i)];
    result.stream = request.stream;
    result.seq = request.seq;
    result.score = scores[static_cast<std::size_t>(i)];
    result.fresh = request.fresh;
    result.degraded = request.imputed > 0;
    result.imputed_values = request.imputed;
    Entry& entry = *streams_[static_cast<std::size_t>(request.stream)];
    {
      std::lock_guard<std::mutex> stream_lock(entry.mu);
      entry.state.CommitRescore(result.score);
      result.is_anomaly = result.score >= entry.state.threshold();
    }
    if (result.is_anomaly) alerts_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> results_lock(results_mu_);
    results_.insert(results_.end(), done.begin(), done.end());
  }
  windows_scored_.fetch_add(batch_size, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  AtomicMax(&max_batch_, batch_size);
  // Stage clock: results are published — each window's timeline is
  // complete. The accounting pass (latency histograms, SLO budgets, drift
  // reservoir, sampled trace spans) runs while score_mu_ is still held, so
  // it never interleaves with the next batch's stamps.
  const std::uint64_t t_done = NowNs();
  AccountBatch(batch, scores, t0, t_prep, t_scored, t_done);
  batch_start_ns_.store(0, std::memory_order_release);  // heartbeat: idle
  return batch_size;
}

void FleetServer::AccountBatch(const std::vector<Request>& batch,
                               const std::vector<float>& scores,
                               std::uint64_t t_pop, std::uint64_t t_prep,
                               std::uint64_t t_scored, std::uint64_t t_done) {
  const std::uint64_t n = static_cast<std::uint64_t>(batch.size());
  if (n == 0) return;
  // Post-pop phases are batch-wide work; each window carries an equal
  // share, so the shares add back up to the batch's wall time (modulo
  // integer division) and total == queue + batch + score + result holds
  // exactly per window — the reconciliation invariant live_smoke.py and
  // serve_obs_test.cc pin.
  const std::uint64_t batch_share = (t_prep - t_pop) / n;
  const std::uint64_t score_share = (t_scored - t_prep) / n;
  const std::uint64_t result_share = (t_done - t_scored) / n;

  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    // The score-window latency spans pop->scored, the batch and score
    // stages; live_smoke.py reconciles the two within 10%.
    window_latency_ns_.Record((t_scored - t_pop) / n, n);
    stage_batch_ns_.Record(batch_share, n);
    stage_score_ns_.Record(score_share, n);
    stage_result_ns_.Record(result_share, n);
    for (const Request& request : batch) {
      // A restored window (t_admit_ns == 0) waited in a previous process;
      // its queue stage is unknowable and counts as zero.
      const std::uint64_t queue_ns =
          (request.t_admit_ns != 0 && t_pop > request.t_admit_ns)
              ? t_pop - request.t_admit_ns
              : 0;
      stage_queue_ns_.Record(queue_ns);
      stage_total_ns_.Record(queue_ns + batch_share + score_share +
                             result_share);
      if (request.t_admit_ns != 0 && t_done > request.t_admit_ns) {
        e2e_latency_ns_.Record(t_done - request.t_admit_ns);
      }
    }
  }

  // Per-stream SLO budgets. Experienced latency is admission to result
  // commit (t_done - t_admit) — deliberately the wall latency a consumer
  // sees, not the amortized stage total.
  if (options_.slo_latency_ns > 0 || options_.slo_staleness_rows > 0) {
    const std::int64_t allowed = static_cast<std::int64_t>(
        options_.slo_budget * static_cast<double>(options_.slo_window));
    std::int64_t latency_breaches = 0;
    std::int64_t staleness_breaches = 0;
    struct Episode {
      std::int64_t stream;
      std::int64_t violations;
    };
    std::vector<Episode> episodes;
    for (const Request& request : batch) {
      bool violation = false;
      if (options_.slo_latency_ns > 0 && request.t_admit_ns != 0 &&
          t_done > request.t_admit_ns &&
          static_cast<std::int64_t>(t_done - request.t_admit_ns) >
              options_.slo_latency_ns) {
        ++latency_breaches;
        violation = true;
      }
      Entry& entry = *streams_[static_cast<std::size_t>(request.stream)];
      std::lock_guard<std::mutex> stream_lock(entry.mu);
      if (options_.slo_staleness_rows > 0 &&
          entry.state.total_pushed() - 1 - request.seq >
              options_.slo_staleness_rows) {
        ++staleness_breaches;
        violation = true;
      }
      if (entry.slo_ring.empty()) continue;
      const std::int64_t window =
          static_cast<std::int64_t>(entry.slo_ring.size());
      if (entry.slo_filled == window) {
        entry.slo_violations -= entry.slo_ring[entry.slo_pos];
      } else {
        ++entry.slo_filled;
      }
      entry.slo_ring[entry.slo_pos] = violation ? 1 : 0;
      entry.slo_violations += violation ? 1 : 0;
      entry.slo_pos = (entry.slo_pos + 1) % entry.slo_ring.size();
      if (!entry.slo_exhausted && entry.slo_filled == window &&
          entry.slo_violations > allowed) {
        entry.slo_exhausted = true;
        slo_exhausted_streams_.fetch_add(1, std::memory_order_relaxed);
        episodes.push_back(Episode{request.stream, entry.slo_violations});
      } else if (entry.slo_exhausted && entry.slo_violations <= allowed) {
        // Recovery: the sliding window slid back under budget — the latch
        // clears so a later regression counts as a new episode.
        entry.slo_exhausted = false;
        slo_exhausted_streams_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    slo_latency_breaches_.fetch_add(latency_breaches,
                                    std::memory_order_relaxed);
    slo_staleness_breaches_.fetch_add(staleness_breaches,
                                      std::memory_order_relaxed);
    for (const Episode& episode : episodes) {
      slo_exhausted_episodes_.fetch_add(1, std::memory_order_relaxed);
      if (obs::LedgerActive()) {
        // Which stream exhausts, and when, depends entirely on load and
        // scheduling; every varying field is t_-tagged.
        obs::Ledger::Instance().Event(
            "serve.slo",
            {{"window", std::to_string(options_.slo_window)},
             {"budget", std::to_string(options_.slo_budget)},
             {"t_stream", std::to_string(episode.stream)},
             {"t_violations", std::to_string(episode.violations)}});
      }
    }
  }

  DriftObserve(scores);

  // Sampled full-span timelines: every trace_sample'th scored window
  // contributes its four real wall intervals to the chrome-trace capture.
  // Spans use actual phase boundaries (not amortized shares), so the
  // rendered timeline shows when the window truly sat where.
  if (options_.trace_sample > 0 && obs::TracingActive()) {
    static obs::TraceSite* const kQueueSite =
        obs::GetTraceSite("serve.stage.queue");
    static obs::TraceSite* const kBatchSite =
        obs::GetTraceSite("serve.stage.batch");
    static obs::TraceSite* const kScoreSite =
        obs::GetTraceSite("serve.stage.score");
    static obs::TraceSite* const kResultSite =
        obs::GetTraceSite("serve.stage.result");
    // The stage clock is epoch-based steady time; trace timestamps share
    // obs::NowNs()'s process origin. Both tick the same steady clock, so
    // one offset converts.
    const std::uint64_t offset = NowNs() - obs::NowNs();
    for (const Request& request : batch) {
      const std::uint64_t tick =
          trace_counter_.fetch_add(1, std::memory_order_relaxed);
      if (tick % static_cast<std::uint64_t>(options_.trace_sample) != 0) {
        continue;
      }
      const std::uint64_t admit =
          (request.t_admit_ns != 0 && request.t_admit_ns < t_pop)
              ? request.t_admit_ns
              : t_pop;
      if (admit >= offset) {
        obs::AppendTraceEvent(kQueueSite, admit - offset, t_pop - admit);
      }
      obs::AppendTraceEvent(kBatchSite, t_pop - offset, t_prep - t_pop);
      obs::AppendTraceEvent(kScoreSite, t_prep - offset, t_scored - t_prep);
      obs::AppendTraceEvent(kResultSite, t_scored - offset, t_done - t_scored);
    }
  }
}

void FleetServer::DriftObserve(const std::vector<float>& scores) {
  if (options_.drift_check_every <= 0 || options_.drift_reservoir <= 0) return;
  double ks = 0.0;
  std::size_t samples = 0;
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    if (drift_ref_.empty()) return;
    const std::size_t cap =
        static_cast<std::size_t>(options_.drift_reservoir);
    for (float s : scores) {
      if (drift_ring_.size() < cap) {
        drift_ring_.push_back(s);
      } else {
        drift_ring_[drift_pos_] = s;
      }
      drift_pos_ = (drift_pos_ + 1) % cap;
      ++drift_seen_;
      ++drift_since_check_;
    }
    if (drift_since_check_ < options_.drift_check_every) return;
    // A near-empty reservoir would make the K-S distance reservoir noise,
    // not evidence; wait for a useful sample.
    if (drift_ring_.size() < std::min<std::size_t>(cap, 32)) return;
    drift_since_check_ = 0;
    // Bin the reservoir on the reference's own edges, then compare CDFs.
    std::vector<std::uint64_t> recent(drift_ref_.buckets.size(), 0);
    for (float s : drift_ring_) {
      ++recent[static_cast<std::size_t>(core::ScoreDistributionBin(
          drift_ref_, static_cast<double>(s)))];
    }
    ks = obs::KsDistance(drift_ref_.lo, drift_ref_.hi, drift_ref_.buckets,
                         drift_ref_.lo, drift_ref_.hi, recent);
    drift_ks_ = ks;
    samples = drift_ring_.size();
  }
  drift_checks_.fetch_add(1, std::memory_order_relaxed);
  if (ks <= options_.drift_threshold) return;
  drift_alarms_.fetch_add(1, std::memory_order_relaxed);
  if (obs::FlightRecorderActive()) {
    obs::FlightRecorder::Instance().Note(
        "drift", "online score drift: ks=" + std::to_string(ks) +
                     " over threshold " +
                     std::to_string(options_.drift_threshold));
  }
  if (obs::LedgerActive()) {
    // The reservoir's contents depend on scoring order across streams, so
    // the measured distance is schedule-dependent: t_-tagged.
    obs::Ledger::Instance().Event(
        "serve.drift",
        {{"threshold", std::to_string(options_.drift_threshold)},
         {"reservoir", std::to_string(options_.drift_reservoir)},
         {"t_ks", std::to_string(ks)},
         {"t_samples", std::to_string(samples)}});
  }
}

void FleetServer::TryFlush() {
  // One batch, only if no other thread is mid-batch: the process-wide
  // ThreadPool supports one dispatching thread at a time, and a skipped
  // flush is picked up by the next over-threshold push or explicit Flush.
  if (!score_mu_.try_lock()) return;
  ScoreBatchLocked();
  score_mu_.unlock();
}

std::int64_t FleetServer::Flush() {
  std::int64_t total = 0;
  for (;;) {
    std::lock_guard<std::mutex> lock(score_mu_);
    const std::int64_t n = ScoreBatchLocked();
    if (n == 0) break;
    total += n;
  }
  return total;
}

std::int64_t FleetServer::Drain() {
  // Latch the server closed FIRST: once a producer observes the queue
  // emptying it must not be able to refill it, or 4 fast producers can
  // livelock shutdown forever. Pushes racing the latch are fine — whatever
  // they admitted is scored by the flush below.
  draining_.store(true, std::memory_order_release);
  const std::int64_t scored = Flush();
  bool first_drain = false;
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    first_drain = !drained_event_emitted_;
    drained_event_emitted_ = true;
  }
  if (first_drain && obs::LedgerActive()) {
    const ServeStats s = stats();
    obs::Ledger::Instance().Event(
        "serve",
        {{"streams", std::to_string(s.streams)},
         {"rows", std::to_string(s.rows_pushed)},
         {"windows", std::to_string(s.windows_scored)},
         {"alerts", std::to_string(s.alerts)},
         {"rejected", std::to_string(s.rows_rejected)},
         {"quarantined", std::to_string(s.rows_quarantined)},
         {"bytes_per_stream", std::to_string(s.bytes_per_stream)},
         {"precision", obs::JsonQuote(s.quant_lanes > 0 ? "int8" : "fp32")},
         {"quant_fallbacks", std::to_string(s.quant_fallbacks)},
         // Batching composition depends on flush timing (and overload on
         // ingest timing): t_-prefixed so the canonical event stream stays
         // invariant across thread counts and schedules.
         {"t_batches", std::to_string(s.batches)},
         {"t_max_batch", std::to_string(s.max_batch)},
         {"t_overloaded", std::to_string(s.rows_overloaded)}});
  }
  return scored;
}

void FleetServer::RecordShedStrike() {
  const std::int64_t strikes =
      shed_strikes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.degraded_after <= 0 || strikes < options_.degraded_after) return;
  if (degraded_.exchange(true, std::memory_order_relaxed)) return;
  // First time over the threshold: latch sticky degraded mode, exactly once.
  if (obs::FlightRecorderActive()) {
    obs::FlightRecorder::Instance().Note(
        "shed", std::string("fleet server entered degraded mode (policy=") +
                    ShedPolicyName(options_.shed_policy) + ", strikes=" +
                    std::to_string(strikes) + ")");
  }
  if (obs::LedgerActive()) {
    // Load-dependent by nature (it only exists when ingest outruns scoring),
    // so every field is timing-tagged and the event is excluded from
    // cross-thread-count canonical-stream comparisons.
    obs::Ledger::Instance().Event(
        "serve.shed",
        {{"policy", obs::JsonQuote(ShedPolicyName(options_.shed_policy))},
         {"t_strikes", std::to_string(strikes)},
         {"t_queue_capacity", std::to_string(options_.queue_capacity)}});
  }
}

void FleetServer::WatchdogLoop() {
  const auto poll = std::chrono::milliseconds(
      std::max<std::int64_t>(1, options_.watchdog_stall_ms / 4));
  const std::uint64_t stall_ns =
      static_cast<std::uint64_t>(options_.watchdog_stall_ms) * 1000000ull;
  std::uint64_t last_flagged = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const std::uint64_t start = batch_start_ns_.load(std::memory_order_acquire);
    if (start == 0) continue;  // no batch in flight
    const std::uint64_t now = NowNs();
    if (now - start < stall_ns) continue;
    if (start == last_flagged) continue;  // one postmortem per stalled batch
    last_flagged = start;
    watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t stalled_ms =
        static_cast<std::int64_t>((now - start) / 1000000ull);
    Log(LogLevel::kWarning,
        "serve watchdog: batch in flight for " + std::to_string(stalled_ms) +
            " ms (deadline " + std::to_string(options_.watchdog_stall_ms) +
            " ms)");
    if (obs::FlightRecorderActive()) {
      obs::FlightRecorder::Instance().Note(
          "watchdog", "scoring batch stalled " + std::to_string(stalled_ms) +
                          " ms (deadline " +
                          std::to_string(options_.watchdog_stall_ms) + " ms)");
      obs::FlightRecorder::Instance().Dump("serve.watchdog.stall");
    }
  }
}

FleetSnapshotData FleetServer::CaptureSnapshot() {
  FleetSnapshotData data;
  data.config_crc = config_crc_;
  data.streaming = options_.streaming;

  // A consistent cut needs three guarantees at once: no batch is in flight
  // (popped-but-uncommitted requests would be in neither the queue nor any
  // stream), no push is mid-absorb (a row absorbed but its window not yet
  // enqueued would make state and queue disagree), and the stream count is
  // stable. score_mu_ gives the first, holding EVERY stream lock gives the
  // second, open_mu_ the third. Lock order: score_mu_ -> open_mu_ ->
  // entry.mu (ascending) -> queue_mu_, consistent with every other path
  // (pushes take entry.mu -> queue_mu_; set_threshold open_mu_ -> entry.mu;
  // nothing takes score_mu_ while holding any of these).
  std::lock_guard<std::mutex> score_lock(score_mu_);
  std::lock_guard<std::mutex> open_lock(open_mu_);
  const std::int64_t n = num_streams_.load(std::memory_order_acquire);
  for (std::int64_t s = 0; s < n; ++s) {
    streams_[static_cast<std::size_t>(s)]->mu.lock();
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    data.pending.reserve(queue_.size());
    for (const Request& r : queue_) {
      PendingWindow p;
      p.stream = r.stream;
      p.seq = r.seq;
      p.fresh = r.fresh;
      p.imputed = r.imputed;
      p.values = r.values;
      data.pending.push_back(std::move(p));
    }
  }
  data.index = snapshot_index_.fetch_add(1, std::memory_order_relaxed) + 1;
  data.threshold = default_threshold_;
  data.counters.rows_pushed = rows_pushed_.load(std::memory_order_relaxed);
  data.counters.rows_overloaded =
      rows_overloaded_.load(std::memory_order_relaxed);
  data.counters.rows_rejected = rows_rejected_.load(std::memory_order_relaxed);
  data.counters.rows_quarantined =
      rows_quarantined_.load(std::memory_order_relaxed);
  data.counters.rows_warmup = rows_warmup_.load(std::memory_order_relaxed);
  data.counters.windows_enqueued =
      windows_enqueued_.load(std::memory_order_relaxed);
  data.counters.windows_scored =
      windows_scored_.load(std::memory_order_relaxed);
  data.counters.alerts = alerts_.load(std::memory_order_relaxed);
  data.counters.shed_dropped = shed_dropped_.load(std::memory_order_relaxed);
  data.counters.shed_deadline_expired =
      shed_deadline_expired_.load(std::memory_order_relaxed);
  data.stream_states.resize(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    util::ByteWriter writer;
    streams_[static_cast<std::size_t>(s)]->state.EncodeTo(&writer);
    data.stream_states[static_cast<std::size_t>(s)] = writer.Take();
  }
  for (std::int64_t s = n - 1; s >= 0; --s) {
    streams_[static_cast<std::size_t>(s)]->mu.unlock();
  }
  return data;
}

bool FleetServer::SnapshotNow(std::string* error) {
  if (options_.snapshot_dir.empty()) {
    if (error != nullptr) *error = "no snapshot_dir configured";
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.snapshot_dir, ec);
  const FleetSnapshotData data = CaptureSnapshot();
  last_snapshot_rows_.store(data.counters.rows_pushed,
                            std::memory_order_relaxed);
  const std::string path =
      FleetSnapshotPath(options_.snapshot_dir, data.index);
  // File I/O runs outside every lock: the capture above copied what it
  // needs, so ingest and scoring resume while the container is written.
  std::string write_error;
  if (!WriteFleetSnapshot(data, path, &write_error)) {
    snapshots_failed_.fetch_add(1, std::memory_order_relaxed);
    Log(LogLevel::kWarning,
        "fleet snapshot write failed (" + write_error +
            "); serving continues on the previous snapshot");
    if (obs::FlightRecorderActive()) {
      obs::FlightRecorder::Instance().Note("snapshot",
                                           "write failed: " + write_error);
    }
    if (error != nullptr) *error = write_error;
    return false;
  }
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  PruneFleetSnapshots(options_.snapshot_dir, options_.snapshot_keep);
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().Event(
        "serve.snapshot",
        {{"file", obs::JsonQuote(path)},
         {"streams", std::to_string(data.stream_states.size())},
         {"rows", std::to_string(data.counters.rows_pushed)},
         // Pending depth and snapshot cadence depend on flush/ingest timing.
         {"t_index", std::to_string(data.index)},
         {"t_pending", std::to_string(data.pending.size())}});
  }
  return true;
}

void FleetServer::MaybeAutoSnapshot() {
  if (options_.snapshot_every <= 0 || options_.snapshot_dir.empty()) return;
  const std::int64_t rows = rows_pushed_.load(std::memory_order_relaxed);
  std::int64_t last = last_snapshot_rows_.load(std::memory_order_relaxed);
  if (rows - last < options_.snapshot_every) return;
  // One pusher wins the CAS and cuts the snapshot; the rest carry on.
  if (!last_snapshot_rows_.compare_exchange_strong(last, rows,
                                                   std::memory_order_relaxed)) {
    return;
  }
  SnapshotNow();
}

bool FleetServer::Restore(const FleetSnapshotData& snapshot,
                          std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (num_streams() != 0) {
    return fail("Restore requires a fresh server (no streams opened)");
  }
  if (snapshot.config_crc != config_crc_) {
    return fail("snapshot config CRC does not match this detector's config");
  }
  const core::StreamingOptions& a = snapshot.streaming;
  const core::StreamingOptions& b = options_.streaming;
  if (a.window != b.window || a.hop != b.hop ||
      a.impute_staleness_cap != b.impute_staleness_cap ||
      a.quarantine_sigma != b.quarantine_sigma ||
      a.quarantine_warmup != b.quarantine_warmup) {
    return fail("snapshot streaming options do not match this server's");
  }
  const std::int64_t n =
      static_cast<std::int64_t>(snapshot.stream_states.size());
  if (n > options_.max_streams) {
    return fail("snapshot holds more streams than max_streams");
  }
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    default_threshold_ = snapshot.threshold;
  }
  for (std::int64_t s = 0; s < n; ++s) {
    if (OpenStream() != s) return fail("stream slot allocation failed");
    Entry& entry = *streams_[static_cast<std::size_t>(s)];
    util::ByteReader reader(snapshot.stream_states[static_cast<std::size_t>(s)]);
    std::lock_guard<std::mutex> stream_lock(entry.mu);
    if (!entry.state.DecodeFrom(&reader) || !reader.AtEnd()) {
      return fail("stream " + std::to_string(s) + " payload is corrupt");
    }
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mu_);
    for (const PendingWindow& p : snapshot.pending) {
      if (p.stream < 0 || p.stream >= n || p.seq < 0) {
        return fail("pending window references an invalid stream");
      }
      const Entry& entry = *streams_[static_cast<std::size_t>(p.stream)];
      const std::size_t expect =
          static_cast<std::size_t>(options_.streaming.window) *
          static_cast<std::size_t>(std::max<std::int64_t>(
              entry.state.num_features(), 0));
      if (p.values.size() != expect) {
        return fail("pending window has the wrong geometry");
      }
      Request request;
      request.stream = p.stream;
      request.seq = p.seq;
      request.fresh = p.fresh;
      request.imputed = p.imputed;
      request.values = p.values;
      queue_.push_back(std::move(request));
    }
  }
  rows_pushed_.store(snapshot.counters.rows_pushed, std::memory_order_relaxed);
  rows_overloaded_.store(snapshot.counters.rows_overloaded,
                         std::memory_order_relaxed);
  rows_rejected_.store(snapshot.counters.rows_rejected,
                       std::memory_order_relaxed);
  rows_quarantined_.store(snapshot.counters.rows_quarantined,
                          std::memory_order_relaxed);
  rows_warmup_.store(snapshot.counters.rows_warmup, std::memory_order_relaxed);
  windows_enqueued_.store(snapshot.counters.windows_enqueued,
                          std::memory_order_relaxed);
  windows_scored_.store(snapshot.counters.windows_scored,
                        std::memory_order_relaxed);
  alerts_.store(snapshot.counters.alerts, std::memory_order_relaxed);
  shed_dropped_.store(snapshot.counters.shed_dropped,
                      std::memory_order_relaxed);
  shed_deadline_expired_.store(snapshot.counters.shed_deadline_expired,
                               std::memory_order_relaxed);
  snapshot_index_.store(snapshot.index, std::memory_order_relaxed);
  last_snapshot_rows_.store(snapshot.counters.rows_pushed,
                            std::memory_order_relaxed);
  if (obs::LedgerActive()) {
    obs::Ledger::Instance().Event(
        "serve.restore",
        {{"streams", std::to_string(n)},
         {"rows", std::to_string(snapshot.counters.rows_pushed)},
         {"t_index", std::to_string(snapshot.index)},
         {"t_pending", std::to_string(snapshot.pending.size())}});
  }
  return true;
}

std::vector<ScoredWindow> FleetServer::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<ScoredWindow> out;
  out.swap(results_);
  return out;
}

const core::StreamHealth& FleetServer::health(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  return streams_[static_cast<std::size_t>(stream)]->state.health();
}

float FleetServer::last_score(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.last_tail_score();
}

std::int64_t FleetServer::total_pushed(std::int64_t stream) const {
  TFMAE_CHECK(stream >= 0 && stream < num_streams());
  Entry& entry = *streams_[static_cast<std::size_t>(stream)];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.total_pushed();
}

std::int64_t FleetServer::ApproxBytesPerStream() const {
  if (num_streams() == 0) return 0;
  Entry& entry = *streams_[0];
  std::lock_guard<std::mutex> lock(entry.mu);
  return entry.state.ApproxBytes();
}

ServeStats FleetServer::stats() const {
  ServeStats s;
  s.streams = num_streams();
  s.rows_pushed = rows_pushed_.load(std::memory_order_relaxed);
  s.rows_overloaded = rows_overloaded_.load(std::memory_order_relaxed);
  s.rows_rejected = rows_rejected_.load(std::memory_order_relaxed);
  s.rows_quarantined = rows_quarantined_.load(std::memory_order_relaxed);
  s.rows_warmup = rows_warmup_.load(std::memory_order_relaxed);
  s.windows_enqueued = windows_enqueued_.load(std::memory_order_relaxed);
  s.windows_scored = windows_scored_.load(std::memory_order_relaxed);
  s.eager_windows = eager_windows_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.alerts = alerts_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  s.bytes_per_stream = ApproxBytesPerStream();
  s.shed_dropped = shed_dropped_.load(std::memory_order_relaxed);
  s.shed_deadline_expired =
      shed_deadline_expired_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  s.snapshots_failed = snapshots_failed_.load(std::memory_order_relaxed);
  s.snapshot_index = snapshot_index();
  s.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    s.score_window_hist = window_latency_ns_;
    s.e2e_hist = e2e_latency_ns_;
    s.stage_queue_hist = stage_queue_ns_;
    s.stage_batch_hist = stage_batch_ns_;
    s.stage_score_hist = stage_score_ns_;
    s.stage_result_hist = stage_result_ns_;
    s.stage_total_hist = stage_total_ns_;
  }
  s.p50_window_ns = s.score_window_hist.Quantile(0.50);
  s.p95_window_ns = s.score_window_hist.Quantile(0.95);
  s.p99_window_ns = s.score_window_hist.Quantile(0.99);
  s.stage_queue_ns = static_cast<std::int64_t>(s.stage_queue_hist.sum);
  s.stage_batch_ns = static_cast<std::int64_t>(s.stage_batch_hist.sum);
  s.stage_score_ns = static_cast<std::int64_t>(s.stage_score_hist.sum);
  s.stage_result_ns = static_cast<std::int64_t>(s.stage_result_hist.sum);
  s.stage_total_ns = static_cast<std::int64_t>(s.stage_total_hist.sum);
  s.p50_e2e_ns = s.e2e_hist.Quantile(0.50);
  s.p95_e2e_ns = s.e2e_hist.Quantile(0.95);
  s.p99_e2e_ns = s.e2e_hist.Quantile(0.99);
  s.slo_latency_breaches =
      slo_latency_breaches_.load(std::memory_order_relaxed);
  s.slo_staleness_breaches =
      slo_staleness_breaches_.load(std::memory_order_relaxed);
  s.slo_exhausted_streams =
      slo_exhausted_streams_.load(std::memory_order_relaxed);
  s.slo_exhausted_episodes =
      slo_exhausted_episodes_.load(std::memory_order_relaxed);
  s.drift_checks = drift_checks_.load(std::memory_order_relaxed);
  s.drift_alarms = drift_alarms_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    s.drift_ks = drift_ks_;
  }
  s.quant_fallbacks = quant_lane_fallbacks_.load(std::memory_order_relaxed) +
                      detector_->quant_fallbacks();
  s.plan_lanes = plan_lanes_.load(std::memory_order_relaxed);
  s.quant_lanes = quant_lanes_.load(std::memory_order_relaxed);
  s.plan_arena_bytes = plan_arena_bytes_.load(std::memory_order_relaxed);
  s.quant_arena_bytes = quant_arena_bytes_.load(std::memory_order_relaxed);
  return s;
}

namespace {

/// How a ServeStats field renders. Counters and gauges print as integers
/// in both views (`degraded` as true/false in the JSON, 0/1 on /metrics).
/// A latency quantile or a fraction prints in the JSON only: a quantile's
/// histogram carries it on /metrics, whose gauges hold integers. A
/// histogram prints its sum in the JSON and its buckets on /metrics.
enum class Field { kCounter, kGauge, kQuantile, kFraction, kHistogram };

/// The one list of ServeStats fields, in JSON key order: calls
/// `visit(name, kind, value)` once per field. ServeStatsJson and
/// AppendServeMetrics both walk it.
template <typename Visit>
void ForEachField(const ServeStats& s, Visit&& visit) {
  visit("streams", Field::kGauge, s.streams);
  visit("rows_pushed", Field::kCounter, s.rows_pushed);
  visit("rows_overloaded", Field::kCounter, s.rows_overloaded);
  visit("rows_rejected", Field::kCounter, s.rows_rejected);
  visit("rows_quarantined", Field::kCounter, s.rows_quarantined);
  visit("rows_warmup", Field::kCounter, s.rows_warmup);
  visit("windows_enqueued", Field::kCounter, s.windows_enqueued);
  visit("windows_scored", Field::kCounter, s.windows_scored);
  visit("eager_windows", Field::kCounter, s.eager_windows);
  visit("batches", Field::kCounter, s.batches);
  visit("max_batch", Field::kGauge, s.max_batch);
  visit("alerts", Field::kCounter, s.alerts);
  visit("plan_lanes", Field::kGauge, s.plan_lanes);
  visit("quant_lanes", Field::kGauge, s.quant_lanes);
  visit("quant_fallbacks", Field::kCounter, s.quant_fallbacks);
  visit("plan_arena_bytes", Field::kGauge, s.plan_arena_bytes);
  visit("quant_arena_bytes", Field::kGauge, s.quant_arena_bytes);
  visit("peak_queue_depth", Field::kGauge, s.peak_queue_depth);
  visit("bytes_per_stream", Field::kGauge, s.bytes_per_stream);
  visit("shed_dropped", Field::kCounter, s.shed_dropped);
  visit("shed_deadline_expired", Field::kCounter, s.shed_deadline_expired);
  visit("degraded", Field::kGauge, s.degraded);
  visit("snapshots_written", Field::kCounter, s.snapshots_written);
  visit("snapshots_failed", Field::kCounter, s.snapshots_failed);
  visit("snapshot_index", Field::kGauge, s.snapshot_index);
  visit("watchdog_stalls", Field::kCounter, s.watchdog_stalls);
  visit("p50_window_ns", Field::kQuantile, s.p50_window_ns);
  visit("p95_window_ns", Field::kQuantile, s.p95_window_ns);
  visit("p99_window_ns", Field::kQuantile, s.p99_window_ns);
  visit("stage_queue_ns", Field::kHistogram, s.stage_queue_hist);
  visit("stage_batch_ns", Field::kHistogram, s.stage_batch_hist);
  visit("stage_score_ns", Field::kHistogram, s.stage_score_hist);
  visit("stage_result_ns", Field::kHistogram, s.stage_result_hist);
  visit("stage_total_ns", Field::kHistogram, s.stage_total_hist);
  visit("p50_e2e_ns", Field::kQuantile, s.p50_e2e_ns);
  visit("p95_e2e_ns", Field::kQuantile, s.p95_e2e_ns);
  visit("p99_e2e_ns", Field::kQuantile, s.p99_e2e_ns);
  visit("slo_latency_breaches", Field::kCounter, s.slo_latency_breaches);
  visit("slo_staleness_breaches", Field::kCounter, s.slo_staleness_breaches);
  visit("slo_exhausted_streams", Field::kGauge, s.slo_exhausted_streams);
  visit("slo_exhausted_episodes", Field::kCounter, s.slo_exhausted_episodes);
  visit("drift_checks", Field::kCounter, s.drift_checks);
  visit("drift_alarms", Field::kCounter, s.drift_alarms);
  visit("drift_ks", Field::kFraction, s.drift_ks);
  visit("score_window_ns", Field::kHistogram, s.score_window_hist);
  visit("e2e_ns", Field::kHistogram, s.e2e_hist);
}

}  // namespace

std::string ServeStatsJson(const ServeStats& s) {
  std::string out = "{";
  ForEachField(s, [&out](const char* name, Field kind, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if (out.size() > 1) out.push_back(',');
    out.append("\"").append(name).append("\":");
    if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
      out.append(std::to_string(value.sum));
    } else if constexpr (std::is_same_v<T, bool>) {
      out.append(value ? "true" : "false");
    } else if constexpr (std::is_same_v<T, double>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf),
                    kind == Field::kFraction ? "%.4f" : "%.1f", value);
      out.append(buf);
    } else {
      out.append(std::to_string(value));
    }
  });
  out.push_back('}');
  return out;
}

void AppendServeMetrics(const ServeStats& stats, obs::MetricsSnapshot* snap) {
  ForEachField(stats, [snap](const char* name, Field kind, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    std::string metric = std::string("serve.") + name;
    if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
      snap->histograms.push_back(value);
      snap->histograms.back().name = std::move(metric);
    } else if constexpr (!std::is_same_v<T, double>) {
      if (kind == Field::kCounter) {
        snap->counters.emplace_back(std::move(metric),
                                    static_cast<std::uint64_t>(value));
      } else {
        snap->gauges.emplace_back(std::move(metric),
                                  static_cast<std::int64_t>(value));
      }
    }
  });
  std::sort(snap->counters.begin(), snap->counters.end());
  std::sort(snap->gauges.begin(), snap->gauges.end());
  std::sort(snap->histograms.begin(), snap->histograms.end(),
            [](const obs::HistogramSnapshot& a,
               const obs::HistogramSnapshot& b) { return a.name < b.name; });
}

}  // namespace tfmae::serve
