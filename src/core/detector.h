// End-to-end TFMAE detector: normalization, windowed training with the
// adversarial contrastive objective, and per-time-step scoring.
#ifndef TFMAE_CORE_DETECTOR_H_
#define TFMAE_CORE_DETECTOR_H_

#include <memory>
#include <string>

#include "core/anomaly_detector.h"
#include "core/checkpoint.h"
#include "core/drift.h"
#include "core/inference_plan.h"
#include "core/model.h"
#include "nn/adam.h"
#include "nn/numeric_guard.h"

namespace tfmae::core {

/// In-place per-feature instance normalization of one window ([len x
/// n_feat], row-major) — the optional per-window step of
/// TfmaeDetector::PrepareRawWindow (config.per_window_normalization).
void PerWindowNormalize(std::vector<float>* values, std::int64_t len,
                        std::int64_t n_feat);

/// Bookkeeping from the last Fit() call (feeds the Fig. 10 study and the
/// resilience tests).
struct TrainStats {
  double fit_seconds = 0.0;            ///< wall time of the whole Fit()
  double mean_loss_first_epoch = 0.0;  ///< Eq. (15) objective, epoch 1
  double mean_loss_last_epoch = 0.0;   ///< Eq. (15) objective, final epoch
  std::int64_t num_windows = 0;        ///< training windows sliced
  std::int64_t num_steps = 0;          ///< optimizer steps taken
  std::int64_t peak_tensor_bytes = 0;  ///< MemoryStats high-watermark
  nn::NumericGuardStats numeric;       ///< numeric-guard interventions
  std::int64_t checkpoints_written = 0;
  std::int64_t checkpoint_failures = 0;  ///< writes that failed (training went on)
  std::int64_t resumed_at_step = -1;     ///< -1 for a fresh (non-resumed) run
  bool interrupted = false;  ///< stopped early: max_steps, injected fault,
                             ///< or numeric-guard give-up
};

/// Training-time resilience options (all off by default, so plain Fit(train)
/// behaves exactly like the seed).
struct FitOptions {
  /// Directory for crash-safe TrainingCheckpoint bundles; empty disables
  /// checkpointing. Created if missing.
  std::string checkpoint_dir;
  /// Write a checkpoint every this many optimizer steps (0 = off).
  std::int64_t checkpoint_every = 0;
  /// Checkpoint files retained after each write (older ones are pruned).
  int keep_last = 2;
  /// Stop cleanly after this many optimizer steps (0 = unlimited). The
  /// stats report interrupted=true; Resume() continues the run.
  std::int64_t max_steps = 0;
  /// NaN/Inf step guard configuration (enabled by default; zero effect on
  /// healthy runs — see nn/numeric_guard.h).
  nn::NumericGuardOptions numeric;
};

/// TFMAE anomaly detector implementing the shared AnomalyDetector protocol.
///
/// Wraps the two-branch masked autoencoder (core/model.h) with everything
/// the protocol needs around it: global z-score normalization fitted on
/// train, window slicing, one-time mask precomputation (masks depend only
/// on the data), Adam optimization of the adversarial contrastive
/// objective (Eq. (15)), and per-time-step symmetric-KL scoring (Eq. (16))
/// with overlapping-window averaging. Fit()/Score() are deterministic for
/// a fixed config and seed at any thread count (DESIGN.md §7).
class TfmaeDetector : public AnomalyDetector {
 public:
  explicit TfmaeDetector(TfmaeConfig config, std::string name = "TFMAE");

  std::string Name() const override { return name_; }

  /// Normalizes (z-score, fitted here), slices training windows, prepares
  /// masks once, then optimizes Eq. (15) with Adam for config.epochs passes.
  void Fit(const data::TimeSeries& train) override;

  /// Fit with resilience options: periodic crash-safe checkpoints, a step
  /// budget, and numeric-health guarding (see FitOptions).
  void Fit(const data::TimeSeries& train, const FitOptions& options);

  /// Continues an interrupted Fit from the newest valid checkpoint in
  /// `options.checkpoint_dir`, bitwise-identically to the run the
  /// checkpoint came from (same data, config, and seed required; enforced
  /// via a config CRC). Returns false — detector untouched — when no valid
  /// checkpoint exists or it does not match this detector/data; the caller
  /// should Fit() from scratch then.
  bool Resume(const data::TimeSeries& train, const FitOptions& options);

  /// Per-time-step symmetric-KL anomaly scores. Overlapping window scores
  /// are averaged. Requires Fit().
  std::vector<float> Score(const data::TimeSeries& series) override;

  /// The one window pipeline (Fit, Calibrate, Score, serve::FleetServer):
  /// z-score `length` raw rows, optionally normalize per window, and mask
  /// into `out`, reusing its buffers. Thread-safe on distinct `out`s.
  void PrepareRawWindow(const float* rows, std::int64_t length, Rng* mask_rng,
                        MaskedWindow* out) const;

  const TrainStats& train_stats() const { return stats_; }
  const TfmaeConfig& config() const { return config_; }

  /// True after a successful Fit() or LoadCheckpoint().
  bool fitted() const { return fitted_; }

  /// The trained network (null before Fit).
  TfmaeModel* model() { return model_.get(); }
  const TfmaeModel* model() const { return model_.get(); }

  /// The global z-score statistics fitted on train (PrepareRawWindow's
  /// first step).
  const data::ZScoreNormalizer& normalizer() const { return normalizer_; }

  /// Pre-planned inference (DESIGN.md §10). On by default: the first
  /// scored window captures the graph into an InferencePlan and later
  /// windows replay it, bitwise-identically to the eager path. Any capture
  /// failure falls back to eager scoring; off scores every window eagerly.
  void SetInferencePlanEnabled(bool on) { plan_enabled_ = on; }
  bool inference_plan_enabled() const { return plan_enabled_; }

  /// The active plan (null until a Score() built one, or when disabled).
  const InferencePlan* inference_plan() const { return plan_.get(); }

  /// Capture attempts that fell back to eager scoring (fault injection or
  /// unsupported graphs).
  std::int64_t plan_capture_failures() const { return plan_capture_failures_; }

  /// Int8 scoring path (DESIGN.md §12). The default tracks TFMAE_QUANT
  /// ("int8" enables; anything else — including unset — is off). With int8
  /// selected AND a calibration spec present, Score() compiles a quantized
  /// InferencePlan; a missing spec, a feature-count mismatch between the
  /// spec and the scored series, or a failed quantized capture each fall
  /// back to the fp32 path automatically (counted in quant_fallbacks(),
  /// ledger-visible as a `quant` event with verdict=fallback).
  enum class QuantMode { kOff = 0, kInt8 = 1 };
  void SetQuantMode(QuantMode mode);
  QuantMode quant_mode() const { return quant_mode_; }

  /// Runs the calibration pass: slices `series` into scoring windows,
  /// replays them through a fp32 plan with activation observers, and
  /// records per-channel absmax ranges into the detector's QuantSpec
  /// (SaveCheckpoint persists it). Requires Fit().
  /// Returns false — spec untouched — with a reason in `error`.
  bool Calibrate(const data::TimeSeries& series, std::string* error = nullptr);

  const QuantSpec& quant_spec() const { return quant_spec_; }
  void SetQuantSpec(QuantSpec spec);
  bool has_quant_spec() const { return !quant_spec_.empty(); }

  /// Score() calls / captures that wanted int8 but ran fp32 instead.
  std::int64_t quant_fallbacks() const { return quant_fallbacks_; }

  /// Calibration score reference for the online drift monitor (core/drift.h).
  /// SaveCheckpoint persists it.
  const ScoreDistribution& score_reference() const { return score_reference_; }
  void SetScoreReference(ScoreDistribution dist);
  bool has_score_reference() const { return !score_reference_.empty(); }

  /// Persists the complete fitted detector as one checkpoint container
  /// (util/checkpoint_file.h) at `path`, in one atomic write. Its sections:
  /// "config" (ConfigToString text), "norm" (the normalizer's means and
  /// stds), "params" (nn::EncodeParameters), and, when present,
  /// "quant_spec" and "score_ref". Requires Fit(). Returns false on I/O
  /// failure; any previous file at `path` is then left whole.
  bool SaveCheckpoint(const std::string& path) const;

  /// Restores a detector saved by SaveCheckpoint, ready to Score() without
  /// re-fitting. An absent optional section means none. Returns false on a
  /// missing or corrupt file, a missing or undecodable section, or a config
  /// that cannot build a model, and then leaves this detector exactly as it
  /// was (a fitted detector still scores with its previous weights).
  bool LoadCheckpoint(const std::string& path);

 private:
  /// Shared body of Fit/Resume. `resume_from` (may be null) is a validated
  /// checkpoint whose state is restored after the deterministic
  /// reconstruction of windows and masks.
  void FitInternal(const data::TimeSeries& train, const FitOptions& options,
                   const TrainingCheckpoint* resume_from);

  std::string name_;
  TfmaeConfig config_;
  std::unique_ptr<TfmaeModel> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  data::ZScoreNormalizer normalizer_;
  Rng rng_;
  TrainStats stats_;
  bool fitted_ = false;

  // Pre-planned inference state. The plan is invalidated whenever the
  // weights change (Fit/Resume/LoadCheckpoint) or the window geometry
  // stops matching.
  std::unique_ptr<InferencePlan> plan_;
  bool plan_enabled_ = true;
  std::int64_t plan_capture_failures_ = 0;
  std::vector<float> plan_scores_;  ///< reusable replay output buffer

  // Int8 scoring state (DESIGN.md §12).
  QuantMode quant_mode_ = QuantMode::kOff;
  QuantSpec quant_spec_;
  std::int64_t quant_fallbacks_ = 0;

  // Drift-monitor reference distribution (core/drift.h).
  ScoreDistribution score_reference_;
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_DETECTOR_H_
