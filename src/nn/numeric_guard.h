// Numeric-health guard for the training step (docs/RESILIENCE.md).
//
// A NaN or Inf that slips through one optimizer step silently corrupts
// every later step: the moments keep the poison and the model never
// recovers. The guard sits between backward() and optimizer->Step():
//
//   loss.Backward();
//   if (guard.PreStep(loss_value)) {   // loss and gradients finite?
//     optimizer->Step();
//     guard.CommitGoodStep();          // snapshot weights + moments
//   }                                  // else: skipped, restored, LR backed off
//
// On a blown step the guard (a) reports the step as unhealthy so the caller
// skips the update and zeroes the gradients, (b) restores parameters and
// optimizer moments from the last good in-memory snapshot — insurance
// against poison that has already landed, (c) multiplies the learning rate
// by `lr_backoff` down to `lr_min` (loss spikes are usually step-size
// accidents), and (d) bumps the `train.numeric.*` counters so recovery is
// visible in metrics dumps, not just implied by a healthy loss curve.
//
// A healthy run pays one finiteness sweep over the gradients plus one
// weight/moment copy per step; the guard never perturbs arithmetic, so
// guarded and unguarded healthy runs are bitwise-identical.
//
// After `max_consecutive_skips` blown steps in a row the guard gives up:
// PreStep keeps returning false and `gave_up()` turns true, leaving the
// caller with the last good weights instead of looping forever on a
// permanently poisoned input.
#ifndef TFMAE_NN_NUMERIC_GUARD_H_
#define TFMAE_NN_NUMERIC_GUARD_H_

#include <cstdint>
#include <vector>

#include "nn/adam.h"
#include "tensor/tensor.h"

namespace tfmae::nn {

/// Global L2 norm of the gradients currently on `parameters`, accumulated in
/// double like Adam's own clipping pass. Returns NaN as soon as any element
/// is non-finite (a plain sum would hide a lone NaN behind an Inf). The run
/// ledger's per-step record; the guard's health check tests the elements
/// for finiteness directly, which gives the same verdict.
double GlobalGradNorm(const std::vector<Tensor>& parameters);

struct NumericGuardOptions {
  bool enabled = true;
  float lr_backoff = 0.5f;  ///< LR multiplier applied per blown step
  float lr_min = 1e-7f;     ///< LR floor for the backoff
  int max_consecutive_skips = 25;  ///< give up after this many in a row
};

/// Counts of every intervention since construction. Mirrored into the
/// metrics registry under `train.numeric.*` (while obs::Enabled()).
struct NumericGuardStats {
  std::int64_t nonfinite_loss = 0;   ///< steps with a NaN/Inf loss value
  std::int64_t nonfinite_grad = 0;   ///< steps with a NaN/Inf gradient norm
  std::int64_t skipped_steps = 0;    ///< updates suppressed (either cause)
  std::int64_t restores = 0;         ///< snapshot restorations performed
  std::int64_t lr_backoffs = 0;      ///< learning-rate reductions applied
};

class NumericGuard {
 public:
  /// `optimizer` must outlive the guard and manage exactly the parameters
  /// whose health is being guarded. The initial snapshot is taken here.
  NumericGuard(Adam* optimizer, NumericGuardOptions options = {});

  /// Health check for the step about to be applied. Returns true when
  /// `loss_value` and every gradient element are finite (apply the step,
  /// then call CommitGoodStep). Returns false after skipping/restoring as
  /// documented above — the caller must NOT apply the step and should zero
  /// the gradients. Always true when the guard is disabled.
  bool PreStep(float loss_value);

  /// Records the post-step state as the new last-good snapshot.
  void CommitGoodStep();

  /// True once max_consecutive_skips was exceeded; training should stop.
  bool gave_up() const { return gave_up_; }

  const NumericGuardStats& stats() const { return stats_; }

 private:
  void Snapshot();
  void Restore();

  Adam* optimizer_;
  NumericGuardOptions options_;
  NumericGuardStats stats_;
  std::vector<std::vector<float>> weight_snapshot_;
  AdamState adam_snapshot_;
  int consecutive_skips_ = 0;
  // Steps the caller committed so far — the step id of ledger guard events
  // (thread-count-invariant, unlike any wall-clock notion of progress).
  std::int64_t committed_steps_ = 0;
  bool gave_up_ = false;
};

}  // namespace tfmae::nn

#endif  // TFMAE_NN_NUMERIC_GUARD_H_
