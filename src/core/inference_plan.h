// Pre-planned inference: capture once, replay forever (DESIGN.md §10).
//
// A trained TfmaeDetector scores every window of a series through the same
// static graph — only the input VALUES and the dynamic mask index vectors
// change from window to window. InferencePlan exploits that: one capture
// pass records the scoring graph of TfmaeModel::ScoreWindow as a flat op
// list (tensor/capture.h), a memory planner assigns every intermediate and
// every op workspace (softmax rows, transposed-GEMM packs) a fixed offset in
// one pool-backed arena via lifetime analysis, and a replay executor runs
// the plan as a tight loop over pre-resolved kernel pointers — zero pool
// calls, zero shared_ptr churn, zero autograd construction, zero dispatch
// branching.
//
// Determinism contract: replay is bitwise-identical to the eager
// ScoreWindow at any TFMAE_NUM_THREADS. Both paths call the same per-element
// kernels (tensor/op_kernels.h) and cut parallel chunks at fixed boundaries
// that depend only on element counts; Capture() additionally self-verifies
// (one replay, memcmp against the captured eager scores) and returns null —
// eager fallback — on any mismatch. A failed capture never produces a wrong
// plan, only no plan.
#ifndef TFMAE_CORE_INFERENCE_PLAN_H_
#define TFMAE_CORE_INFERENCE_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/quant.h"

namespace tfmae::core {

/// Build- and replay-time accounting, surfaced through the detector's
/// ledger `plan` event.
struct InferencePlanStats {
  std::int64_t captured_ops = 0;  ///< ops recorded by the capture pass
  std::int64_t ops = 0;  ///< ops in the final plan: the captured ops less
                         ///< elided reshapes and int8-folded consumers
  std::int64_t elided_reshapes = 0;  ///< reshapes turned into storage aliases
  std::int64_t slots = 0;            ///< arena slots (inputs + intermediates)
  std::int64_t arena_bytes = 0;      ///< one logical allocation, total size
  double capture_ms = 0.0;           ///< wall-clock cost of Capture()
  std::int64_t replays = 0;          ///< Score() calls served by this plan

  // Int8 path accounting (zero / false on fp32 plans; DESIGN.md §12).
  bool quantized = false;             ///< plan runs the int8 scoring path
  std::int64_t quant_linear_ops = 0;  ///< matmuls lowered to int8 kernels
  std::int64_t elided_quant_pairs = 0;  ///< quant/dequant pairs never built:
                                        ///< fused epilogues + shared-input
                                        ///< quantizations (q/k/v)
  std::int64_t quant_arena_bytes = 0;  ///< packed u8 activation arena
};

/// A compiled scoring program for one window geometry.
class InferencePlan {
 public:
  /// Captures the scoring graph by running the eager ScoreWindow under a
  /// recorder, plans arena storage, pre-resolves kernels, and self-verifies
  /// one replay against the eager result. The eager scores (the capture
  /// window's answer) are returned through `eager_scores` whether or not
  /// the capture succeeds, so the caller never computes a window twice.
  /// Returns null — with a reason in `error` if non-null — whenever any op
  /// is unsupported or the self-verification mismatches.
  ///
  /// When `quant` is non-null the plan is compiled for the int8 scoring
  /// path (DESIGN.md §12): every weight-bearing matmul with a calibrated
  /// site becomes a fused u8 x s8 linear kernel (bias / bias+GeLU consumers
  /// folded into the dequantization epilogue, shared inputs quantized
  /// once). Every other op, GeLU, softmax and the score head included, runs
  /// the fp32 plan's kernel. An int8 plan cannot be bitwise-identical
  /// to eager, so self-verification instead requires (a) two replays to be
  /// bitwise-identical to each other, (b) all-finite scores, and (c)
  /// agreement with the eager scores within a coarse quantization-noise
  /// envelope. Replay stays bitwise thread-count-invariant.
  static std::unique_ptr<InferencePlan> Capture(
      const TfmaeModel& model, const MaskedWindow& example,
      std::vector<float>* eager_scores, std::string* error = nullptr,
      const QuantSpec* quant = nullptr);

  ~InferencePlan();
  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  /// True iff `window` has the geometry this plan was compiled for (length,
  /// feature count, masked/unmasked counts). Index values and data values
  /// may differ freely; a geometry change requires a fresh Capture().
  bool Matches(const MaskedWindow& window) const;

  /// Replays the plan on `window`. Writes the per-time-step scores into
  /// `out` (resized once; steady-state calls perform zero tensor
  /// allocations). Requires Matches(window).
  void Score(const MaskedWindow& window, std::vector<float>* out);

  /// Called once per weight-bearing matmul per observed replay, with the
  /// matmul's fp32 input activation ([rows x cols], cols == the weight's
  /// input-feature count) immediately before the op executes.
  using ActivationObserver = std::function<void(
      int weight_index, const float* data, std::int64_t rows,
      std::int64_t cols)>;

  /// Score() plus activation observation — the calibration pass
  /// (core/quant.cc) replays validation windows through this entry point to
  /// record per-channel absmax ranges. Scores are identical to Score()'s.
  void ScoreWithActivationObserver(const MaskedWindow& window,
                                   std::vector<float>* out,
                                   const ActivationObserver& observer);

  const InferencePlanStats& stats() const { return stats_; }

 private:
  struct State;
  InferencePlan();

  /// Shared replay body; `observer` may be null (the hot path).
  void ScoreImpl(const MaskedWindow& window, std::vector<float>* out,
                 const ActivationObserver* observer);
  /// Writes this plan's TFMAE_PLAN_PROFILE breakdown to stderr.
  void PrintProfile() const;

  InferencePlanStats stats_;
  std::unique_ptr<State> state_;
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_INFERENCE_PLAN_H_
