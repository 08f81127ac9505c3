// Adam optimizer (Kingma & Ba, 2014) with optional global-norm gradient
// clipping. The paper trains TFMAE with Adam at learning rate 1e-4.
#ifndef TFMAE_NN_ADAM_H_
#define TFMAE_NN_ADAM_H_

#include <vector>

#include "tensor/tensor.h"

namespace tfmae::nn {

/// Hyper-parameters for Adam.
struct AdamOptions {
  float learning_rate = 1e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  /// If > 0, gradients are rescaled so their global L2 norm is at most this.
  float clip_grad_norm = 0.0f;
};

/// Complete optimizer state — both moment vectors and the step counter.
/// Persisted inside training checkpoints (core/checkpoint.h) and snapshotted
/// by the numeric guard (nn/numeric_guard.h) so a restored optimizer
/// continues bitwise-identically.
struct AdamState {
  std::int64_t step_count = 0;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
};

/// Adam over a fixed parameter list. Parameters must keep their identity
/// (buffer) across steps; the optimizer stores per-parameter moment buffers.
class Adam {
 public:
  Adam(std::vector<Tensor> parameters, AdamOptions options = {});

  /// Applies one update from the gradients currently accumulated on the
  /// parameters, then leaves gradients untouched (call ZeroGrad separately).
  /// Parameters whose gradient buffer was never written are skipped.
  void Step();

  /// Zeroes the gradients of all managed parameters.
  void ZeroGrad();

  std::int64_t num_steps() const { return step_count_; }
  const AdamOptions& options() const { return options_; }
  void set_learning_rate(float lr) { options_.learning_rate = lr; }

  /// The managed parameter tensors (aliases, not copies).
  const std::vector<Tensor>& parameters() const { return parameters_; }

  /// Deep copy of the moments and step counter.
  AdamState ExportState() const;

  /// The same copy into *state, reusing its buffers (the numeric guard
  /// snapshots every committed step this way).
  void ExportState(AdamState* state) const;

  /// Restores state exported from an optimizer over the same parameter
  /// shapes. Returns false (state unchanged) on a shape mismatch.
  bool ImportState(const AdamState& state);

 private:
  std::vector<Tensor> parameters_;
  AdamOptions options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::int64_t step_count_ = 0;
};

}  // namespace tfmae::nn

#endif  // TFMAE_NN_ADAM_H_
