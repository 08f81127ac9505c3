// The TFMAE network (paper Section IV): temporal-frequency masks feeding two
// Transformer-based autoencoders that emit per-time-step representations
// P^(L) (temporal view) and F^(L) (frequency view).
#ifndef TFMAE_CORE_MODEL_H_
#define TFMAE_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "nn/transformer.h"

namespace tfmae::core {

/// Precomputed masking state of one input window. Masks depend only on the
/// data (not on learned parameters), so they are computed once per window
/// and reused across epochs and scoring passes.
struct MaskedWindow {
  std::int64_t length = 0;
  std::int64_t num_features = 0;
  /// Raw window values, row-major [length, num_features].
  std::vector<float> values;
  /// Temporal mask (Eq. (2)).
  masking::TemporalMask temporal;
  /// Per-feature frequency mask decomposition (Eq. (9)-(10)).
  std::vector<masking::FrequencyMaskedColumn> frequency;

  /// Gives every buffer the capacity a [length x num_features] window
  /// needs, so that a following TfmaeModel::PrepareWindowInto allocates
  /// nothing.
  void Reserve(std::int64_t length, std::int64_t num_features);
};

/// The dual masked autoencoder. All trainable parameters (projections, mask
/// tokens m^(T) and m^(F), and the three Transformer stacks) live here.
class TfmaeModel : public nn::Module {
 public:
  TfmaeModel(std::int64_t num_features, const TfmaeConfig& config, Rng* rng);

  /// True when `config` meets every precondition the constructor and
  /// PrepareWindow TFMAE_CHECK: positive dimensions, num_layers >= 1,
  /// model_dim divisible by num_heads, window >= 2, cv_window >= 1 and mask
  /// ratios in [0, 1). Check a config read from a file with it before
  /// building a model, since a failed CHECK aborts.
  static bool ConfigIsBuildable(const TfmaeConfig& config);

  /// The number of floats a model of `num_features` features built from
  /// `config` holds, or nullopt if it does not fit in 64 bits. Requires
  /// ConfigIsBuildable(config) and num_features >= 1. A loader checks it
  /// against the weights on file before building the model.
  static std::optional<std::uint64_t> ParameterCount(
      std::int64_t num_features, const TfmaeConfig& config);

  /// The two views of Eq. (14)-(16): temporal P^(L) and frequency F^(L),
  /// both [window, model_dim].
  struct Views {
    Tensor temporal;
    Tensor frequency;
  };

  /// Prepares the masking state of one window (values: [T * N] row-major).
  /// `mask_rng` is consumed only by the random masking ablation variants.
  MaskedWindow PrepareWindow(const std::vector<float>& values,
                             Rng* mask_rng) const;

  /// PrepareWindow for the values already in `window->values`, reusing
  /// `window`'s buffers: once it has held a window of the same shape, no
  /// buffer is reallocated. Safe to call concurrently on distinct windows.
  void PrepareWindowInto(MaskedWindow* window, Rng* mask_rng) const;

  /// Runs both autoencoders on a prepared window.
  Views Forward(const MaskedWindow& window) const;

  /// Training objective for one window (Eq. (14)/(15) depending on config):
  /// the contrastive stage detaches the temporal view; when adversarial
  /// training is on, a maximizing stage with the frequency view detached is
  /// subtracted. Returns a scalar tensor.
  Tensor Loss(const Views& views) const;

  /// Anomaly scores (Eq. (16)): per-time-step symmetric KL divergence
  /// between the two views' softmax distributions.
  std::vector<float> ScoreWindow(const MaskedWindow& window) const;

  const TfmaeConfig& config() const { return config_; }
  std::int64_t num_features() const { return num_features_; }

  /// Positions in Parameters() of the score head: every parameter of the
  /// final layer of each decoder stack. These layers form the logits that
  /// the SymKL anomaly score compares, and int8 calibration excludes them
  /// (see CalibrateQuantSpec).
  std::vector<int> ScoreHeadParameterIndices() const;

 private:
  Tensor TemporalView(const MaskedWindow& window) const;
  Tensor FrequencyView(const MaskedWindow& window) const;

  std::int64_t num_features_;
  TfmaeConfig config_;

  nn::Linear temporal_proj_;       // W^(T), b^(T) (Eq. (3))
  nn::Linear frequency_proj_;      // W^(F), b^(F) (Eq. (10))
  Tensor temporal_mask_token_;     // m^(T) in R^D
  Tensor frequency_token_re_;      // Re(m^(F)) in R^N
  Tensor frequency_token_im_;      // Im(m^(F)) in R^N
  nn::TransformerStack temporal_encoder_;
  nn::TransformerStack temporal_decoder_;
  nn::TransformerStack frequency_decoder_;

  // Shared per-window RNG for random-masking variants; mutable access is
  // routed through PrepareWindow's argument instead.
};

}  // namespace tfmae::core

#endif  // TFMAE_CORE_MODEL_H_
