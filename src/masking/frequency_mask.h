// Amplitude-based frequency masking (paper Section IV-A.2, Eq. (6)-(10))
// and its Table V ablation variants.
//
// Pipeline per feature column:
//  1. DFT the column (Eq. (6)) and compute per-bin amplitudes (Eq. (7)).
//  2. Select the r% lowest-amplitude bins (Eq. (8)) — short-lived/low-
//     magnitude patterns, which the paper argues are the likely anomalies.
//  3. Replace them with a learnable complex token m^(F) (Eq. (9)) and IDFT
//     back (Eq. (10)).
// Because the IDFT is linear, the masked time-domain series decomposes as
//   masked(t) = base(t) + Re(m) * cos_coef(t) + Im(m) * sin_coef(t)
// where base is the IDFT with masked bins zeroed, and the two coefficient
// vectors collect the masked bins' basis functions. The model keeps Re(m),
// Im(m) as trainable parameters and assembles the series with tensor ops, so
// gradients flow into the mask token exactly as in the paper.
#ifndef TFMAE_MASKING_FREQUENCY_MASK_H_
#define TFMAE_MASKING_FREQUENCY_MASK_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tfmae::masking {

/// Strategy used to pick which frequency bins to mask.
enum class FrequencyMaskVariant {
  kAmplitude,       ///< TFMAE default: lowest-amplitude bins (Eq. (8)).
  kHighFrequency,   ///< "w/ HMF": highest-frequency bins.
  kRandom,          ///< "w/ RMF": uniform random bins.
  kNone,            ///< "w/o MF": nothing is masked.
};

/// Decomposition of one frequency-masked feature column (see file comment).
struct FrequencyMaskedColumn {
  /// Time-domain series with masked bins zeroed (length = input length).
  std::vector<float> base;
  /// Basis coefficient multiplying Re(m^(F)).
  std::vector<float> cos_coef;
  /// Basis coefficient multiplying Im(m^(F)).
  std::vector<float> sin_coef;
  /// The masked bin indices (full-spectrum indices, sorted ascending).
  std::vector<std::int64_t> masked_bins;
};

/// Masks floor(ratio * length) frequency bins of one column.
/// `rng` is required for kRandom and ignored otherwise.
FrequencyMaskedColumn MaskFrequencyColumn(const std::vector<float>& column,
                                          double ratio,
                                          FrequencyMaskVariant variant,
                                          Rng* rng);

/// MaskFrequencyColumn on `length` values `stride` floats apart (one feature
/// column of a row-major window), written into `out`: once `out` has held a
/// column of this length, no buffer of it is reallocated.
void MaskFrequencyColumnInto(const float* column, std::int64_t length,
                             std::int64_t stride, double ratio,
                             FrequencyMaskVariant variant, Rng* rng,
                             FrequencyMaskedColumn* out);

/// Test/inspection helper: evaluates the decomposition for a concrete token
/// value, returning base + re*cos_coef + im*sin_coef.
std::vector<float> AssembleMaskedColumn(const FrequencyMaskedColumn& masked,
                                        float token_re, float token_im);

}  // namespace tfmae::masking

#endif  // TFMAE_MASKING_FREQUENCY_MASK_H_
