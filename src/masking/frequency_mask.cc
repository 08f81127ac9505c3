#include "masking/frequency_mask.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fft/fft.h"
#include "obs/trace.h"
#include "util/length_cache.h"
#include "util/logging.h"

namespace tfmae::masking {
namespace {

// The terms masked bin `bin` adds to cos_coef[t] and subtracts from
// sin_coef[t]: Re[(re + j*im) * e^{j angle}] / length =
// (re*cos - im*sin) / length.
struct CoefficientTerms {
  float cos_term;
  float sin_term;
};

CoefficientTerms Terms(std::int64_t bin, std::int64_t t, double inv_len) {
  const double angle = 2.0 * M_PI * static_cast<double>(bin) *
                       static_cast<double>(t) * inv_len;
  return {static_cast<float>(std::cos(angle) * inv_len),
          static_cast<float>(std::sin(angle) * inv_len)};
}

// Terms for every (bin, t) of one length, row-major [bin][t].
struct CoefficientTable {
  std::vector<float> cos_terms;
  std::vector<float> sin_terms;
};

// The table holds 2 * length^2 floats (2 MiB at this cap); longer columns
// evaluate the same Terms inline.
constexpr std::int64_t kMaxTabledLength = 512;

LengthCache<CoefficientTable> g_coefficient_tables;

const CoefficientTable& CoefficientTableFor(std::int64_t length) {
  return g_coefficient_tables.Get(length, [length] {
    const double inv_len = 1.0 / static_cast<double>(length);
    CoefficientTable table;
    table.cos_terms.resize(static_cast<std::size_t>(length * length));
    table.sin_terms.resize(static_cast<std::size_t>(length * length));
    for (std::int64_t bin = 0; bin < length; ++bin) {
      for (std::int64_t t = 0; t < length; ++t) {
        const CoefficientTerms terms = Terms(bin, t, inv_len);
        const auto i = static_cast<std::size_t>(bin * length + t);
        table.cos_terms[i] = terms.cos_term;
        table.sin_terms[i] = terms.sin_term;
      }
    }
    return table;
  });
}

}  // namespace

FrequencyMaskedColumn MaskFrequencyColumn(const std::vector<float>& column,
                                          double ratio,
                                          FrequencyMaskVariant variant,
                                          Rng* rng) {
  FrequencyMaskedColumn result;
  MaskFrequencyColumnInto(column.data(),
                          static_cast<std::int64_t>(column.size()), 1, ratio,
                          variant, rng, &result);
  return result;
}

void MaskFrequencyColumnInto(const float* column, std::int64_t length,
                             std::int64_t stride, double ratio,
                             FrequencyMaskVariant variant, Rng* rng,
                             FrequencyMaskedColumn* out) {
  TFMAE_TRACE("masking.frequency");
  TFMAE_CHECK_MSG(ratio >= 0.0 && ratio < 1.0,
                  "frequency mask ratio must be in [0, 1), got " << ratio);
  TFMAE_CHECK(length >= 1);

  std::vector<double> column_d(static_cast<std::size_t>(length));
  for (std::int64_t t = 0; t < length; ++t) {
    column_d[static_cast<std::size_t>(t)] = column[t * stride];
  }
  std::vector<fft::Complex> spectrum = fft::RealFft(column_d);

  const std::int64_t masked_count =
      variant == FrequencyMaskVariant::kNone
          ? 0
          : static_cast<std::int64_t>(ratio * static_cast<double>(length));

  std::vector<std::int64_t> masked;
  switch (variant) {
    case FrequencyMaskVariant::kNone:
      break;
    case FrequencyMaskVariant::kAmplitude: {
      // Eq. (8): TopIndex(-amplitude) == lowest-amplitude bins.
      const std::vector<double> amplitude = fft::Amplitude(spectrum);
      std::vector<std::int64_t> idx(static_cast<std::size_t>(length));
      std::iota(idx.begin(), idx.end(), 0);
      std::partial_sort(idx.begin(), idx.begin() + masked_count, idx.end(),
                        [&amplitude](std::int64_t a, std::int64_t b) {
                          const double va =
                              amplitude[static_cast<std::size_t>(a)];
                          const double vb =
                              amplitude[static_cast<std::size_t>(b)];
                          if (va != vb) return va < vb;
                          return a < b;
                        });
      idx.resize(static_cast<std::size_t>(masked_count));
      masked = std::move(idx);
      break;
    }
    case FrequencyMaskVariant::kHighFrequency: {
      // "High frequency" of full-spectrum bin i is min(i, length - i):
      // bins near the Nyquist rate are masked first.
      std::vector<std::int64_t> idx(static_cast<std::size_t>(length));
      std::iota(idx.begin(), idx.end(), 0);
      auto freq_of = [length](std::int64_t i) {
        return std::min<std::int64_t>(i, length - i);
      };
      std::partial_sort(idx.begin(), idx.begin() + masked_count, idx.end(),
                        [&freq_of](std::int64_t a, std::int64_t b) {
                          const std::int64_t fa = freq_of(a);
                          const std::int64_t fb = freq_of(b);
                          if (fa != fb) return fa > fb;
                          return a < b;
                        });
      idx.resize(static_cast<std::size_t>(masked_count));
      masked = std::move(idx);
      break;
    }
    case FrequencyMaskVariant::kRandom: {
      TFMAE_CHECK_MSG(rng != nullptr, "random frequency masking needs an Rng");
      masked = rng->SampleWithoutReplacement(length, masked_count);
      break;
    }
  }
  std::sort(masked.begin(), masked.end());

  // Zero the masked bins and return to the time domain for the base signal.
  for (std::int64_t bin : masked) {
    spectrum[static_cast<std::size_t>(bin)] = fft::Complex(0, 0);
  }
  const std::vector<double> base_d = fft::RealIfft(spectrum);

  out->base.assign(base_d.begin(), base_d.end());
  out->masked_bins.assign(masked.begin(), masked.end());
  out->cos_coef.assign(static_cast<std::size_t>(length), 0.0f);
  out->sin_coef.assign(static_cast<std::size_t>(length), 0.0f);
  float* cos_coef = out->cos_coef.data();
  float* sin_coef = out->sin_coef.data();
  if (length <= kMaxTabledLength) {
    const CoefficientTable& table = CoefficientTableFor(length);
    for (std::int64_t bin : out->masked_bins) {
      const float* cos_terms = table.cos_terms.data() + bin * length;
      const float* sin_terms = table.sin_terms.data() + bin * length;
      for (std::int64_t t = 0; t < length; ++t) {
        cos_coef[t] += cos_terms[t];
        sin_coef[t] -= sin_terms[t];
      }
    }
  } else {
    const double inv_len = 1.0 / static_cast<double>(length);
    for (std::int64_t bin : out->masked_bins) {
      for (std::int64_t t = 0; t < length; ++t) {
        const CoefficientTerms terms = Terms(bin, t, inv_len);
        cos_coef[t] += terms.cos_term;
        sin_coef[t] -= terms.sin_term;
      }
    }
  }
}

std::vector<float> AssembleMaskedColumn(const FrequencyMaskedColumn& masked,
                                        float token_re, float token_im) {
  std::vector<float> out(masked.base.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = masked.base[t] + token_re * masked.cos_coef[t] +
             token_im * masked.sin_coef[t];
  }
  return out;
}

}  // namespace tfmae::masking
