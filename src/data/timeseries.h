// Time-series containers, normalization, and windowing.
#ifndef TFMAE_DATA_TIMESERIES_H_
#define TFMAE_DATA_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tfmae::data {

/// A (possibly multivariate) time series with optional point labels.
/// Values are row-major [length, num_features]; labels[t] == 1 marks time
/// step t anomalous (labels may be empty for unlabeled data).
struct TimeSeries {
  std::int64_t length = 0;
  std::int64_t num_features = 0;
  std::vector<float> values;
  std::vector<std::uint8_t> labels;

  /// Allocates a zero series with empty (all-normal) labels.
  static TimeSeries Zeros(std::int64_t length, std::int64_t num_features);

  float& at(std::int64_t t, std::int64_t n) {
    return values[static_cast<std::size_t>(t * num_features + n)];
  }
  float at(std::int64_t t, std::int64_t n) const {
    return values[static_cast<std::size_t>(t * num_features + n)];
  }

  /// Fraction of labeled-anomalous points (0 if unlabeled).
  double AnomalyRatio() const;

  /// Copies rows [start, start+len) including labels.
  TimeSeries Slice(std::int64_t start, std::int64_t len) const;
};

/// Per-feature z-score normalization fitted on training data and applied to
/// validation/test data (the standard protocol of the paper's benchmarks).
class ZScoreNormalizer {
 public:
  /// Computes per-feature mean/std over `train`. Features with (near-)zero
  /// variance get std 1 so they pass through unscaled.
  void Fit(const TimeSeries& train);

  /// Returns a normalized copy: (x - mean) / std per feature.
  TimeSeries Apply(const TimeSeries& series) const;

  /// Apply() on `rows` rows from `in` to `out` (may alias). Elementwise, so
  /// a window normalized alone has the bits of those rows of Apply().
  void ApplyRows(const float* in, std::int64_t rows, float* out) const;

  const std::vector<float>& means() const { return means_; }
  const std::vector<float>& stds() const { return stds_; }

  /// Restores statistics directly (checkpoint loading). Sizes must match
  /// and stds must be positive.
  void SetStatistics(std::vector<float> means, std::vector<float> stds);

 private:
  std::vector<float> means_;
  std::vector<float> stds_;
};

/// Start offsets of sliding windows of `window` steps with the given stride;
/// if the tail does not align, a final window ending exactly at the series
/// end is added so every time step is covered.
std::vector<std::int64_t> WindowStarts(std::int64_t length,
                                       std::int64_t window,
                                       std::int64_t stride);

}  // namespace tfmae::data

#endif  // TFMAE_DATA_TIMESERIES_H_
