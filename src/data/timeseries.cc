#include "data/timeseries.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace tfmae::data {

TimeSeries TimeSeries::Zeros(std::int64_t length, std::int64_t num_features) {
  TFMAE_CHECK(length >= 0 && num_features >= 1);
  TimeSeries ts;
  ts.length = length;
  ts.num_features = num_features;
  ts.values.assign(static_cast<std::size_t>(length * num_features), 0.0f);
  return ts;
}

double TimeSeries::AnomalyRatio() const {
  if (labels.empty() || length == 0) return 0.0;
  std::int64_t count = 0;
  for (std::uint8_t label : labels) count += label;
  return static_cast<double>(count) / static_cast<double>(length);
}

TimeSeries TimeSeries::Slice(std::int64_t start, std::int64_t len) const {
  TFMAE_CHECK(start >= 0 && len >= 0 && start + len <= length);
  TimeSeries out;
  out.length = len;
  out.num_features = num_features;
  out.values.assign(
      values.begin() + static_cast<std::ptrdiff_t>(start * num_features),
      values.begin() +
          static_cast<std::ptrdiff_t>((start + len) * num_features));
  if (!labels.empty()) {
    out.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(start),
                      labels.begin() + static_cast<std::ptrdiff_t>(start + len));
  }
  return out;
}

void ZScoreNormalizer::Fit(const TimeSeries& train) {
  TFMAE_CHECK(train.length > 0);
  const std::int64_t n_feat = train.num_features;
  means_.assign(static_cast<std::size_t>(n_feat), 0.0f);
  stds_.assign(static_cast<std::size_t>(n_feat), 1.0f);
  for (std::int64_t n = 0; n < n_feat; ++n) {
    double sum = 0.0;
    for (std::int64_t t = 0; t < train.length; ++t) sum += train.at(t, n);
    const double mean = sum / static_cast<double>(train.length);
    double sq = 0.0;
    for (std::int64_t t = 0; t < train.length; ++t) {
      const double d = train.at(t, n) - mean;
      sq += d * d;
    }
    const double std_dev =
        std::sqrt(sq / static_cast<double>(train.length));
    means_[static_cast<std::size_t>(n)] = static_cast<float>(mean);
    stds_[static_cast<std::size_t>(n)] =
        std_dev < 1e-6 ? 1.0f : static_cast<float>(std_dev);
  }
}

void ZScoreNormalizer::SetStatistics(std::vector<float> means,
                                     std::vector<float> stds) {
  TFMAE_CHECK(means.size() == stds.size() && !means.empty());
  for (float s : stds) TFMAE_CHECK_MSG(s > 0.0f, "non-positive std");
  means_ = std::move(means);
  stds_ = std::move(stds);
}

TimeSeries ZScoreNormalizer::Apply(const TimeSeries& series) const {
  TFMAE_CHECK_MSG(static_cast<std::size_t>(series.num_features) ==
                      means_.size(),
                  "normalizer fitted on a different feature count");
  TimeSeries out = series;
  ApplyRows(out.values.data(), out.length, out.values.data());
  return out;
}

void ZScoreNormalizer::ApplyRows(const float* in, std::int64_t rows,
                                 float* out) const {
  const std::size_t n_feat = means_.size();
  for (std::size_t i = 0; i < static_cast<std::size_t>(rows) * n_feat;
       i += n_feat) {
    for (std::size_t n = 0; n < n_feat; ++n) {
      out[i + n] = (in[i + n] - means_[n]) / stds_[n];
    }
  }
}

std::vector<std::int64_t> WindowStarts(std::int64_t length,
                                       std::int64_t window,
                                       std::int64_t stride) {
  TFMAE_CHECK(window >= 1 && stride >= 1);
  std::vector<std::int64_t> starts;
  if (length < window) return starts;
  std::int64_t start = 0;
  for (; start + window <= length; start += stride) starts.push_back(start);
  if (starts.back() + window != length) starts.push_back(length - window);
  return starts;
}

}  // namespace tfmae::data
