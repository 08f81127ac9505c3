// Calibration score reference distribution for the online drift monitor
// (docs/OBSERVABILITY.md, "Live endpoints & SLOs"; ROADMAP item 5).
//
// At calibration time the detector scores the training windows anyway (to
// fit the anomaly threshold); BuildScoreDistribution snapshots those scores
// into a small fixed-bin linear histogram. The serving plane later compares
// a reservoir of recent online scores against this reference with the
// two-sample Kolmogorov-Smirnov distance (obs::KsDistance) and raises a
// `serve.drift` ledger event when the distance crosses the alarm threshold.
//
// The reference is persisted as the optional "score_ref" section of the
// detector file (TfmaeDetector::SaveCheckpoint); a detector loaded without
// one has no drift reference until the server builds one from calibration
// scores.
#ifndef TFMAE_CORE_DRIFT_H_
#define TFMAE_CORE_DRIFT_H_

#include <cstdint>
#include <vector>

namespace tfmae::core {

/// Fixed-bin linear histogram of calibration scores. Bin b covers
/// [lo + b*w, lo + (b+1)*w) with w = (hi - lo) / buckets.size(); the last
/// bin is closed on the right so hi itself lands in it.
struct ScoreDistribution {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;

  bool empty() const { return count == 0 || buckets.empty(); }
};

/// Default bin count: fine enough that KsDistance resolves a shifted score
/// distribution, coarse enough that the section stays a few hundred bytes.
inline constexpr int kScoreDistributionBins = 64;

/// Section name inside the detector file.
inline constexpr char kScoreRefSection[] = "score_ref";

/// Bins `scores` into a `bins`-bucket histogram spanning [min, max] of the
/// data (non-finite values are skipped). An empty or all-non-finite input
/// yields an empty() distribution. A constant input yields a single
/// populated bin with lo == hi.
ScoreDistribution BuildScoreDistribution(const std::vector<float>& scores,
                                         int bins = kScoreDistributionBins);

/// Returns the bin index of `value` in `dist` (clamped to the edge bins, so
/// online scores outside the calibration range accumulate in the extremes).
int ScoreDistributionBin(const ScoreDistribution& dist, double value);

/// Serializes a ScoreDistribution into a section payload (ByteWriter
/// format, versioned).
std::vector<char> EncodeScoreDistribution(const ScoreDistribution& dist);

/// Bounds-checked decode; returns false (`dist` untouched) on truncation,
/// version skew, a non-finite range, or an implausible bin count.
bool DecodeScoreDistribution(const std::vector<char>& payload,
                             ScoreDistribution* dist);

}  // namespace tfmae::core

#endif  // TFMAE_CORE_DRIFT_H_
