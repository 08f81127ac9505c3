// Calibration score reference distribution (core/drift.h).
#include "core/drift.h"

#include <cmath>
#include <utility>

#include "util/checkpoint_file.h"

namespace tfmae::core {
namespace {

constexpr std::uint32_t kScoreRefVersion = 1;

// Hard ceiling on the decoded bin count: a corrupt length prefix must fail
// the decode, not drive a huge allocation.
constexpr std::uint64_t kMaxBins = 1 << 16;

}  // namespace

ScoreDistribution BuildScoreDistribution(const std::vector<float>& scores,
                                         int bins) {
  ScoreDistribution dist;
  if (bins <= 0) return dist;
  double lo = 0.0;
  double hi = 0.0;
  bool seen = false;
  for (float s : scores) {
    if (!std::isfinite(s)) continue;
    const double v = static_cast<double>(s);
    if (!seen) {
      lo = hi = v;
      seen = true;
    } else {
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
  }
  if (!seen) return dist;
  dist.lo = lo;
  dist.hi = hi;
  dist.buckets.assign(static_cast<std::size_t>(bins), 0);
  for (float s : scores) {
    if (!std::isfinite(s)) continue;
    const int b = ScoreDistributionBin(dist, static_cast<double>(s));
    ++dist.buckets[static_cast<std::size_t>(b)];
    ++dist.count;
  }
  return dist;
}

int ScoreDistributionBin(const ScoreDistribution& dist, double value) {
  const int bins = static_cast<int>(dist.buckets.size());
  if (bins <= 1) return 0;
  const double width = (dist.hi - dist.lo) / static_cast<double>(bins);
  if (!(width > 0.0)) return 0;  // constant calibration: everything in bin 0
  int b = static_cast<int>(std::floor((value - dist.lo) / width));
  if (b < 0) b = 0;
  if (b >= bins) b = bins - 1;
  return b;
}

std::vector<char> EncodeScoreDistribution(const ScoreDistribution& dist) {
  util::ByteWriter w;
  w.U32(kScoreRefVersion);
  w.F64(dist.lo);
  w.F64(dist.hi);
  w.U64(dist.count);
  w.U32(static_cast<std::uint32_t>(dist.buckets.size()));
  for (std::uint64_t b : dist.buckets) w.U64(b);
  return w.Take();
}

bool DecodeScoreDistribution(const std::vector<char>& payload,
                             ScoreDistribution* dist) {
  util::ByteReader r(payload);
  std::uint32_t version = 0;
  if (!r.U32(&version) || version != kScoreRefVersion) return false;
  ScoreDistribution out;
  std::uint32_t bins = 0;
  if (!r.F64(&out.lo) || !r.F64(&out.hi) || !r.U64(&out.count) ||
      !r.U32(&bins)) {
    return false;
  }
  if (bins > kMaxBins) return false;
  if (!std::isfinite(out.lo) || !std::isfinite(out.hi) || out.hi < out.lo) {
    return false;
  }
  out.buckets.resize(bins);
  std::uint64_t total = 0;
  for (std::uint64_t& b : out.buckets) {
    if (!r.U64(&b)) return false;
    total += b;
  }
  if (total != out.count) return false;
  if (!r.AtEnd()) return false;
  *dist = std::move(out);
  return true;
}

}  // namespace tfmae::core
