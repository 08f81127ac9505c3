// Tests for the temporal-frequency masking strategies (paper Section IV-A):
// CV statistic correctness (naive == FFT), scale invariance, TopIndex,
// mask-variant behaviour, and the frequency-mask decomposition identity.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "fft/fft.h"
#include "masking/coefficient_of_variation.h"
#include "masking/frequency_mask.h"
#include "masking/temporal_mask.h"
#include "util/rng.h"

namespace tfmae::masking {
namespace {

std::vector<float> RandomSeries(std::int64_t length, std::int64_t features,
                                std::uint64_t seed, float offset = 0.0f) {
  Rng rng(seed);
  std::vector<float> series(static_cast<std::size_t>(length * features));
  for (float& v : series) v = static_cast<float>(rng.Normal()) + offset;
  return series;
}

class CvEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(CvEquivalenceTest, NaiveAndFftAgree) {
  const auto [length, features, window] = GetParam();
  const std::vector<float> series = RandomSeries(length, features, 3, 2.0f);
  const auto naive =
      CoefficientOfVariation(series, length, features, window,
                             CvMethod::kNaive);
  const auto fft =
      CoefficientOfVariation(series, length, features, window,
                             CvMethod::kFft);
  ASSERT_EQ(naive.size(), fft.size());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i], fft[i], 1e-5 * std::max(1.0, std::abs(naive[i])))
        << "t=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CvEquivalenceTest,
    ::testing::Combine(::testing::Values<std::int64_t>(10, 50, 100, 257),
                       ::testing::Values<std::int64_t>(1, 3),
                       ::testing::Values<std::int64_t>(1, 5, 10)));

TEST(CvTest, FlatSeriesHasZeroDispersion) {
  const std::vector<float> series(100, 5.0f);
  const auto scores =
      CoefficientOfVariation(series, 100, 1, 10, CvMethod::kNaive);
  for (double v : scores) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(CvTest, SpikeRaisesLocalDispersion) {
  std::vector<float> series(100, 1.0f);
  series[50] = 10.0f;
  const auto scores =
      CoefficientOfVariation(series, 100, 1, 10, CvMethod::kFft);
  // The spike's trailing windows (t in [50, 59]) must dominate.
  double max_elsewhere = 0.0;
  for (std::size_t t = 0; t < 100; ++t) {
    if (t < 50 || t > 59) max_elsewhere = std::max(max_elsewhere, scores[t]);
  }
  EXPECT_GT(scores[50], max_elsewhere * 10);
}

TEST(CvTest, ScaleInvarianceOfCvVsStdDev) {
  // The CV criterion is (approximately) invariant to rescaling the data;
  // the std-dev criterion is not — exactly the paper's argument for CV.
  std::vector<float> series = RandomSeries(200, 1, 5, 10.0f);
  std::vector<float> scaled = series;
  for (float& v : scaled) v *= 100.0f;

  const auto cv1 = CoefficientOfVariation(series, 200, 1, 10, CvMethod::kNaive);
  const auto cv2 = CoefficientOfVariation(scaled, 200, 1, 10, CvMethod::kNaive);
  const auto top1 = TopIndex(cv1, 20);
  const auto top2 = TopIndex(cv2, 20);
  // Same observations selected after rescaling (CV ratio scales ~linearly in
  // the scale factor only through the +eps guard; ordering is preserved).
  std::size_t common = 0;
  for (std::int64_t a : top1) {
    for (std::int64_t b : top2) {
      if (a == b) {
        ++common;
        break;
      }
    }
  }
  EXPECT_GE(common, 18u);

  const auto sd1 = SlidingStdDev(series, 200, 1, 10);
  const auto sd2 = SlidingStdDev(scaled, 200, 1, 10);
  // Std-dev scores scale by 100x — not scale-free.
  EXPECT_NEAR(sd2[100] / std::max(sd1[100], 1e-12), 100.0, 1.0);
}

TEST(TopIndexTest, ReturnsLargestInOrder) {
  const std::vector<double> values = {0.5, 3.0, -1.0, 2.0, 3.0};
  const auto top = TopIndex(values, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);  // 3.0 (first occurrence wins the tie)
  EXPECT_EQ(top[1], 4);  // 3.0
  EXPECT_EQ(top[2], 3);  // 2.0
}

TEST(TopIndexTest, EdgeCounts) {
  const std::vector<double> values = {1, 2, 3};
  EXPECT_TRUE(TopIndex(values, 0).empty());
  EXPECT_EQ(TopIndex(values, 3).size(), 3u);
}

TEST(TemporalMaskTest, RatioControlsMaskedCount) {
  const std::vector<float> series = RandomSeries(100, 2, 6);
  Rng rng(1);
  for (double ratio : {0.0, 0.1, 0.25, 0.5, 0.95}) {
    const TemporalMask mask = ComputeTemporalMask(
        series, 100, 2, 10, ratio,
        TemporalMaskVariant::kCoefficientOfVariation, CvMethod::kFft, &rng);
    EXPECT_EQ(static_cast<std::int64_t>(mask.masked.size()),
              static_cast<std::int64_t>(ratio * 100));
    EXPECT_EQ(mask.masked.size() + mask.unmasked.size(), 100u);
    // Disjoint and sorted.
    for (std::size_t i = 1; i < mask.masked.size(); ++i) {
      EXPECT_LT(mask.masked[i - 1], mask.masked[i]);
    }
  }
}

TEST(TemporalMaskTest, MasksThePlantedAnomaly) {
  std::vector<float> series(100, 1.0f);
  series[42] = 25.0f;
  Rng rng(2);
  const TemporalMask mask = ComputeTemporalMask(
      series, 100, 1, 10, 0.1, TemporalMaskVariant::kCoefficientOfVariation,
      CvMethod::kFft, &rng);
  EXPECT_TRUE(std::find(mask.masked.begin(), mask.masked.end(), 42) !=
              mask.masked.end());
}

TEST(TemporalMaskTest, NoneVariantMasksNothing) {
  const std::vector<float> series = RandomSeries(50, 1, 7);
  Rng rng(3);
  const TemporalMask mask =
      ComputeTemporalMask(series, 50, 1, 10, 0.5, TemporalMaskVariant::kNone,
                          CvMethod::kFft, &rng);
  EXPECT_TRUE(mask.masked.empty());
  EXPECT_EQ(mask.unmasked.size(), 50u);
}

TEST(TemporalMaskTest, RandomVariantIsSeedDeterministic) {
  const std::vector<float> series = RandomSeries(80, 1, 8);
  Rng rng1(4);
  Rng rng2(4);
  const auto m1 = ComputeTemporalMask(series, 80, 1, 10, 0.3,
                                      TemporalMaskVariant::kRandom,
                                      CvMethod::kFft, &rng1);
  const auto m2 = ComputeTemporalMask(series, 80, 1, 10, 0.3,
                                      TemporalMaskVariant::kRandom,
                                      CvMethod::kFft, &rng2);
  EXPECT_EQ(m1.masked, m2.masked);
}

TEST(FrequencyMaskTest, RatioControlsMaskedBins) {
  Rng rng(9);
  std::vector<float> column(100);
  for (float& v : column) v = static_cast<float>(rng.Normal());
  for (double ratio : {0.0, 0.2, 0.5}) {
    const auto masked =
        MaskFrequencyColumn(column, ratio, FrequencyMaskVariant::kAmplitude,
                            nullptr);
    EXPECT_EQ(static_cast<std::int64_t>(masked.masked_bins.size()),
              static_cast<std::int64_t>(ratio * 100));
  }
}

TEST(FrequencyMaskTest, ZeroRatioIsIdentity) {
  Rng rng(10);
  std::vector<float> column(64);
  for (float& v : column) v = static_cast<float>(rng.Normal());
  const auto masked = MaskFrequencyColumn(
      column, 0.0, FrequencyMaskVariant::kAmplitude, nullptr);
  for (std::size_t t = 0; t < column.size(); ++t) {
    EXPECT_NEAR(masked.base[t], column[t], 1e-5);
    EXPECT_EQ(masked.cos_coef[t], 0.0f);
    EXPECT_EQ(masked.sin_coef[t], 0.0f);
  }
}

TEST(FrequencyMaskTest, DecompositionMatchesDirectSubstitution) {
  // base + re*C + im*S must equal the IDFT with masked bins literally set
  // to the token value (Eq. (9)-(10)).
  Rng rng(11);
  std::vector<float> column(50);
  for (float& v : column) v = static_cast<float>(rng.Normal());
  const auto masked = MaskFrequencyColumn(
      column, 0.3, FrequencyMaskVariant::kAmplitude, nullptr);
  const float token_re = 0.7f;
  const float token_im = -1.3f;
  const std::vector<float> assembled =
      AssembleMaskedColumn(masked, token_re, token_im);

  // Direct route: replace masked bins in the spectrum with the token.
  std::vector<double> column_d(column.begin(), column.end());
  auto spectrum = fft::RealFft(column_d);
  for (std::int64_t bin : masked.masked_bins) {
    spectrum[static_cast<std::size_t>(bin)] =
        fft::Complex(token_re, token_im);
  }
  const std::vector<double> direct = fft::RealIfft(spectrum);
  for (std::size_t t = 0; t < column.size(); ++t) {
    EXPECT_NEAR(assembled[t], direct[t], 1e-4) << "t=" << t;
  }
}

TEST(FrequencyMaskTest, AmplitudeVariantMasksLowestAmplitudes) {
  // Signal = strong cosine at k0 plus tiny noise: the strong bins must
  // survive any reasonable masking ratio.
  const std::int64_t n = 64;
  const std::int64_t k0 = 4;
  Rng rng(12);
  std::vector<float> column(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    column[static_cast<std::size_t>(t)] = static_cast<float>(
        10.0 * std::cos(2.0 * M_PI * k0 * t / static_cast<double>(n)) +
        0.01 * rng.Normal());
  }
  const auto masked = MaskFrequencyColumn(
      column, 0.5, FrequencyMaskVariant::kAmplitude, nullptr);
  for (std::int64_t bin : masked.masked_bins) {
    EXPECT_NE(bin, k0);
    EXPECT_NE(bin, n - k0);
  }
}

TEST(FrequencyMaskTest, HighFrequencyVariantMasksNyquistNeighborhood) {
  Rng rng(13);
  std::vector<float> column(40);
  for (float& v : column) v = static_cast<float>(rng.Normal());
  const auto masked = MaskFrequencyColumn(
      column, 0.2, FrequencyMaskVariant::kHighFrequency, nullptr);
  // All masked bins have frequency index >= the largest unmasked one.
  std::int64_t min_masked_frequency = 40;
  for (std::int64_t bin : masked.masked_bins) {
    min_masked_frequency =
        std::min(min_masked_frequency, std::min(bin, 40 - bin));
  }
  EXPECT_GE(min_masked_frequency, 40 / 2 - 8 / 2);  // near Nyquist
}

// The coefficient loop MaskFrequencyColumn ran before its per-length table:
// one std::cos and std::sin per (masked bin, t). Test-only reference.
void DirectTrigCoefficients(const std::vector<std::int64_t>& masked_bins,
                            std::int64_t length, std::vector<float>* cos_coef,
                            std::vector<float>* sin_coef) {
  cos_coef->assign(static_cast<std::size_t>(length), 0.0f);
  sin_coef->assign(static_cast<std::size_t>(length), 0.0f);
  const double inv_len = 1.0 / static_cast<double>(length);
  for (std::int64_t bin : masked_bins) {
    for (std::int64_t t = 0; t < length; ++t) {
      const double angle = 2.0 * M_PI * static_cast<double>(bin) *
                           static_cast<double>(t) * inv_len;
      (*cos_coef)[static_cast<std::size_t>(t)] +=
          static_cast<float>(std::cos(angle) * inv_len);
      (*sin_coef)[static_cast<std::size_t>(t)] -=
          static_cast<float>(std::sin(angle) * inv_len);
    }
  }
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(FrequencyMaskTest, TabledCoefficientsEqualDirectTrigBitwise) {
  // 600 is past the table's length cap, so it covers the untabled path.
  for (const std::int64_t length : {2, 7, 32, 50, 100, 600}) {
    for (const FrequencyMaskVariant variant :
         {FrequencyMaskVariant::kAmplitude,
          FrequencyMaskVariant::kHighFrequency, FrequencyMaskVariant::kRandom,
          FrequencyMaskVariant::kNone}) {
      SCOPED_TRACE(::testing::Message()
                   << "length " << length << " variant "
                   << static_cast<int>(variant));
      const std::vector<float> column =
          RandomSeries(length, 1, 30 + static_cast<std::uint64_t>(length));
      Rng rng(5);
      const FrequencyMaskedColumn masked =
          MaskFrequencyColumn(column, 0.5, variant, &rng);
      EXPECT_EQ(masked.masked_bins.size(),
                variant == FrequencyMaskVariant::kNone
                    ? 0u
                    : static_cast<std::size_t>(length / 2));
      std::vector<float> cos_coef;
      std::vector<float> sin_coef;
      DirectTrigCoefficients(masked.masked_bins, length, &cos_coef,
                             &sin_coef);
      EXPECT_TRUE(SameBits(masked.cos_coef, cos_coef));
      EXPECT_TRUE(SameBits(masked.sin_coef, sin_coef));

      // The strided form on an interleaved copy of the column is the same
      // computation.
      std::vector<float> interleaved(static_cast<std::size_t>(3 * length));
      for (std::int64_t t = 0; t < length; ++t) {
        interleaved[static_cast<std::size_t>(3 * t + 1)] =
            column[static_cast<std::size_t>(t)];
      }
      Rng strided_rng(5);
      FrequencyMaskedColumn strided;
      MaskFrequencyColumnInto(interleaved.data() + 1, length, 3, 0.5, variant,
                              &strided_rng, &strided);
      EXPECT_TRUE(SameBits(strided.base, masked.base));
      EXPECT_TRUE(SameBits(strided.cos_coef, masked.cos_coef));
      EXPECT_TRUE(SameBits(strided.sin_coef, masked.sin_coef));
      EXPECT_EQ(strided.masked_bins, masked.masked_bins);
    }
  }
}

}  // namespace
}  // namespace tfmae::masking
