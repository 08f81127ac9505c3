// Tests for the FFT library: agreement with the reference DFT, inverse
// round-trips across lengths (including non-powers-of-two via Bluestein),
// convolution, the moving-sum primitives behind Eq. (5), the per-length
// caches, and bit fingerprints that every build must reproduce.
#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "fft/convolution.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace tfmae::fft {
namespace {

std::vector<Complex> RandomSignal(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> signal(static_cast<std::size_t>(n));
  for (auto& value : signal) {
    value = Complex(rng.Normal(), rng.Normal());
  }
  return signal;
}

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(100));
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(100), 128);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024);
}

TEST(FftTest, MatchesNaiveDftSmall) {
  const std::vector<Complex> signal = RandomSignal(8, 1);
  const std::vector<Complex> fast = Fft(signal);
  const std::vector<Complex> slow = NaiveDft(signal);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-9);
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-9);
  }
}

TEST(FftTest, KnownSpectrumOfImpulse) {
  // DFT of a unit impulse at t=0 is all-ones.
  std::vector<Complex> impulse(16, Complex(0, 0));
  impulse[0] = Complex(1, 0);
  const std::vector<Complex> spectrum = Fft(impulse);
  for (const Complex& bin : spectrum) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, KnownSpectrumOfCosine) {
  // cos(2*pi*k0*t/n) has amplitude n/2 at bins k0 and n-k0.
  const std::int64_t n = 32;
  const std::int64_t k0 = 5;
  std::vector<Complex> signal(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    signal[static_cast<std::size_t>(t)] =
        Complex(std::cos(2.0 * M_PI * k0 * t / static_cast<double>(n)), 0);
  }
  const std::vector<double> amplitude = Amplitude(Fft(signal));
  for (std::int64_t k = 0; k < n; ++k) {
    if (k == k0 || k == n - k0) {
      EXPECT_NEAR(amplitude[static_cast<std::size_t>(k)], n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(amplitude[static_cast<std::size_t>(k)], 0.0, 1e-9);
    }
  }
}

// Round-trip across many lengths, exercising both radix-2 and Bluestein.
class FftRoundTripTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(FftRoundTripTest, IfftInvertsFft) {
  const std::int64_t n = GetParam();
  const std::vector<Complex> signal = RandomSignal(n, 1000 + n);
  const std::vector<Complex> recovered = Ifft(Fft(signal));
  ASSERT_EQ(recovered.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(recovered[i].real(), signal[i].real(), 1e-8) << "n=" << n;
    EXPECT_NEAR(recovered[i].imag(), signal[i].imag(), 1e-8) << "n=" << n;
  }
}

TEST_P(FftRoundTripTest, MatchesNaiveDft) {
  const std::int64_t n = GetParam();
  if (n > 256) GTEST_SKIP() << "naive DFT too slow";
  const std::vector<Complex> signal = RandomSignal(n, 2000 + n);
  const std::vector<Complex> fast = Fft(signal);
  const std::vector<Complex> slow = NaiveDft(signal);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-7) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 50, 100, 127,
                                           128, 255, 256, 1000, 1024));

TEST(FftTest, RealFftRoundTrip) {
  Rng rng(7);
  std::vector<double> signal(100);
  for (double& v : signal) v = rng.Normal();
  const std::vector<double> recovered = RealIfft(RealFft(signal));
  ASSERT_EQ(recovered.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_NEAR(recovered[i], signal[i], 1e-8);
  }
}

TEST(FftTest, RealSpectrumIsConjugateSymmetric) {
  Rng rng(8);
  std::vector<double> signal(64);
  for (double& v : signal) v = rng.Normal();
  const std::vector<Complex> spectrum = RealFft(signal);
  for (std::size_t k = 1; k < signal.size(); ++k) {
    const Complex conj = std::conj(spectrum[signal.size() - k]);
    EXPECT_NEAR(spectrum[k].real(), conj.real(), 1e-8);
    EXPECT_NEAR(spectrum[k].imag(), conj.imag(), 1e-8);
  }
}

// Every score downstream of masking depends on the spectra's exact bits, so
// a sanitizer build must compute the bits the Release build computes. The
// CRC-32s below were recorded from a Release build linked against glibc;
// they change when a compiler fuses a product the source does not
// (src/fft/CMakeLists.txt), or when libm's cos/sin round differently.
// Inputs are small multiples of 1/4, exact in double.
TEST(FftTest, BitsMatchFingerprintsInEveryBuild) {
  const auto crc = [](const auto& v) {
    return util::Crc32(v.data(), v.size() * sizeof(v[0]));
  };
  std::vector<Complex> x50(50);
  for (int t = 0; t < 50; ++t) {
    x50[t] = Complex(0.25 * ((t * 7) % 13 - 6), 0.25 * ((t * 5) % 11 - 5));
  }
  const std::vector<Complex> x32(x50.begin(), x50.begin() + 32);
  std::vector<double> series(50);
  for (int t = 0; t < 50; ++t) series[t] = 0.5 * ((t * 3) % 17 - 8);

  EXPECT_EQ(crc(Fft(x50)), 0xd1daafb0u);  // Bluestein
  EXPECT_EQ(crc(Ifft(x50)), 0x62fcbd7du);
  EXPECT_EQ(crc(Fft(x32)), 0xdec81590u);  // radix-2
  EXPECT_EQ(crc(Ifft(x32)), 0x138e5fc8u);
  EXPECT_EQ(crc(MovingSumFft(series, 10)), 0x0dff19f2u);
}

TEST(ConvolutionTest, FftMatchesNaive) {
  Rng rng(9);
  std::vector<double> a(37);
  std::vector<double> b(12);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  const std::vector<double> fast = FftConvolve(a, b);
  const std::vector<double> slow = NaiveConvolve(a, b);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-8);
  }
}

TEST(ConvolutionTest, CachedMovingSumEqualsFftConvolveBitwise) {
  Rng rng(10);
  for (const std::int64_t n : {1, 5, 50, 100, 333}) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.Normal();
    for (const std::int64_t w : {1, 3, 10, 25, 400}) {
      std::vector<double> expected = FftConvolve(
          x, std::vector<double>(static_cast<std::size_t>(std::min(w, n)),
                                 1.0));
      expected.resize(x.size());
      // Twice: the first call builds the kernel spectrum, the second reads
      // it from the cache.
      for (int call = 0; call < 2; ++call) {
        const std::vector<double> sums = MovingSumFft(x, w);
        ASSERT_EQ(sums.size(), expected.size());
        EXPECT_EQ(std::memcmp(sums.data(), expected.data(),
                              sums.size() * sizeof(double)),
                  0)
            << "n=" << n << " w=" << w << " call " << call;
      }
    }
  }
}

TEST(FftTest, LengthCachesBuiltConcurrentlyAgree) {
  // Four threads race to build the Bluestein and moving-sum caches of
  // lengths nothing else in this test has used; every thread must see the
  // bits a lone caller sees.
  const std::vector<std::int64_t> lengths = {37, 45, 77, 90};
  const auto run = [&lengths] {
    std::vector<std::uint32_t> crcs;
    for (const std::int64_t n : lengths) {
      std::vector<Complex> x(static_cast<std::size_t>(n));
      std::vector<double> real(static_cast<std::size_t>(n));
      for (std::int64_t t = 0; t < n; ++t) {
        real[static_cast<std::size_t>(t)] = std::sin(0.37 * t) + 0.01 * t;
        x[static_cast<std::size_t>(t)] =
            Complex(real[static_cast<std::size_t>(t)], std::cos(0.11 * t));
      }
      const std::vector<Complex> forward = Fft(x);
      const std::vector<Complex> inverse = Ifft(x);
      const std::vector<double> sums = MovingSumFft(real, n / 3);
      crcs.push_back(util::Crc32(forward.data(),
                                 forward.size() * sizeof(Complex)));
      crcs.push_back(util::Crc32(inverse.data(),
                                 inverse.size() * sizeof(Complex)));
      crcs.push_back(util::Crc32(sums.data(), sums.size() * sizeof(double)));
    }
    return crcs;
  };
  std::vector<std::vector<std::uint32_t>> per_thread(4);
  std::vector<std::thread> threads;
  for (auto& crcs : per_thread) {
    threads.emplace_back([&crcs, &run] { crcs = run(); });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<std::uint32_t> lone = run();
  for (const auto& crcs : per_thread) EXPECT_EQ(crcs, lone);
}

class MovingSumTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(MovingSumTest, FftMatchesNaive) {
  const auto [n, w] = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(n * 31 + w));
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.Normal();
  const std::vector<double> fast = fft::MovingSumFft(x, w);
  const std::vector<double> slow = fft::MovingSumNaive(x, w);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7) << "n=" << n << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MovingSumTest,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 5, 50, 100, 333),
                       ::testing::Values<std::int64_t>(1, 3, 10, 25)));

TEST(MovingSumTest, KnownValues) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> sums = MovingSumNaive(x, 3);
  // Truncated prefix windows at the head.
  EXPECT_NEAR(sums[0], 1.0, 1e-12);
  EXPECT_NEAR(sums[1], 3.0, 1e-12);
  EXPECT_NEAR(sums[2], 6.0, 1e-12);
  EXPECT_NEAR(sums[3], 9.0, 1e-12);
  EXPECT_NEAR(sums[4], 12.0, 1e-12);
}

}  // namespace
}  // namespace tfmae::fft
