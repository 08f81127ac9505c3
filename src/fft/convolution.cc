#include "fft/convolution.h"

#include <algorithm>

#include "fft/fft.h"
#include "util/length_cache.h"
#include "util/logging.h"

namespace tfmae::fft {

namespace {

// FFT of `b` zero-padded to `padded` points.
std::vector<Complex> PaddedSpectrum(const std::vector<double>& b,
                                    std::int64_t padded) {
  std::vector<Complex> fb(static_cast<std::size_t>(padded), Complex(0, 0));
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = Complex(b[i], 0);
  FftPow2(&fb, /*inverse=*/false);
  return fb;
}

// The first `out_len` points of a (*) b, given b's spectrum at the padded
// length: the shared tail of FftConvolve and MovingSumFft.
std::vector<double> ConvolveWithSpectrum(const std::vector<double>& a,
                                         const std::vector<Complex>& fb,
                                         std::int64_t out_len) {
  std::vector<Complex> fa(fb.size(), Complex(0, 0));
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = Complex(a[i], 0);
  FftPow2(&fa, /*inverse=*/false);
  // fb first: MulFma fuses the products of fa's real part.
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] = MulFma(fb[i], fa[i]);
  FftPow2(&fa, /*inverse=*/true);
  std::vector<double> out(static_cast<std::size_t>(out_len));
  for (std::int64_t i = 0; i < out_len; ++i) {
    out[static_cast<std::size_t>(i)] = fa[static_cast<std::size_t>(i)].real();
  }
  return out;
}

// Ones-kernel spectra of MovingSumFft, keyed by (series length, kernel
// width).
LengthCache<std::vector<Complex>> g_ones_spectra;

}  // namespace

std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b) {
  TFMAE_CHECK(!a.empty() && !b.empty());
  const std::int64_t out_len =
      static_cast<std::int64_t>(a.size() + b.size()) - 1;
  return ConvolveWithSpectrum(a, PaddedSpectrum(b, NextPowerOfTwo(out_len)),
                              out_len);
}

std::vector<double> NaiveConvolve(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  TFMAE_CHECK(!a.empty() && !b.empty());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> MovingSumFft(const std::vector<double>& x,
                                 std::int64_t w) {
  TFMAE_CHECK(w >= 1);
  if (x.empty()) return {};
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  const std::int64_t width = std::min(w, n);
  // conv(x, ones)[t] = sum_{j} x[t - j] * 1 for j in [0, w), which is exactly
  // the trailing-window sum once truncated to the first |x| outputs. The
  // ones kernel's spectrum depends on (n, width) alone, so it is cached:
  // the result is bitwise FftConvolve(x, ones) truncated.
  const std::vector<Complex>& ones_spectrum =
      g_ones_spectra.Get((n << 32) | width, [n, width] {
        return PaddedSpectrum(
            std::vector<double>(static_cast<std::size_t>(width), 1.0),
            NextPowerOfTwo(n + width - 1));
      });
  return ConvolveWithSpectrum(x, ones_spectrum, n);
}

std::vector<double> MovingSumNaive(const std::vector<double>& x,
                                   std::int64_t w) {
  TFMAE_CHECK(w >= 1);
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<double> out(x.size(), 0.0);
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t lo = std::max<std::int64_t>(0, t - w + 1);
    double acc = 0.0;
    for (std::int64_t k = lo; k <= t; ++k) {
      acc += x[static_cast<std::size_t>(k)];
    }
    out[static_cast<std::size_t>(t)] = acc;
  }
  return out;
}

}  // namespace tfmae::fft
