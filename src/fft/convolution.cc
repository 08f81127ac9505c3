#include "fft/convolution.h"

#include <algorithm>

#include "fft/fft.h"
#include "util/logging.h"

namespace tfmae::fft {

std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b) {
  TFMAE_CHECK(!a.empty() && !b.empty());
  const std::int64_t out_len =
      static_cast<std::int64_t>(a.size() + b.size()) - 1;
  const std::int64_t padded = NextPowerOfTwo(out_len);
  std::vector<Complex> fa(static_cast<std::size_t>(padded), Complex(0, 0));
  std::vector<Complex> fb(static_cast<std::size_t>(padded), Complex(0, 0));
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = Complex(a[i], 0);
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = Complex(b[i], 0);
  FftPow2(&fa, /*inverse=*/false);
  FftPow2(&fb, /*inverse=*/false);
  // fb first: MulFma fuses the products of fa's real part.
  for (std::int64_t i = 0; i < padded; ++i) {
    fa[static_cast<std::size_t>(i)] = MulFma(fb[static_cast<std::size_t>(i)],
                                             fa[static_cast<std::size_t>(i)]);
  }
  FftPow2(&fa, /*inverse=*/true);
  std::vector<double> out(static_cast<std::size_t>(out_len));
  for (std::int64_t i = 0; i < out_len; ++i) {
    out[static_cast<std::size_t>(i)] = fa[static_cast<std::size_t>(i)].real();
  }
  return out;
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
  const std::vector<double> ones(static_cast<std::size_t>(
                                     std::min<std::int64_t>(
                                         w, static_cast<std::int64_t>(x.size()))),
                                 1.0);
  // conv(x, ones)[t] = sum_{j} x[t - j] * 1 for j in [0, w), which is exactly
  // the trailing-window sum once truncated to the first |x| outputs.
  std::vector<double> conv = FftConvolve(x, ones);
  conv.resize(x.size());
  return conv;
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
