#include "fft/fft.h"

#include <cmath>

#include "obs/trace.h"
#include "util/length_cache.h"
#include "util/logging.h"

namespace tfmae::fft {
namespace {

// Bit-reversal permutation for the iterative radix-2 transform.
void BitReverse(std::vector<Complex>* data) {
  const std::size_t n = data->size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap((*data)[i], (*data)[j]);
  }
}

// Bluestein's constants for one length and direction: the chirp
// w[t] = exp(sign * i * pi * t^2 / n) and the power-of-two spectrum of its
// wrapped conjugate, the convolution filter. Neither depends on the input.
struct BluesteinTables {
  std::vector<Complex> chirp;
  std::vector<Complex> filter;
};

BluesteinTables MakeBluesteinTables(std::int64_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  BluesteinTables tables;
  // t^2 is taken mod 2n to keep the argument small and the chirp exactly
  // periodic.
  std::vector<Complex>& chirp = tables.chirp;
  chirp.resize(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t t2 = (t * t) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(t2) /
                         static_cast<double>(n);
    chirp[static_cast<std::size_t>(t)] = Complex(std::cos(angle),
                                                 std::sin(angle));
  }
  const std::int64_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Complex>& b = tables.filter;
  b.assign(static_cast<std::size_t>(m), Complex(0, 0));
  b[0] = std::conj(chirp[0]);
  for (std::int64_t t = 1; t < n; ++t) {
    const Complex value = std::conj(chirp[static_cast<std::size_t>(t)]);
    b[static_cast<std::size_t>(t)] = value;
    b[static_cast<std::size_t>(m - t)] = value;
  }
  FftPow2(&b, /*inverse=*/false);
  return tables;
}

// Keyed by 2n + inverse.
LengthCache<BluesteinTables> g_bluestein_tables;

// Bluestein's algorithm: expresses an arbitrary-length DFT as a convolution,
// evaluated with a power-of-two FFT.
std::vector<Complex> Bluestein(const std::vector<Complex>& input,
                               bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const BluesteinTables& tables = g_bluestein_tables.Get(
      2 * n + (inverse ? 1 : 0),
      [n, inverse] { return MakeBluesteinTables(n, inverse); });
  const std::vector<Complex>& chirp = tables.chirp;
  const std::vector<Complex>& filter = tables.filter;
  const std::size_t m = filter.size();

  std::vector<Complex> a(m, Complex(0, 0));
  for (std::int64_t t = 0; t < n; ++t) {
    a[static_cast<std::size_t>(t)] = MulFma(input[static_cast<std::size_t>(t)],
                                            chirp[static_cast<std::size_t>(t)]);
  }
  FftPow2(&a, /*inverse=*/false);
  for (std::size_t i = 0; i < m; ++i) a[i] = MulFma(a[i], filter[i]);
  FftPow2(&a, /*inverse=*/true);

  std::vector<Complex> output(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    output[static_cast<std::size_t>(k)] = MulFma(
        a[static_cast<std::size_t>(k)], chirp[static_cast<std::size_t>(k)]);
  }
  return output;
}

}  // namespace

bool IsPowerOfTwo(std::int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::int64_t NextPowerOfTwo(std::int64_t n) {
  std::int64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void FftPow2(std::vector<Complex>* data, bool inverse) {
  const std::size_t n = data->size();
  TFMAE_CHECK_MSG(IsPowerOfTwo(static_cast<std::int64_t>(n)),
                  "FftPow2 requires a power-of-two length, got " << n);
  if (n == 1) return;
  BitReverse(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = (*data)[i + j];
        const Complex v = (*data)[i + j + len / 2] * w;
        (*data)[i + j] = u + v;
        (*data)[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& value : *data) value *= inv_n;
  }
}

std::vector<Complex> Fft(const std::vector<Complex>& input) {
  TFMAE_CHECK(!input.empty());
  TFMAE_TRACE("fft.fft");
  TFMAE_COUNTER_ADD("fft.fft.points", input.size());
  if (IsPowerOfTwo(static_cast<std::int64_t>(input.size()))) {
    std::vector<Complex> data = input;
    FftPow2(&data, /*inverse=*/false);
    return data;
  }
  return Bluestein(input, /*inverse=*/false);
}

std::vector<Complex> Ifft(const std::vector<Complex>& input) {
  TFMAE_CHECK(!input.empty());
  TFMAE_TRACE("fft.ifft");
  TFMAE_COUNTER_ADD("fft.ifft.points", input.size());
  const double inv_n = 1.0 / static_cast<double>(input.size());
  if (IsPowerOfTwo(static_cast<std::int64_t>(input.size()))) {
    std::vector<Complex> data = input;
    FftPow2(&data, /*inverse=*/true);
    return data;
  }
  std::vector<Complex> out = Bluestein(input, /*inverse=*/true);
  for (auto& value : out) value *= inv_n;
  return out;
}

std::vector<Complex> RealFft(const std::vector<double>& input) {
  std::vector<Complex> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) data[i] = Complex(input[i], 0);
  return Fft(data);
}

std::vector<double> RealIfft(const std::vector<Complex>& spectrum) {
  std::vector<Complex> inv = Ifft(spectrum);
  std::vector<double> out(inv.size());
  for (std::size_t i = 0; i < inv.size(); ++i) out[i] = inv[i].real();
  return out;
}

std::vector<Complex> NaiveDft(const std::vector<Complex>& input,
                              bool inverse) {
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> output(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    Complex acc(0, 0);
    for (std::int64_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += input[static_cast<std::size_t>(t)] *
             Complex(std::cos(angle), std::sin(angle));
    }
    if (inverse) acc /= static_cast<double>(n);
    output[static_cast<std::size_t>(k)] = acc;
  }
  return output;
}

std::vector<double> Amplitude(const std::vector<Complex>& spectrum) {
  std::vector<double> amp(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) amp[i] = std::abs(spectrum[i]);
  return amp;
}

}  // namespace tfmae::fft
