#include "tensor/quant_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "tensor/op_kernels.h"
#include "util/thread_pool.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tfmae::quant {
namespace {

// Fixed row grain for the ParallelFor dispatch: boundaries depend only on
// the row count, never the thread count (determinism contract).
constexpr std::int64_t kRowGrain = 8;

// Round half away from zero, the single rounding rule of the whole scheme.
inline int RoundHalfAway(float v) {
  return static_cast<int>(v >= 0.0f ? v + 0.5f : v - 0.5f);
}

inline float ApplyScalarEpilogue(std::int32_t acc, std::int64_t j,
                                 const float* col_scale,
                                 const std::int32_t* col_comp,
                                 const float* bias, float a_scale,
                                 Epilogue epilogue) {
  const std::int32_t corrected = acc + col_comp[j];
  const float cs = a_scale * col_scale[j];
  float real = static_cast<float>(corrected) * cs;
  if (epilogue != Epilogue::kNone) real = real + bias[j];
  if (epilogue == Epilogue::kBiasGelu) real = ops::kernels::GeluApprox(real);
  return real;
}

void ScalarRows(const std::uint8_t* a, const std::int8_t* packed_b,
                const float* col_scale, const std::int32_t* col_comp,
                const float* bias, float a_scale, Epilogue epilogue,
                float* out, std::int64_t k4, std::int64_t n, std::int64_t s,
                std::int64_t e) {
  const std::int64_t kb_count = k4 / 4;
  for (std::int64_t i = s; i < e; ++i) {
    const std::uint8_t* arow = a + i * k4;
    float* orow = out + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t kb = 0; kb < kb_count; ++kb) {
        const std::int8_t* bp = packed_b + (kb * n + j) * 4;
        const std::uint8_t* ap = arow + kb * 4;
        acc += static_cast<std::int32_t>(ap[0]) * bp[0];
        acc += static_cast<std::int32_t>(ap[1]) * bp[1];
        acc += static_cast<std::int32_t>(ap[2]) * bp[2];
        acc += static_cast<std::int32_t>(ap[3]) * bp[3];
      }
      orow[j] = ApplyScalarEpilogue(acc, j, col_scale, col_comp, bias,
                                    a_scale, epilogue);
    }
  }
}

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#define TFMAE_QUANT_HAVE_VNNI 1

void VnniRows(const std::uint8_t* a, const std::int8_t* packed_b,
              const float* col_scale, const std::int32_t* col_comp,
              const float* bias, float a_scale, Epilogue epilogue, float* out,
              std::int64_t k4, std::int64_t n, std::int64_t s,
              std::int64_t e) {
  const std::int64_t kb_count = k4 / 4;
  const __m512 a_scale_v = _mm512_set1_ps(a_scale);
  for (std::int64_t i = s; i < e; ++i) {
    const std::uint8_t* arow = a + i * k4;
    float* orow = out + i * n;
    for (std::int64_t j0 = 0; j0 < n; j0 += 16) {
      const int jw = static_cast<int>(std::min<std::int64_t>(16, n - j0));
      const __mmask16 mask =
          jw == 16 ? static_cast<__mmask16>(0xffff)
                   : static_cast<__mmask16>((1u << jw) - 1u);
      __m512i acc = _mm512_setzero_si512();
      for (std::int64_t kb = 0; kb < kb_count; ++kb) {
        std::uint32_t adword;
        std::memcpy(&adword, arow + kb * 4, 4);
        const __m512i av = _mm512_set1_epi32(static_cast<int>(adword));
        const __m512i bv = _mm512_maskz_loadu_epi32(
            mask, packed_b + (kb * n + j0) * 4);
        acc = _mm512_dpbusd_epi32(acc, av, bv);
      }
      acc = _mm512_add_epi32(acc,
                             _mm512_maskz_loadu_epi32(mask, col_comp + j0));
      // Mul-then-add, never FMA: the scalar reference rounds twice and the
      // SIMD paths must match it bit for bit.
      const __m512 cs = _mm512_mul_ps(
          a_scale_v, _mm512_maskz_loadu_ps(mask, col_scale + j0));
      // The pragma is FastExpV's (op_kernels.h), for _mm512_cvtepi32_ps.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      __m512 real = _mm512_mul_ps(_mm512_cvtepi32_ps(acc), cs);
#pragma GCC diagnostic pop
      if (epilogue != Epilogue::kNone) {
        real = _mm512_add_ps(real, _mm512_maskz_loadu_ps(mask, bias + j0));
      }
      // GeluApproxV is per-lane bitwise the scalar GeluApprox, so the ISA
      // paths keep matching the scalar reference exactly.
      if (epilogue == Epilogue::kBiasGelu) {
        real = ops::kernels::GeluApproxV(real);
      }
      _mm512_mask_storeu_ps(orow + j0, mask, real);
    }
  }
}
#endif  // AVX-512 VNNI

#if defined(__AVX2__)
#define TFMAE_QUANT_HAVE_AVX2 1

// Exact AVX2 kernel: u8 and s8 are widened to 16 bit before madd_epi16, so
// unlike the maddubs shortcut there is no intermediate s16 saturation — the
// result is the same exact integer the scalar loop produces.
void Avx2Rows(const std::uint8_t* a, const std::int8_t* packed_b,
              const float* col_scale, const std::int32_t* col_comp,
              const float* bias, float a_scale, Epilogue epilogue, float* out,
              std::int64_t k4, std::int64_t n, std::int64_t s,
              std::int64_t e) {
  const std::int64_t kb_count = k4 / 4;
  const std::int64_t n4 = n & ~3LL;  // columns handled four at a time
  for (std::int64_t i = s; i < e; ++i) {
    const std::uint8_t* arow = a + i * k4;
    float* orow = out + i * n;
    for (std::int64_t j0 = 0; j0 < n4; j0 += 4) {
      // acc8 holds two partial sums per column: lanes (2c, 2c+1) belong to
      // column j0+c and are combined after the K loop (integer adds are
      // exact, so the split changes nothing).
      __m256i acc8 = _mm256_setzero_si256();
      for (std::int64_t kb = 0; kb < kb_count; ++kb) {
        std::uint32_t adword;
        std::memcpy(&adword, arow + kb * 4, 4);
        const __m128i a8 = _mm_cvtsi32_si128(static_cast<int>(adword));
        const __m128i a16 = _mm_cvtepu8_epi16(a8);  // 4 u16 in the low half
        const __m256i a16rep =
            _mm256_set1_epi64x(_mm_cvtsi128_si64(a16));
        const __m128i b8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            packed_b + (kb * n + j0) * 4));
        const __m256i b16 = _mm256_cvtepi8_epi16(b8);
        acc8 = _mm256_add_epi32(acc8, _mm256_madd_epi16(a16rep, b16));
      }
      alignas(32) std::int32_t pairs[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(pairs), acc8);
      for (int c = 0; c < 4; ++c) {
        const std::int32_t acc = pairs[2 * c] + pairs[2 * c + 1];
        orow[j0 + c] = ApplyScalarEpilogue(acc, j0 + c, col_scale, col_comp,
                                           bias, a_scale, epilogue);
      }
    }
    for (std::int64_t j = n4; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t kb = 0; kb < kb_count; ++kb) {
        const std::int8_t* bp = packed_b + (kb * n + j) * 4;
        const std::uint8_t* ap = arow + kb * 4;
        acc += static_cast<std::int32_t>(ap[0]) * bp[0] +
               static_cast<std::int32_t>(ap[1]) * bp[1] +
               static_cast<std::int32_t>(ap[2]) * bp[2] +
               static_cast<std::int32_t>(ap[3]) * bp[3];
      }
      orow[j] = ApplyScalarEpilogue(acc, j, col_scale, col_comp, bias,
                                    a_scale, epilogue);
    }
  }
}
#endif  // __AVX2__

using RowKernel = void (*)(const std::uint8_t*, const std::int8_t*,
                           const float*, const std::int32_t*, const float*,
                           float, Epilogue, float*, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t);

void RunRows(RowKernel kernel, const std::uint8_t* a,
             const std::int8_t* packed_b, const float* col_scale,
             const std::int32_t* col_comp, const float* bias, float a_scale,
             Epilogue epilogue, float* out, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  const std::int64_t k4 = RoundUpK4(k);
  ParallelFor(0, m, kRowGrain, [&](std::int64_t s, std::int64_t e) {
    kernel(a, packed_b, col_scale, col_comp, bias, a_scale, epilogue, out,
           k4, n, s, e);
  });
}

void PackQuantizedColumn(const float* col_src, std::int64_t stride,
                         std::int64_t k, std::int64_t n, std::int64_t j,
                         std::int8_t* packed, float* col_scale,
                         std::int32_t* col_comp, const float* row_scale) {
  const auto elem = [&](std::int64_t kk) {
    const float w = col_src[kk * stride];
    return row_scale != nullptr ? w * row_scale[kk] : w;
  };
  float absmax = 0.0f;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    absmax = std::max(absmax, std::fabs(elem(kk)));
  }
  // All-zero (or denormal-tiny) columns quantize to zeros under any scale;
  // clamp so the stored scale is never 0/inf/NaN.
  const float scale = absmax > 1e-30f ? absmax / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  col_scale[j] = scale;
  std::int32_t sum = 0;
  const std::int64_t k4 = RoundUpK4(k);
  for (std::int64_t kk = 0; kk < k4; ++kk) {
    std::int8_t q = 0;
    if (kk < k) {
      const int r = RoundHalfAway(elem(kk) * inv);
      q = static_cast<std::int8_t>(std::min(127, std::max(-127, r)));
    }
    packed[((kk / 4) * n + j) * 4 + (kk % 4)] = q;
    sum += q;
  }
  col_comp[j] = -kActZeroPoint * sum;
}

}  // namespace

void QuantizeU8(const float* src, std::uint8_t* dst, std::int64_t m,
                std::int64_t k, float inv_scale) {
  const std::int64_t k4 = RoundUpK4(k);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* srow = src + i * k;
    std::uint8_t* drow = dst + i * k4;
    for (std::int64_t j = 0; j < k; ++j) {
      const int q = RoundHalfAway(srow[j] * inv_scale) + kActZeroPoint;
      drow[j] = static_cast<std::uint8_t>(std::min(255, std::max(0, q)));
    }
    for (std::int64_t j = k; j < k4; ++j) drow[j] = 0;
  }
}

void QuantizeU8PerChannel(const float* src, std::uint8_t* dst, std::int64_t m,
                          std::int64_t k, const float* inv_scale) {
  const std::int64_t k4 = RoundUpK4(k);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* srow = src + i * k;
    std::uint8_t* drow = dst + i * k4;
    for (std::int64_t j = 0; j < k; ++j) {
      const int q = RoundHalfAway(srow[j] * inv_scale[j]) + kActZeroPoint;
      drow[j] = static_cast<std::uint8_t>(std::min(255, std::max(0, q)));
    }
    for (std::int64_t j = k; j < k4; ++j) drow[j] = 0;
  }
}

void QuantizePackWeights(const float* w, std::int64_t k, std::int64_t n,
                         std::int8_t* packed, float* col_scale,
                         std::int32_t* col_comp, const float* row_scale) {
  for (std::int64_t j = 0; j < n; ++j) {
    PackQuantizedColumn(w + j, n, k, n, j, packed, col_scale, col_comp,
                        row_scale);
  }
}

void QuantizePackWeightsT(const float* w_t, std::int64_t k, std::int64_t n,
                          std::int8_t* packed, float* col_scale,
                          std::int32_t* col_comp, const float* row_scale) {
  for (std::int64_t j = 0; j < n; ++j) {
    PackQuantizedColumn(w_t + j * k, 1, k, n, j, packed, col_scale, col_comp,
                        row_scale);
  }
}

void QuantLinearScalar(const std::uint8_t* a, const std::int8_t* packed_b,
                       const float* col_scale, const std::int32_t* col_comp,
                       const float* bias, float a_scale, Epilogue epilogue,
                       float* out, std::int64_t m, std::int64_t k,
                       std::int64_t n) {
  RunRows(ScalarRows, a, packed_b, col_scale, col_comp, bias, a_scale,
          epilogue, out, m, k, n);
}

void QuantLinear(const std::uint8_t* a, const std::int8_t* packed_b,
                 const float* col_scale, const std::int32_t* col_comp,
                 const float* bias, float a_scale, Epilogue epilogue,
                 float* out, std::int64_t m, std::int64_t k, std::int64_t n) {
#if defined(TFMAE_QUANT_HAVE_VNNI)
  RunRows(VnniRows, a, packed_b, col_scale, col_comp, bias, a_scale, epilogue,
          out, m, k, n);
#elif defined(TFMAE_QUANT_HAVE_AVX2)
  RunRows(Avx2Rows, a, packed_b, col_scale, col_comp, bias, a_scale, epilogue,
          out, m, k, n);
#else
  RunRows(ScalarRows, a, packed_b, col_scale, col_comp, bias, a_scale,
          epilogue, out, m, k, n);
#endif
}

const char* QuantGemmIsa() {
#if defined(TFMAE_QUANT_HAVE_VNNI)
  return "avx512vnni";
#elif defined(TFMAE_QUANT_HAVE_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

bool QuantLinearPath(const char* isa, const std::uint8_t* a,
                     const std::int8_t* packed_b, const float* col_scale,
                     const std::int32_t* col_comp, const float* bias,
                     float a_scale, Epilogue epilogue, float* out,
                     std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::string name(isa);
  if (name == "scalar") {
    RunRows(ScalarRows, a, packed_b, col_scale, col_comp, bias, a_scale,
            epilogue, out, m, k, n);
    return true;
  }
#if defined(TFMAE_QUANT_HAVE_AVX2)
  if (name == "avx2") {
    RunRows(Avx2Rows, a, packed_b, col_scale, col_comp, bias, a_scale,
            epilogue, out, m, k, n);
    return true;
  }
#endif
#if defined(TFMAE_QUANT_HAVE_VNNI)
  if (name == "avx512vnni") {
    RunRows(VnniRows, a, packed_b, col_scale, col_comp, bias, a_scale,
            epilogue, out, m, k, n);
    return true;
  }
#endif
  return false;
}

}  // namespace tfmae::quant
