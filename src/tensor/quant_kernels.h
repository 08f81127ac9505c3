// Int8 inference kernels: quantize/dequantize, the u8 x s8 -> s32 GEMM
// family, and the fused dequantization epilogues the quantized inference
// plan replays (DESIGN.md §12).
//
// Scheme (fixed across the repository):
//  * Activations are quantized to u8 with a FIXED zero point of 128 and a
//    PER-TENSOR scale calibrated from training absmax ranges — every
//    channel of a slot shares step = absmax / 127:
//      q[.,c] = clamp(round_half_away(x[.,c] / step) + 128, 0, 255).
//    The machinery is per-channel (the step is carried as a scale vector
//    folded into the weight side at pack time: row k of the weight is
//    pre-multiplied by scale[k], so the integer GEMM and its epilogue are
//    oblivious to it — the kernels below take a single a_scale, which the
//    folded path passes as 1), but calibration deliberately emits a
//    uniform vector: SmoothQuant-style per-channel steps and extra
//    headroom were both tried and measurably hurt F1 parity (see
//    CalibrateQuantSpec in src/core/quant.cc, which also keeps the
//    score-forming final decoder layers in fp32).
//  * Weights are quantized to s8 symmetrically with one scale PER OUTPUT
//    CHANNEL (per column of the [in, out] weight matrix):
//      wq = clamp(round_half_away(w / col_scale[n]), -127, 127).
//  * The integer GEMM accumulates sum_k a_q[m,k] * w_q[k,n] exactly in s32;
//    the fixed zero point is removed afterwards with a precomputed
//    per-column compensation term comp[n] = -128 * sum_k w_q[k,n], so
//      real[m,n] ~= (acc[m,n] + comp[n]) * a_scale * col_scale[n].
//
// Determinism contract, matching gemm_kernels.h: integer accumulation is
// exact (no rounding anywhere in the K loop), chunk boundaries depend only
// on shapes, and the float epilogue is computed per output element from
// that element's exact s32 accumulator — so every kernel here is bitwise
// thread-count-invariant, and the AVX-512-VNNI / AVX2 / scalar
// implementations all produce bit-identical outputs (the SIMD paths reorder
// additions of exactly-representable integers only).
//
// Weights are packed once at plan-build time into the VNNI-friendly
// [k4/4, n, 4] interleave (k4 = k rounded up to a multiple of 4, padded
// with zeros), which both the AVX-512 `vpdpbusd` path and the AVX2
// `madd_epi16` path consume directly.
//
// The Fast* transcendental kernels below are the quantized plan's
// replacements for the exp/tanh-heavy fp32 epilogues (GeLU, softmax). They
// are deterministic polynomial evaluations (no libm), accurate to ~1e-7
// relative, and are used ONLY on the int8 path — the fp32 plan keeps libm
// so it stays bitwise-identical to eager scoring.
#ifndef TFMAE_TENSOR_QUANT_KERNELS_H_
#define TFMAE_TENSOR_QUANT_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tfmae::quant {

/// The fixed activation zero point (u8 midpoint).
inline constexpr int kActZeroPoint = 128;

/// K rounded up to the multiple of 4 the packed layouts use.
constexpr std::int64_t RoundUpK4(std::int64_t k) { return (k + 3) & ~3LL; }

/// Bytes of packed weight storage for a [k, n] matrix.
constexpr std::int64_t PackedWeightBytes(std::int64_t k, std::int64_t n) {
  return RoundUpK4(k) * n;
}

/// Deterministic float exp: 2^(x log2 e) with the exponent split into an
/// integer part (applied via the float exponent field) and a degree-6
/// polynomial on the fraction. ~2e-7 relative error, monotone, no libm.
inline float FastExp(float x) {
  x = std::min(std::max(x, -87.0f), 88.0f);
  const float z = x * 1.442695040888963f;  // log2(e)
  const float zi = std::floor(z);
  const float f = z - zi;
  // 2^f on [0, 1): Taylor expansion of exp(f ln 2), degree 6.
  float p = 1.5534392930963093e-4f;
  p = p * f + 1.3333558146428443e-3f;
  p = p * f + 9.6181291076284772e-3f;
  p = p * f + 5.5504108664821580e-2f;
  p = p * f + 2.4022650695910071e-1f;
  p = p * f + 6.9314718055994531e-1f;
  p = p * f + 1.0f;
  union {
    std::uint32_t u;
    float f32;
  } scale;
  scale.u = static_cast<std::uint32_t>(static_cast<int>(zi) + 127) << 23;
  return p * scale.f32;
}

/// tanh via one FastExp: tanh(u) = (e^{2u} - 1) / (e^{2u} + 1).
inline float FastTanh(float u) {
  const float e2 = FastExp(2.0f * u);
  return (e2 - 1.0f) / (e2 + 1.0f);
}

/// The paper's tanh-approximation GELU with FastTanh inside — the int8
/// epilogue twin of ops::kernels::GeluApprox.
inline float FastGelu(float v) {
  const float kC = 0.7978845608028654f;  // sqrt(2/pi), == kn::kGeluC
  const float inner = kC * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + FastTanh(inner));
}

#if defined(__AVX512F__)
/// 16-lane FastExp. Lane i is the EXACT operation sequence of the scalar
/// FastExp (min/max clamp, mul, floor, mul-then-add Horner — never FMA,
/// which -ffp-contract=off also forbids in the scalar form), so each lane
/// is bitwise-identical to FastExp of that lane's input. zi is integral,
/// so round-to-nearest cvtps matches the scalar truncating cast.
inline __m512 FastExpV(__m512 x) {
  x = _mm512_min_ps(_mm512_max_ps(x, _mm512_set1_ps(-87.0f)),
                    _mm512_set1_ps(88.0f));
  const __m512 z = _mm512_mul_ps(x, _mm512_set1_ps(1.442695040888963f));
  const __m512 zi = _mm512_floor_ps(z);
  const __m512 f = _mm512_sub_ps(z, zi);
  __m512 p = _mm512_set1_ps(1.5534392930963093e-4f);
  p = _mm512_add_ps(_mm512_mul_ps(p, f),
                    _mm512_set1_ps(1.3333558146428443e-3f));
  p = _mm512_add_ps(_mm512_mul_ps(p, f),
                    _mm512_set1_ps(9.6181291076284772e-3f));
  p = _mm512_add_ps(_mm512_mul_ps(p, f),
                    _mm512_set1_ps(5.5504108664821580e-2f));
  p = _mm512_add_ps(_mm512_mul_ps(p, f),
                    _mm512_set1_ps(2.4022650695910071e-1f));
  p = _mm512_add_ps(_mm512_mul_ps(p, f),
                    _mm512_set1_ps(6.9314718055994531e-1f));
  p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(1.0f));
  const __m512i e = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_cvtps_epi32(zi), _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(p, _mm512_castsi512_ps(e));
}

/// 16-lane FastTanh; per-lane bitwise-identical to the scalar form
/// (IEEE division matches the scalar `/` exactly).
inline __m512 FastTanhV(__m512 u) {
  const __m512 e2 = FastExpV(_mm512_mul_ps(_mm512_set1_ps(2.0f), u));
  const __m512 one = _mm512_set1_ps(1.0f);
  return _mm512_div_ps(_mm512_sub_ps(e2, one), _mm512_add_ps(e2, one));
}

/// 16-lane FastGelu; per-lane bitwise-identical to the scalar form.
inline __m512 FastGeluV(__m512 v) {
  __m512 t = _mm512_mul_ps(_mm512_set1_ps(0.044715f), v);
  t = _mm512_mul_ps(t, v);
  t = _mm512_mul_ps(t, v);
  const __m512 inner =
      _mm512_mul_ps(_mm512_set1_ps(0.7978845608028654f), _mm512_add_ps(v, t));
  const __m512 th = FastTanhV(inner);
  return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), v),
                       _mm512_add_ps(_mm512_set1_ps(1.0f), th));
}
#endif  // __AVX512F__

/// out[j] = FastGelu(x[j] + bias[j]) over one bias-aligned span. The
/// AVX-512 body is per-element bitwise-identical to the scalar loop, so
/// callers may mix the two freely (chunk prologues, tails, non-AVX hosts).
inline void BiasGeluRowFast(const float* x, const float* bias, float* out,
                            std::int64_t n) {
  std::int64_t j = 0;
#if defined(__AVX512F__)
  for (; j + 16 <= n; j += 16) {
    const __m512 v =
        _mm512_add_ps(_mm512_loadu_ps(x + j), _mm512_loadu_ps(bias + j));
    _mm512_storeu_ps(out + j, FastGeluV(v));
  }
#endif
  for (; j < n; ++j) out[j] = FastGelu(x[j] + bias[j]);
}

/// One softmax row computed with FastExp (same max-subtraction form as
/// ops::kernels::SoftmaxRow). `in` and `out` may not alias. The AVX-512
/// body reorders only the exact max reduction and the exp sum; the summed
/// terms themselves are bitwise-identical to the scalar FastExp, and the
/// reduction order is fixed by `cols` alone, so the row stays deterministic
/// and thread-count-invariant (rows are never split across threads).
inline void SoftmaxRowFast(const float* in, float* out, std::int64_t cols) {
#if defined(__AVX512F__)
  if (cols >= 16) {
    std::int64_t j = 16;
    __m512 maxv = _mm512_loadu_ps(in);
    for (; j + 16 <= cols; j += 16) {
      maxv = _mm512_max_ps(maxv, _mm512_loadu_ps(in + j));
    }
    float max_v = _mm512_reduce_max_ps(maxv);
    for (; j < cols; ++j) max_v = std::max(max_v, in[j]);
    const __m512 max_bcast = _mm512_set1_ps(max_v);
    __m512 sumv = _mm512_setzero_ps();
    j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512 e =
          FastExpV(_mm512_sub_ps(_mm512_loadu_ps(in + j), max_bcast));
      _mm512_storeu_ps(out + j, e);
      sumv = _mm512_add_ps(sumv, e);
    }
    float sum = _mm512_reduce_add_ps(sumv);
    for (; j < cols; ++j) {
      out[j] = FastExp(in[j] - max_v);
      sum += out[j];
    }
    const float inv = 1.0f / sum;
    const __m512 invv = _mm512_set1_ps(inv);
    j = 0;
    for (; j + 16 <= cols; j += 16) {
      _mm512_storeu_ps(out + j, _mm512_mul_ps(_mm512_loadu_ps(out + j), invv));
    }
    for (; j < cols; ++j) out[j] *= inv;
    return;
  }
#endif
  float max_v = in[0];
  for (std::int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, in[j]);
  float sum = 0.0f;
  for (std::int64_t j = 0; j < cols; ++j) {
    out[j] = FastExp(in[j] - max_v);
    sum += out[j];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t j = 0; j < cols; ++j) out[j] *= inv;
}

/// Fast twin of ops::kernels::ScaleSoftmaxRow.
inline void ScaleSoftmaxRowFast(const float* in, float* out,
                                std::int64_t cols, float scale, float* tmp) {
  std::int64_t j = 0;
#if defined(__AVX512F__)
  const __m512 sv = _mm512_set1_ps(scale);
  for (; j + 16 <= cols; j += 16) {
    _mm512_storeu_ps(tmp + j, _mm512_mul_ps(_mm512_loadu_ps(in + j), sv));
  }
#endif
  for (; j < cols; ++j) tmp[j] = in[j] * scale;
  SoftmaxRowFast(tmp, out, cols);
}

/// Quantizes a row-major [m, k] fp32 activation into u8 [m, k4] with
/// k4 = RoundUpK4(k); the padding columns are written as zero (they meet
/// zero weight lanes, so they never contribute). inv_scale = 1 / a_scale.
/// Rounding is round-half-away-from-zero, identical in every ISA path.
void QuantizeU8(const float* src, std::uint8_t* dst, std::int64_t m,
                std::int64_t k, float inv_scale);

/// Per-channel variant: column j of the activation uses its own calibrated
/// inv_scale[j]. The matching channel scale is folded into the packed
/// weights (`row_scale` below), so the GEMM epilogue still sees a single
/// a_scale of 1 — per-channel activation steps at zero replay cost.
void QuantizeU8PerChannel(const float* src, std::uint8_t* dst, std::int64_t m,
                          std::int64_t k, const float* inv_scale);

/// Dequantizes u8 [m, k4] back to fp32 [m, k] (tests / diagnostics; the
/// inference path never materializes dequantized activations).
void DequantizeU8(const std::uint8_t* src, float* dst, std::int64_t m,
                  std::int64_t k, float scale);

/// Quantizes a [k, n] row-major fp32 weight matrix to s8 with per-column
/// scales and packs it into the [k4/4, n, 4] interleave. Outputs:
///  * packed:    PackedWeightBytes(k, n) bytes
///  * col_scale: n floats, col_scale[j] = max_k |w[k,j]| / 127 (clamped to
///               a tiny positive floor so all-zero columns stay finite)
///  * col_comp:  n s32 zero-point compensations, -128 * sum_k wq[k,j]
/// When `row_scale` is non-null, w[k, j] is replaced by
/// w[k, j] * row_scale[k] before quantization — this folds the per-channel
/// activation scales into the weight side (the activation is then
/// quantized by QuantizeU8PerChannel with 1 / row_scale and the epilogue
/// a_scale is 1).
void QuantizePackWeights(const float* w, std::int64_t k, std::int64_t n,
                         std::int8_t* packed, float* col_scale,
                         std::int32_t* col_comp,
                         const float* row_scale = nullptr);

/// Transposed variant: the weight is stored row-major as [n, k] (each row
/// one output channel). Produces the exact same packed layout / scales /
/// compensation as QuantizePackWeights on the equivalent [k, n] matrix.
void QuantizePackWeightsT(const float* w_t, std::int64_t k, std::int64_t n,
                          std::int8_t* packed, float* col_scale,
                          std::int32_t* col_comp,
                          const float* row_scale = nullptr);

/// Fused dequantization epilogue applied to each s32 accumulator.
enum class Epilogue {
  kNone = 0,      ///< out = real
  kBias = 1,      ///< out = real + bias[n]
  kBiasGelu = 2,  ///< out = FastGelu(real + bias[n])
};

/// The int8 linear kernel: u8 [m, k4] activation x packed s8 weights ->
/// fp32 [m, n] with the dequantization (+ bias / + bias + GeLU) epilogue
/// fused — the s32 accumulators live in registers and are never stored.
/// `bias` may be null for Epilogue::kNone. Deterministic and bitwise
/// thread-count-invariant; allocation-free.
void QuantLinear(const std::uint8_t* a, const std::int8_t* packed_b,
                 const float* col_scale, const std::int32_t* col_comp,
                 const float* bias, float a_scale, Epilogue epilogue,
                 float* out, std::int64_t m, std::int64_t k, std::int64_t n);

/// Portable reference implementation (plain integer loops + the identical
/// scalar epilogue). The SIMD paths must match it bit-for-bit; tests and
/// the capture self-verification lean on this.
void QuantLinearScalar(const std::uint8_t* a, const std::int8_t* packed_b,
                       const float* col_scale, const std::int32_t* col_comp,
                       const float* bias, float a_scale, Epilogue epilogue,
                       float* out, std::int64_t m, std::int64_t k,
                       std::int64_t n);

/// Which SIMD path QuantLinear dispatches to ("avx512vnni", "avx2",
/// "scalar") — surfaced in the quant ledger event.
const char* QuantGemmIsa();

/// Runs one named implementation ("scalar", "avx2", "avx512vnni") with the
/// QuantLinear signature; returns false when that path is not compiled on
/// this host. Tests sweep every available path against the scalar
/// reference and require bitwise identity.
bool QuantLinearPath(const char* isa, const std::uint8_t* a,
                     const std::int8_t* packed_b, const float* col_scale,
                     const std::int32_t* col_comp, const float* bias,
                     float a_scale, Epilogue epilogue, float* out,
                     std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace tfmae::quant

#endif  // TFMAE_TENSOR_QUANT_KERNELS_H_
