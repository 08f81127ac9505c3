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
// The kBiasGelu epilogue calls the shared GeLU of tensor/op_kernels.h, the
// one eager scoring, training and the fp32 plan run, and the int8 plan's
// softmax and score head are the fp32 plan's own ops: the int8 path
// changes the linear layers and nothing else.
#ifndef TFMAE_TENSOR_QUANT_KERNELS_H_
#define TFMAE_TENSOR_QUANT_KERNELS_H_

#include <cstdint>

namespace tfmae::quant {

/// The fixed activation zero point (u8 midpoint).
inline constexpr int kActZeroPoint = 128;

/// K rounded up to the multiple of 4 the packed layouts use.
constexpr std::int64_t RoundUpK4(std::int64_t k) { return (k + 3) & ~3LL; }

/// Bytes of packed weight storage for a [k, n] matrix.
constexpr std::int64_t PackedWeightBytes(std::int64_t k, std::int64_t n) {
  return RoundUpK4(k) * n;
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
  kBiasGelu = 2,  ///< out = GeluApprox(real + bias[n])
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
