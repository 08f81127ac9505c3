// Shared forward compute kernels.
//
// Every kernel here is the single source of truth for one operator's
// forward arithmetic: the eager operator library (ops_basic.cc,
// ops_reduce.cc, ops_shape.cc) and the pre-planned inference executor
// (core/inference_plan.cc) both call these functions, so the two paths are
// bitwise-identical by construction — there is no second copy of the
// per-element math that could drift.
//
// Kernels are row- or range-level: parallel dispatch (and therefore chunk
// layout) stays with the caller. The ForEach* helpers re-export the
// deterministic dispatch of the eager ops for the replay executor; both
// cut chunks at fixed boundaries that depend only on the element/row
// counts, never the thread count (see util/thread_pool.h).
//
// FastExp and FastTanh are the one exp and tanh of the model's GeLU,
// softmax and SymKL score head on every path (eager, training, both
// plans): polynomials without libm, so every host and build computes the
// same bits. Each __m512 form runs its scalar form's operations in every
// lane (mul then add, never FMA), so a lane is bitwise the scalar result
// for any input and callers may mix the two freely. The generic
// Exp/Tanh/Sigmoid/LogSoftmax ops keep libm.
#ifndef TFMAE_TENSOR_OP_KERNELS_H_
#define TFMAE_TENSOR_OP_KERNELS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tfmae::ops::kernels {

/// Elementwise binary operator selector, shared between the eager BinaryOp
/// and the plan's Binary op.
enum class BinaryKind { kAdd = 0, kSub = 1, kMul = 2, kDiv = 3 };

template <BinaryKind K>
inline float ApplyBinary(float x, float y) {
  if constexpr (K == BinaryKind::kAdd) {
    return x + y;
  } else if constexpr (K == BinaryKind::kSub) {
    return x - y;
  } else if constexpr (K == BinaryKind::kMul) {
    return x * y;
  } else {
    return x / y;
  }
}

/// Walks the elements [s, e) of a tensor paired with an operand that
/// repeats every `period` elements, as runs that stay inside one period:
/// run(i, j, n) pairs elements [i, i + n) with operand elements [j, j + n).
/// One division per call, none per element.
template <typename Run>
inline void ForEachPeriodRun(std::int64_t period, std::int64_t s,
                             std::int64_t e, Run&& run) {
  std::int64_t j = s % period;
  for (std::int64_t i = s; i < e;) {
    const std::int64_t n = std::min(period - j, e - i);
    run(i, j, n);
    i += n;
    j = 0;
  }
}

/// out[i] = big[i] K small[i % period] (the operands swapped when
/// kSmallLhs) over [s, e), as contiguous runs. out may alias big. A scalar
/// small operand (period 1) is one run.
template <BinaryKind K, bool kSmallLhs>
void BroadcastBinaryRange(const float* big, const float* small,
                          std::int64_t period, std::int64_t s, std::int64_t e,
                          float* out) {
  if (period == 1) {
    const float c = small[0];
    for (std::int64_t i = s; i < e; ++i) {
      out[i] =
          kSmallLhs ? ApplyBinary<K>(c, big[i]) : ApplyBinary<K>(big[i], c);
    }
    return;
  }
  ForEachPeriodRun(period, s, e,
                   [=](std::int64_t i, std::int64_t j, std::int64_t n) {
                     const float* b = big + i;
                     const float* c = small + j;
                     float* o = out + i;
                     for (std::int64_t k = 0; k < n; ++k) {
                       o[k] = kSmallLhs ? ApplyBinary<K>(c[k], b[k])
                                        : ApplyBinary<K>(b[k], c[k]);
                     }
                   });
}

/// out = lhs `kind` rhs over the elements [s, e) of a binary op whose
/// smaller operand broadcasts (a scalar or a suffix shape: it repeats every
/// lhs_n or rhs_n elements); equal counts are the same-shape case. The one
/// forward of the eager BinaryOp and the plan's Binary op. out may alias
/// the larger operand.
void BinaryRange(BinaryKind kind, const float* lhs, std::int64_t lhs_n,
                 const float* rhs, std::int64_t rhs_n, std::int64_t s,
                 std::int64_t e, float* out);

/// FastExp's Taylor polynomial of 2^f, highest power first.
inline constexpr float kExp2Poly[7] = {
    1.5534392930963093e-4f, 1.3333558146428443e-3f, 9.6181291076284772e-3f,
    5.5504108664821580e-2f, 2.4022650695910071e-1f, 6.9314718055994531e-1f,
    1.0f};

/// Deterministic exp: 2^(x log2 e), the integer part of the exponent
/// written into the float exponent field and 2^f of the fraction f in
/// [0, 1) from kExp2Poly. The input is clamped to [-87, 88], so the result
/// is always a normal float. Relative error against exp, swept over the
/// clamp range in steps of 1e-5: at most 9.7e-6 on [-87, 0] and 1.14e-5
/// on (0, 88] (the truncated Taylor term, plus the rounding of x log2 e,
/// which grows with |x|); the test bound is 1.2e-5. NaN in gives NaN out.
inline float FastExp(float x) {
  // std::max/std::min keep a NaN first argument, so NaN passes the clamp.
  x = std::min(std::max(x, -87.0f), 88.0f);
  const float z = x * 1.442695040888963f;  // log2(e)
  const float zi = std::floor(z);
  const float f = z - zi;
  float p = kExp2Poly[0];
  for (int i = 1; i < 7; ++i) p = p * f + kExp2Poly[i];
  // zi is an integer in [-126, 126]. Converting a NaN to int is undefined,
  // so a NaN takes exponent 0 (the vector form's cvtps gives the same) and
  // the NaN in p carries through.
  const int e = zi == zi ? static_cast<int>(zi) : 0;
  return p * std::bit_cast<float>(static_cast<std::uint32_t>(e + 127) << 23);
}

/// tanh via one FastExp: tanh(u) = (e^{2u} - 1) / (e^{2u} + 1). Absolute
/// error against tanh: at most 3.9e-6, just below u = 0, where e^{2u} takes
/// the f -> 1 end of the polynomial.
inline float FastTanh(float u) {
  const float e2 = FastExp(2.0f * u);
  return (e2 - 1.0f) / (e2 + 1.0f);
}

/// sqrt(2/pi), the tanh-approximation constant of the paper's GELU.
constexpr float kGeluC = 0.7978845608028654f;

/// The argument of the tanh inside the GELU approximation.
inline float GeluInner(float v) {
  return kGeluC * (v + 0.044715f * v * v * v);
}

inline float GeluApprox(float v) {
  return 0.5f * v * (1.0f + FastTanh(GeluInner(v)));
}

#if defined(__AVX512F__)
// GCC 12 reports the _mm512_undefined_*() merge source that the unmasked
// min/max/shift/convert intrinsics pass as maybe-uninitialized wherever
// they inline; those forms never read it. The pragma covers these inline
// functions at every site they inline into.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
inline __m512 FastExpV(__m512 x) {
  // max_ps/min_ps return their second operand when either is NaN; this
  // operand order is std::max(x, lo) / std::min(x, hi) lane by lane.
  x = _mm512_min_ps(_mm512_set1_ps(88.0f),
                    _mm512_max_ps(_mm512_set1_ps(-87.0f), x));
  const __m512 z = _mm512_mul_ps(x, _mm512_set1_ps(1.442695040888963f));
  const __m512 zi = _mm512_floor_ps(z);
  const __m512 f = _mm512_sub_ps(z, zi);
  __m512 p = _mm512_set1_ps(kExp2Poly[0]);
  for (int i = 1; i < 7; ++i) {
    p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(kExp2Poly[i]));
  }
  // zi is integral, so the rounding cvtps equals the scalar truncating
  // cast; a NaN lane converts to INT_MIN, and (INT_MIN + 127) << 23 wraps
  // to the bits of 1.0f, the scalar form's exponent 0.
  const __m512i e = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_cvtps_epi32(zi), _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(p, _mm512_castsi512_ps(e));
}

inline __m512 FastTanhV(__m512 u) {
  const __m512 e2 = FastExpV(_mm512_mul_ps(_mm512_set1_ps(2.0f), u));
  const __m512 one = _mm512_set1_ps(1.0f);
  return _mm512_div_ps(_mm512_sub_ps(e2, one), _mm512_add_ps(e2, one));
}

inline __m512 GeluInnerV(__m512 v) {
  __m512 t = _mm512_mul_ps(_mm512_set1_ps(0.044715f), v);
  t = _mm512_mul_ps(t, v);
  t = _mm512_mul_ps(t, v);
  return _mm512_mul_ps(_mm512_set1_ps(kGeluC), _mm512_add_ps(v, t));
}

/// 0.5 v (1 + t), with t the tanh of GeluInnerV(v).
inline __m512 GeluFromTanhV(__m512 v, __m512 t) {
  return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), v),
                       _mm512_add_ps(_mm512_set1_ps(1.0f), t));
}

inline __m512 GeluApproxV(__m512 v) {
  return GeluFromTanhV(v, FastTanhV(GeluInnerV(v)));
}
#pragma GCC diagnostic pop
#endif  // __AVX512F__

/// out[i] = GeluApprox(x[i] + bias[i % bn]) over the elements [s, e) of a
/// tensor whose bias repeats every `bn` elements. When `tanh_out` is not
/// null it also receives the tanh inside each GeLU (the tracked op keeps it
/// for backward). Runs as dense 16-lane rows (ForEachPeriodRun).
void BiasGeluRange(const float* x, const float* bias, std::int64_t bn,
                   std::int64_t s, std::int64_t e, float* out,
                   float* tanh_out);

/// Softmax of `rows` rows of `cols` logits, each logit scaled first:
/// exactly Softmax(Scale(x, scale)), out[r][j] = FastExp(x[r][j] * scale -
/// max_r) / sum_r. `in` and `out` may not alias. The max and the exps run
/// 16 lanes wide; each row's sum is one ascending scalar sum (eight rows'
/// chains interleaved), so every output is bitwise the one-row scalar
/// loop's on any ISA and in any row grouping: a finite row has one max in
/// any order, and the exps of -0 and +0 are the same.
void SoftmaxRows(const float* in, float* out, std::int64_t rows,
                 std::int64_t cols, float scale);

/// One layer-norm row with affine parameters. Writes the row mean and
/// inverse std to *mean_out / *inv_std_out (the eager op caches them for
/// backward; the replay executor passes locals).
inline void LayerNormRow(const float* in, const float* gamma,
                         const float* beta, std::int64_t cols, float eps,
                         float* out, float* mean_out, float* inv_std_out) {
  float mu = 0.0f;
  for (std::int64_t j = 0; j < cols; ++j) mu += in[j];
  mu /= static_cast<float>(cols);
  float var = 0.0f;
  for (std::int64_t j = 0; j < cols; ++j) {
    const float d = in[j] - mu;
    var += d * d;
  }
  var /= static_cast<float>(cols);
  const float istd = 1.0f / std::sqrt(var + eps);
  *mean_out = mu;
  *inv_std_out = istd;
  for (std::int64_t j = 0; j < cols; ++j) {
    out[j] = (in[j] - mu) * istd * gamma[j] + beta[j];
  }
}

/// Symmetric KL divergence between the softmax distributions of two logit
/// rows (Eq. (16)). `p_tmp` / `q_tmp` are >= cols floats of scratch.
inline float SymmetricKlRow(const float* p_in, const float* q_in,
                            std::int64_t cols, float* p_tmp, float* q_tmp) {
  constexpr float kFloor = 1e-12f;
  SoftmaxRows(p_in, p_tmp, 1, cols, 1.0f);
  SoftmaxRows(q_in, q_tmp, 1, cols, 1.0f);
  double kl_pq = 0.0;
  double kl_qp = 0.0;
  for (std::int64_t j = 0; j < cols; ++j) {
    const double pj = std::max(p_tmp[j], kFloor);
    const double qj = std::max(q_tmp[j], kFloor);
    kl_pq += pj * std::log(pj / qj);
    kl_qp += qj * std::log(qj / pj);
  }
  return static_cast<float>(kl_pq + kl_qp);
}

/// Rank-3 permutation: out = transpose(in, perm) with in_shape the INPUT
/// shape. Serial (the tensors involved are small; matches the eager op).
/// Perm {1, 0, 2}, attention's head split and merge, copies whole rows of
/// the last dimension; other perms walk element by element.
void Permute3Forward(const float* in, float* out,
                     const std::array<std::int64_t, 3>& in_shape,
                     const std::array<int, 3>& perm);

// ---- Deterministic parallel dispatch ---------------------------------------

/// Same chunking as the eager elementwise ops (ops_internal.h
/// ParallelElems): serial below the threshold, fixed kElemGrain chunks
/// above.
void ForEachElemChunk(std::int64_t n,
                      const std::function<void(std::int64_t, std::int64_t)>& fn);

/// The row grain ParallelRows / ForEachRowChunk use for this row width.
std::int64_t RowChunkGrain(std::int64_t cols);

/// Same chunking as the eager row-wise ops (ops_internal.h ParallelRows).
/// Returns the grain used, for chunk-indexed scratch regions.
std::int64_t ForEachRowChunk(
    std::int64_t rows, std::int64_t cols,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace tfmae::ops::kernels

#endif  // TFMAE_TENSOR_OP_KERNELS_H_
