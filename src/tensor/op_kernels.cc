#include "tensor/op_kernels.h"

#include <cstring>

#include "tensor/ops_internal.h"
#include "tensor/shape.h"

namespace tfmae::ops::kernels {

namespace {
// One dense row of BiasGeluRange: the bias is not broadcast within it.
void BiasGeluRow(const float* x, const float* bias, std::int64_t n,
                 float* out, float* tanh_out) {
  std::int64_t j = 0;
#if defined(__AVX512F__)
  for (; j + 16 <= n; j += 16) {
    const __m512 v =
        _mm512_add_ps(_mm512_loadu_ps(x + j), _mm512_loadu_ps(bias + j));
    const __m512 t = FastTanhV(GeluInnerV(v));
    if (tanh_out != nullptr) _mm512_storeu_ps(tanh_out + j, t);
    _mm512_storeu_ps(out + j, GeluFromTanhV(v, t));
  }
#endif
  for (; j < n; ++j) {
    const float v = x[j] + bias[j];
    const float t = FastTanh(GeluInner(v));
    if (tanh_out != nullptr) tanh_out[j] = t;
    out[j] = 0.5f * v * (1.0f + t);
  }
}

// out[j] = FastExp(in[j] * scale - max), max the largest in[j] * scale.
// The pragma is FastExpV's (op_kernels.h), for _mm512_max_ps and
// _mm512_reduce_max_ps here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void ScaledExpRow(const float* in, float* out, std::int64_t cols,
                  float scale) {
  float max_v = in[0] * scale;
  std::int64_t j = 1;
#if defined(__AVX512F__)
  const __m512 sv = _mm512_set1_ps(scale);
  if (cols >= 16) {
    __m512 maxv = _mm512_mul_ps(_mm512_loadu_ps(in), sv);
    for (j = 16; j + 16 <= cols; j += 16) {
      maxv = _mm512_max_ps(maxv, _mm512_mul_ps(_mm512_loadu_ps(in + j), sv));
    }
    max_v = std::max(max_v, _mm512_reduce_max_ps(maxv));
  }
#endif
  for (; j < cols; ++j) max_v = std::max(max_v, in[j] * scale);
  j = 0;
#if defined(__AVX512F__)
  const __m512 maxb = _mm512_set1_ps(max_v);
  for (; j + 16 <= cols; j += 16) {
    const __m512 x = _mm512_mul_ps(_mm512_loadu_ps(in + j), sv);
    _mm512_storeu_ps(out + j, FastExpV(_mm512_sub_ps(x, maxb)));
  }
#endif
  for (; j < cols; ++j) out[j] = FastExp(in[j] * scale - max_v);
}
#pragma GCC diagnostic pop
}  // namespace

void SoftmaxRows(const float* in, float* out, std::int64_t rows,
                 std::int64_t cols, float scale) {
  constexpr std::int64_t kChains = 8;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kChains) {
    const std::int64_t n = std::min(kChains, rows - r0);
    float* block = out + r0 * cols;
    for (std::int64_t r = 0; r < n; ++r) {
      ScaledExpRow(in + (r0 + r) * cols, block + r * cols, cols, scale);
    }
    float sum[kChains] = {};
    if (n == kChains) {
      for (std::int64_t j = 0; j < cols; ++j) {
        for (std::int64_t r = 0; r < kChains; ++r) {
          sum[r] += block[r * cols + j];
        }
      }
    } else {
      for (std::int64_t r = 0; r < n; ++r) {
        for (std::int64_t j = 0; j < cols; ++j) sum[r] += block[r * cols + j];
      }
    }
    for (std::int64_t r = 0; r < n; ++r) {
      const float inv = 1.0f / sum[r];
      for (std::int64_t j = 0; j < cols; ++j) block[r * cols + j] *= inv;
    }
  }
}

namespace {
template <BinaryKind K>
void BinaryRangeK(const float* lhs, std::int64_t lhs_n, const float* rhs,
                  std::int64_t rhs_n, std::int64_t s, std::int64_t e,
                  float* out) {
  if (lhs_n < rhs_n) {
    BroadcastBinaryRange<K, true>(rhs, lhs, lhs_n, s, e, out);
  } else {
    BroadcastBinaryRange<K, false>(lhs, rhs, rhs_n, s, e, out);
  }
}
}  // namespace

void BinaryRange(BinaryKind kind, const float* lhs, std::int64_t lhs_n,
                 const float* rhs, std::int64_t rhs_n, std::int64_t s,
                 std::int64_t e, float* out) {
  switch (kind) {
    case BinaryKind::kAdd:
      return BinaryRangeK<BinaryKind::kAdd>(lhs, lhs_n, rhs, rhs_n, s, e, out);
    case BinaryKind::kSub:
      return BinaryRangeK<BinaryKind::kSub>(lhs, lhs_n, rhs, rhs_n, s, e, out);
    case BinaryKind::kMul:
      return BinaryRangeK<BinaryKind::kMul>(lhs, lhs_n, rhs, rhs_n, s, e, out);
    case BinaryKind::kDiv:
      return BinaryRangeK<BinaryKind::kDiv>(lhs, lhs_n, rhs, rhs_n, s, e, out);
  }
}

void BiasGeluRange(const float* x, const float* bias, std::int64_t bn,
                   std::int64_t s, std::int64_t e, float* out,
                   float* tanh_out) {
  ForEachPeriodRun(bn, s, e, [=](std::int64_t i, std::int64_t j,
                                 std::int64_t n) {
    BiasGeluRow(x + i, bias + j, n, out + i,
                tanh_out != nullptr ? tanh_out + i : nullptr);
  });
}

void Permute3Forward(const float* in, float* out,
                     const std::array<std::int64_t, 3>& in_shape,
                     const std::array<int, 3>& perm) {
  if (perm == std::array<int, 3>{1, 0, 2}) {
    // out[b][a][:] = in[a][b][:], one row copy per (b, a).
    const std::int64_t rows_a = in_shape[0];
    const std::int64_t rows_b = in_shape[1];
    const std::int64_t cols = in_shape[2];
    for (std::int64_t b = 0; b < rows_b; ++b) {
      for (std::int64_t a = 0; a < rows_a; ++a) {
        std::memcpy(out + (b * rows_a + a) * cols,
                    in + (a * rows_b + b) * cols,
                    static_cast<std::size_t>(cols) * sizeof(float));
      }
    }
    return;
  }
  const Shape shape_vec = {in_shape[0], in_shape[1], in_shape[2]};
  const auto in_strides = RowMajorStrides(shape_vec);
  const std::int64_t d0 = in_shape[static_cast<std::size_t>(perm[0])];
  const std::int64_t d1 = in_shape[static_cast<std::size_t>(perm[1])];
  const std::int64_t d2 = in_shape[static_cast<std::size_t>(perm[2])];
  std::int64_t idx = 0;
  for (std::int64_t i = 0; i < d0; ++i) {
    for (std::int64_t j = 0; j < d1; ++j) {
      for (std::int64_t k = 0; k < d2; ++k) {
        std::int64_t coords[3];
        coords[perm[0]] = i;
        coords[perm[1]] = j;
        coords[perm[2]] = k;
        out[idx++] = in[coords[0] * in_strides[0] + coords[1] * in_strides[1] +
                        coords[2] * in_strides[2]];
      }
    }
  }
}

void ForEachElemChunk(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn) {
  internal::ParallelElems(n, fn);
}

std::int64_t RowChunkGrain(std::int64_t cols) {
  return internal::RowGrain(cols);
}

std::int64_t ForEachRowChunk(
    std::int64_t rows, std::int64_t cols,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  return internal::ParallelRows(rows, cols, fn);
}

}  // namespace tfmae::ops::kernels
