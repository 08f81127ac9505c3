#include "tensor/gemm_kernels.h"

#include <algorithm>

#include "tensor/pool.h"

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace tfmae::gemm {
namespace {

// Register-tile sizes. The micro-kernel carries kMR x kNR accumulators in
// registers; kNR = 64 floats is four AVX-512 vectors (eight AVX2 vectors),
// wide enough to hide the mul->add latency chains without fused
// multiply-add (the whole project builds with -ffp-contract=off so kernel
// numerics match the naive seed loop bit-for-bit). Eight accumulator rows
// suit the 32 vector registers of AVX-512/AVX2 builds; the SSE2 baseline
// has 16 x 4-wide registers, where four rows is the most that avoids
// spills.
#if defined(__AVX2__) || defined(__AVX512F__)
constexpr std::int64_t kMR = 8;
#else
constexpr std::int64_t kMR = 4;
#endif
constexpr std::int64_t kNR = 64;

// A chunk handed to the pool should amortize dispatch overhead: aim for at
// least ~2M flops (~tens of microseconds) per chunk.
constexpr double kMinFlopsPerChunk = 2.0 * 1024.0 * 1024.0;

// C tile [kMR x kNR] at `c` accumulated over the full K loop in registers.
// lda/ldb/ldc are row strides of A/B/C.
void MicroKernel(const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float* c, std::int64_t ldc,
                 std::int64_t k) {
  float acc[kMR][kNR];
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = a[r * lda + p];
      for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t j = 0; j < kNR; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Compile-time-width column tile for narrow C panels: W columns, up to kMR
// rows, accumulators in registers, p loop outermost. Same ascending-p
// per-element order as every other kernel here. W = 8/16/32 covers the
// head-dim panels of attention (A*V and its backward companions).
template <int W>
void EdgeColsTile(const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t k,
                  std::int64_t rows) {
  float acc[kMR][W];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int j = 0; j < W; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float av = a[r * lda + p];
      for (int j = 0; j < W; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int j = 0; j < W; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Fallback for tile remainders: rows [i0,i1) (at most kMR), cols [j0,j1).
// Register-tiled like the micro-kernel — accumulators live in a stack array
// and the p loop is outermost so the compiler vectorizes across columns —
// which matters for narrow-C shapes (n < kNR, e.g. the attention A*V panels
// of width head_dim) that never reach MicroKernel. Each C element is still
// accumulated in ascending-p order, so results stay bit-identical to the
// naive seed loop.
void EdgeKernel(const float* a, const float* b, float* c, std::int64_t k,
                std::int64_t n, std::int64_t i0, std::int64_t i1,
                std::int64_t j0, std::int64_t j1) {
  const std::int64_t rows = i1 - i0;
  if (rows > kMR) {
    // Defensive: callers hand over at most one kMR-row tile.
    for (std::int64_t i = i0; i < i1; i += kMR) {
      EdgeKernel(a, b, c, k, n, i, std::min(i1, i + kMR), j0, j1);
    }
    return;
  }
  float acc[kMR][kNR];
  for (std::int64_t jj = j0; jj < j1; jj += kNR) {
    const std::int64_t w = std::min<std::int64_t>(kNR, j1 - jj);
    switch (w) {
      case 8:
        EdgeColsTile<8>(a + i0 * k, k, b + jj, n, c + i0 * n + jj, n, k, rows);
        continue;
      case 16:
        EdgeColsTile<16>(a + i0 * k, k, b + jj, n, c + i0 * n + jj, n, k,
                         rows);
        continue;
      case 32:
        EdgeColsTile<32>(a + i0 * k, k, b + jj, n, c + i0 * n + jj, n, k,
                         rows);
        continue;
      default:
        break;
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* crow = c + (i0 + r) * n + jj;
      for (std::int64_t j = 0; j < w; ++j) acc[r][j] = crow[j];
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + jj;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float av = a[(i0 + r) * k + p];
        for (std::int64_t j = 0; j < w; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      float* crow = c + (i0 + r) * n + jj;
      for (std::int64_t j = 0; j < w; ++j) crow[j] = acc[r][j];
    }
  }
}

// One row-tile of one matrix: rows [r0, r1) with r0 % kMR == 0 and
// r1 - r0 <= kMR (r1 < r0 + kMR only for the final partial tile).
void GemmRowTile(const float* a, const float* b, float* c, std::int64_t k,
                 std::int64_t n, std::int64_t r0, std::int64_t r1) {
  const std::int64_t nb = n - n % kNR;
  if (r1 - r0 == kMR) {
    for (std::int64_t j = 0; j < nb; j += kNR) {
      MicroKernel(a + r0 * k, k, b + j, n, c + r0 * n + j, n, k);
    }
    if (nb < n) EdgeKernel(a, b, c, k, n, r0, r1, nb, n);
  } else {
    EdgeKernel(a, b, c, k, n, r0, r1, 0, n);
  }
}

// Cache-blocked transpose: dst[src_cols, src_rows] = src[src_rows,
// src_cols]^T.
void TransposePack(const float* src, std::int64_t src_rows,
                   std::int64_t src_cols, float* dst) {
  constexpr std::int64_t kTB = 32;
  for (std::int64_t r0 = 0; r0 < src_rows; r0 += kTB) {
    const std::int64_t r1 = std::min(src_rows, r0 + kTB);
    for (std::int64_t c0 = 0; c0 < src_cols; c0 += kTB) {
      const std::int64_t c1 = std::min(src_cols, c0 + kTB);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * src_rows + r] = src[r * src_cols + c];
        }
      }
    }
  }
}

}  // namespace

void BatchedTransposePack(const float* src, std::int64_t batch,
                          std::int64_t src_rows, std::int64_t src_cols,
                          float* dst) {
  const std::int64_t per_batch = src_rows * src_cols;
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 18) / std::max<std::int64_t>(
                                                1, per_batch));
  ParallelFor(0, batch, grain, [=](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      TransposePack(src + bi * per_batch, src_rows, src_cols,
                    dst + bi * per_batch);
    }
  });
}

void BatchedGemm(const float* a, const float* b, float* c, std::int64_t batch,
                 std::int64_t m, std::int64_t k, std::int64_t n) {
  if (batch <= 0 || m <= 0 || n <= 0 || k < 0) return;
  // Inclusive scope: the packed variants (Bt/AtB) funnel through here, so
  // tensor.gemm totals cover every dense multiply in the process.
  TFMAE_TRACE("tensor.gemm");
  TFMAE_COUNTER_ADD("tensor.gemm.flops", 2 * batch * m * k * n);
  // Bytes touched assuming one pass over each operand and a read-modify-
  // write of C (the kernels accumulate).
  TFMAE_COUNTER_ADD("tensor.gemm.bytes",
                    4 * batch * (m * k + k * n + 2 * m * n));
  // One unit = one kMR-row tile of one batch element. Chunk boundaries are
  // fixed by shape alone, so results are thread-count invariant.
  const std::int64_t blocks = (m + kMR - 1) / kMR;
  const std::int64_t units = batch * blocks;
  const double unit_flops =
      2.0 * static_cast<double>(kMR) * static_cast<double>(std::max<std::int64_t>(1, k)) *
      static_cast<double>(n);
  const std::int64_t grain = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(kMinFlopsPerChunk / unit_flops));
  ParallelFor(0, units, grain, [=](std::int64_t s, std::int64_t e) {
    for (std::int64_t u = s; u < e; ++u) {
      const std::int64_t bi = u / blocks;
      const std::int64_t r0 = (u % blocks) * kMR;
      const std::int64_t r1 = std::min(m, r0 + kMR);
      GemmRowTile(a + bi * m * k, b + bi * k * n, c + bi * m * n, k, n, r0,
                  r1);
    }
  });
}

void Gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  BatchedGemm(a, b, c, 1, m, k, n);
}

void BatchedGemmBt(const float* a, const float* b_t, float* c,
                   std::int64_t batch, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  if (batch <= 0 || m <= 0 || n <= 0 || k < 0) return;
  if (k == 0) return;
  // The nested BatchedGemm records under tensor.gemm as well; this site
  // isolates the packing overhead (gemm_bt total minus gemm total).
  TFMAE_TRACE("tensor.gemm_bt");
  // Pack B^T ([n, k] per batch) into row-major [k, n], then run the dense
  // kernel. The packs cost O(k*n) against the kernel's O(m*k*n). The
  // workspace comes from the pool (no zero-fill: TransposePack writes every
  // element), so steady-state backward gemms stay allocation-free.
  pool::Scratch packed(batch * k * n);
  BatchedTransposePack(b_t, batch, n, k, packed.data());
  BatchedGemm(a, packed.data(), c, batch, m, k, n);
}

void GemmBt(const float* a, const float* b_t, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  BatchedGemmBt(a, b_t, c, 1, m, k, n);
}

void BatchedGemmAtB(const float* a, const float* g, float* c,
                    std::int64_t batch, std::int64_t m, std::int64_t k,
                    std::int64_t n) {
  if (batch <= 0 || k <= 0 || n <= 0 || m < 0) return;
  if (m == 0) return;
  TFMAE_TRACE("tensor.gemm_atb");
  // Pack A ([m, k] per batch) into A^T ([k, m]), then C += A^T * G is a
  // dense Gemm with M'=k, K'=m, N'=n. Pool-backed workspace, no zero-fill
  // (fully written by the pack).
  pool::Scratch packed(batch * k * m);
  BatchedTransposePack(a, batch, m, k, packed.data());
  BatchedGemm(packed.data(), g, c, batch, k, m, n);
}

void GemmAtB(const float* a, const float* g, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  BatchedGemmAtB(a, g, c, 1, m, k, n);
}

void GemmNaiveSeed(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace tfmae::gemm
