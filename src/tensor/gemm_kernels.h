// Blocked, thread-parallel GEMM kernels over raw float buffers.
//
// This is the compute core under ops::MatMul / ops::BatchedMatMul and their
// gradients. All kernels ACCUMULATE into C (callers zero-initialize), and
// all are deterministic with respect to the thread count:
//  * work is split across the pool in fixed row-tile units (see
//    util/thread_pool.h), so each output element is produced by exactly one
//    thread, and
//  * every kernel accumulates each C element over the inner dimension in
//    ascending index order, regardless of tiling or pool size,
// so an N-thread run is bit-identical to a 1-thread run.
//
// The inner micro-kernel keeps an MR x NR tile of C in registers across the
// whole K loop (MR/NR are chosen per ISA at compile time); the transposed
// variants pack the transposed operand into a scratch buffer and reuse the
// same micro-kernel, which keeps all inner loops branch-free and dense —
// there is deliberately no zero-skip: on dense activations a data-dependent
// branch in the hot loop defeats vectorization.
#ifndef TFMAE_TENSOR_GEMM_KERNELS_H_
#define TFMAE_TENSOR_GEMM_KERNELS_H_

#include <cstdint>

namespace tfmae::gemm {

/// C[M,N] += A[M,K] * B[K,N].
void Gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// C[bi] += A[bi] * B[bi] for bi in [0, batch); A is [batch,M,K], B is
/// [batch,K,N], C is [batch,M,N]. Parallel across batch x row-tiles.
void BatchedGemm(const float* a, const float* b, float* c, std::int64_t batch,
                 std::int64_t m, std::int64_t k, std::int64_t n);

/// C[M,N] += A[M,K] * B^T where B is stored row-major as [N,K].
void GemmBt(const float* a, const float* b_t, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n);

/// dst[bi] = src[bi]^T for bi in [0, batch): src is [batch, src_rows,
/// src_cols], dst is [batch, src_cols, src_rows] and fully overwritten.
/// Parallel across batches. BatchedGemmBt is this pack into pool scratch
/// followed by BatchedGemm; a caller that owns a buffer of batch*N*K floats
/// can run the same two steps without touching the pool.
void BatchedTransposePack(const float* src, std::int64_t batch,
                          std::int64_t src_rows, std::int64_t src_cols,
                          float* dst);

/// Batched GemmBt: A [batch,M,K], B [batch,N,K], C [batch,M,N].
void BatchedGemmBt(const float* a, const float* b_t, float* c,
                   std::int64_t batch, std::int64_t m, std::int64_t k,
                   std::int64_t n);

/// C[K,N] += A^T * G where A is [M,K] and G is [M,N].
void GemmAtB(const float* a, const float* g, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// Batched GemmAtB: A [batch,M,K], G [batch,M,N], C [batch,K,N].
void BatchedGemmAtB(const float* a, const float* g, float* c,
                    std::int64_t batch, std::int64_t m, std::int64_t k,
                    std::int64_t n);

/// The original single-threaded i-k-j kernel this backend replaced
/// (including its zero-skip branch). Frozen as the reference the GEMM
/// correctness tests compare against; not used on any compute path.
void GemmNaiveSeed(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);

}  // namespace tfmae::gemm

#endif  // TFMAE_TENSOR_GEMM_KERNELS_H_
