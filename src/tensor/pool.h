// Pooled tensor-buffer allocator: the memory plane under the autograd tape.
//
// Every TensorImpl data/grad buffer and every backward scratch buffer is
// acquired here. Buffers are recycled through power-of-two size-class free
// lists, so a steady-state training step — whose tensor shapes repeat
// exactly from step to step — performs (near-)zero heap allocations after
// the first warm-up step: each buffer released at the end of step N is
// handed back for the same role in step N+1.
//
// Contracts:
//  * Determinism. The pool hands out memory, never values: every buffer is
//    either fully overwritten or explicitly zero-filled by its consumer
//    before any element is read (the rule Tensor::Empty already imposes).
//    Pooled and unpooled runs are therefore bitwise identical; the
//    scrub-on-acquire canary mode (below) exists to prove it.
//  * Aliasing. Acquire() returns a shared_ptr whose deleter releases the
//    block, so a block is reclaimed only when the LAST alias dies —
//    Tensor::Detach()'s storage sharing (the Eq. (15) stop-gradient path)
//    needs no special casing.
//  * Accounting. MemoryStats keeps recording LOGICAL bytes (exact tensor
//    sizes, alloc on acquire / free on final release) so the Fig. 10
//    memory-footprint comparison is unchanged by pooling; PoolStats tracks
//    the PHYSICAL side (hits, misses, cached and outstanding class bytes).
//
// Escape hatches:
//  * TFMAE_POOL=0 in the environment (or SetEnabled(false)) routes new
//    acquisitions to plain new[]/delete[]. Toggling is safe mid-process:
//    each block's deleter remembers how it was allocated.
//  * TFMAE_POOL_SCRUB=1 (or SetScrubForTesting(true)) fills every acquired
//    buffer with a signaling-NaN canary, so any read-before-write of
//    recycled memory poisons results instead of silently reusing stale
//    values.
//  * Trim() drops all cached free blocks (the epoch/arena reset hook for
//    long-lived servers between workloads).
#ifndef TFMAE_TENSOR_POOL_H_
#define TFMAE_TENSOR_POOL_H_

#include <cstdint>
#include <memory>

namespace tfmae::pool {

/// Point-in-time view of the pool's physical accounting. All counters are
/// monotone except the byte gauges.
struct PoolStats {
  std::int64_t hits = 0;        ///< acquisitions served from a free list
  std::int64_t misses = 0;      ///< acquisitions that hit the heap (pooled)
  std::int64_t unpooled = 0;    ///< acquisitions served while disabled
  std::int64_t releases = 0;    ///< blocks parked back on a free list
  std::int64_t outstanding_bytes = 0;       ///< class bytes currently lent out
  std::int64_t peak_outstanding_bytes = 0;  ///< high-water mark of the above
  std::int64_t cached_bytes = 0;            ///< class bytes parked on free lists

  /// Physical heap allocations performed by the tensor substrate so far
  /// (pool misses plus unpooled acquisitions) — the quantity the memory
  /// plane exists to drive to zero per steady-state step.
  std::int64_t HeapAllocs() const { return misses + unpooled; }
};

/// Rounds a float count up to its size class (next power of two, minimum
/// kMinClassFloats). Exposed for tests and capacity planning.
std::int64_t SizeClassFloats(std::int64_t numel);

/// Smallest class handed out; sub-kilobyte requests share one class so tiny
/// bias/scalar tensors do not fragment the free lists.
constexpr std::int64_t kMinClassFloats = 256;

/// Acquires a buffer of at least `numel` floats. Contents are unspecified
/// (possibly recycled); the caller must fully overwrite or zero-fill before
/// reading. The returned handle's deleter releases the block back to the
/// pool (or the heap, if pooling was off at acquisition) when the last
/// alias dies. Thread-safe.
std::shared_ptr<float[]> Acquire(std::int64_t numel);

/// True iff new acquisitions are pooled. Initialized from TFMAE_POOL
/// (anything but "0" enables; default on).
bool Enabled();

/// Turns pooling on/off for subsequent acquisitions. Blocks already lent
/// out are unaffected (their deleters remember their origin).
void SetEnabled(bool on);

/// Fills every subsequently acquired buffer with a NaN canary before
/// handing it out (both pooled and unpooled), so reads of
/// not-yet-overwritten memory become loudly visible. Initialized from
/// TFMAE_POOL_SCRUB ("1" enables; default off).
void SetScrubForTesting(bool on);

/// True iff scrub-on-acquire is currently on. The pre-planned inference
/// arena honors the same canary discipline between replays.
bool ScrubEnabled();

/// Frees every cached (idle) block. Outstanding buffers are untouched.
void Trim();

/// Snapshot of the physical accounting.
PoolStats Stats();

/// RAII scratch buffer for operator internals (backward partials, per-chunk
/// workspaces). Replaces `std::vector<float>` on hot paths: the backing
/// block comes from the pool and, unless `zero_fill` is set, skips the
/// vector's value-initialization memset (legal exactly when the consumer
/// fully overwrites it). Movable, not copyable.
class Scratch {
 public:
  explicit Scratch(std::int64_t numel, bool zero_fill = false);

  float* data() { return buffer_.get(); }
  const float* data() const { return buffer_.get(); }
  std::int64_t numel() const { return numel_; }

  Scratch(Scratch&&) = default;
  Scratch& operator=(Scratch&&) = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

 private:
  std::shared_ptr<float[]> buffer_;
  std::int64_t numel_ = 0;
};

}  // namespace tfmae::pool

#endif  // TFMAE_TENSOR_POOL_H_
