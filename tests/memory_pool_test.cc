// Memory-plane tests: pool size classes and recycling, refcount-aware
// reclamation under Tensor::Detach aliasing, inference-mode graph/grad
// retention, the determinism contract — pooled, unpooled and scrub-canary
// training runs must produce bitwise-identical losses at every thread
// count — and zero heap allocations per pooled steady-state training step.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/transformer.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae {
namespace {

// Restores pool enablement, scrub mode and thread count on scope exit so a
// failing test cannot poison its neighbours.
class PoolConfigGuard {
 public:
  PoolConfigGuard() : was_enabled_(pool::Enabled()) {}
  ~PoolConfigGuard() {
    pool::SetEnabled(was_enabled_);
    pool::SetScrubForTesting(false);
    ThreadPool::Instance().SetNumThreads(1);
  }

 private:
  bool was_enabled_;
};

TEST(PoolSizeClassTest, RoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(pool::SizeClassFloats(1), pool::kMinClassFloats);
  EXPECT_EQ(pool::SizeClassFloats(pool::kMinClassFloats),
            pool::kMinClassFloats);
  EXPECT_EQ(pool::SizeClassFloats(pool::kMinClassFloats + 1),
            2 * pool::kMinClassFloats);
  EXPECT_EQ(pool::SizeClassFloats(1000), 1024);
  EXPECT_EQ(pool::SizeClassFloats(1 << 20), 1 << 20);
  EXPECT_EQ(pool::SizeClassFloats((1 << 20) + 1), 1 << 21);
}

TEST(PoolRecycleTest, SameClassAcquisitionReusesReleasedBlock) {
  PoolConfigGuard guard;
  pool::SetEnabled(true);
  pool::Trim();
  // Distinctive size so neighbouring tests' leftovers cannot satisfy it.
  const std::int64_t numel = 12345;
  std::shared_ptr<float[]> first = pool::Acquire(numel);
  float* raw = first.get();
  first.reset();  // parks the block on its free list
  const pool::PoolStats before = pool::Stats();
  std::shared_ptr<float[]> second = pool::Acquire(numel);
  const pool::PoolStats after = pool::Stats();
  EXPECT_EQ(second.get(), raw);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(PoolRecycleTest, DetachAliasKeepsBlockLentOut) {
  PoolConfigGuard guard;
  pool::SetEnabled(true);
  pool::Trim();
  const std::int64_t numel = 23456;
  Tensor detached;
  float* raw = nullptr;
  {
    Tensor x = Tensor::Zeros({numel});
    raw = x.data();
    detached = x.Detach();
    EXPECT_EQ(detached.data(), raw);  // Detach aliases, never copies
  }
  // x is gone but the detached alias still owns the storage: the block must
  // NOT be recycled into a fresh acquisition of the same class.
  std::shared_ptr<float[]> probe = pool::Acquire(numel);
  EXPECT_NE(probe.get(), raw);
  probe.reset();
  const pool::PoolStats before = pool::Stats();
  detached = Tensor();  // last alias dies -> block parked on its free list
  const pool::PoolStats after = pool::Stats();
  EXPECT_EQ(after.releases, before.releases + 1);
  std::shared_ptr<float[]> reuse = pool::Acquire(numel);
  EXPECT_EQ(reuse.get(), raw);
}

TEST(PoolRetentionTest, NoGradScoringBuildsNoGraphAndNoGradBuffers) {
  PoolConfigGuard guard;
  pool::SetEnabled(true);
  Rng rng(3);
  nn::TransformerLayer layer(/*model_dim=*/32, /*num_heads=*/4,
                             /*ff_hidden_dim=*/64, &rng);
  Rng data_rng(4);
  Tensor x = Tensor::Randn({24, 32}, &data_rng);
  {
    NoGradGuard no_grad;
    (void)layer.Forward(x);  // warm-up: pool fills, PE cache builds
  }
  const std::int64_t nodes0 = ops::internal::GraphNodesCreated();
  const std::int64_t grads0 = MemoryStats::GradAllocCalls();
  {
    NoGradGuard no_grad;
    for (int i = 0; i < 3; ++i) (void)layer.Forward(x);
  }
  // Regression guard: scoring passes must not retain autograd state — no
  // graph nodes, no gradient buffers.
  EXPECT_EQ(ops::internal::GraphNodesCreated(), nodes0);
  EXPECT_EQ(MemoryStats::GradAllocCalls(), grads0);
}

// Runs a short TransformerLayer + Adam training loop and returns the per-step
// loss values. Identical seeds must give bitwise-identical sequences no
// matter how the memory plane is configured. When `heap_allocs` is given it
// receives each step's physical heap allocations (pool misses plus unpooled
// acquisitions).
std::vector<float> TrainLosses(std::uint64_t seed, int steps,
                               std::vector<std::int64_t>* heap_allocs =
                                   nullptr) {
  Rng rng(seed);
  nn::TransformerLayer layer(/*model_dim=*/32, /*num_heads=*/4,
                             /*ff_hidden_dim=*/64, &rng);
  Rng data_rng(seed + 100);
  Tensor x = Tensor::Randn({48, 32}, &data_rng);
  Tensor target = Tensor::Randn({48, 32}, &data_rng);
  nn::AdamOptions opts;
  opts.learning_rate = 1e-3f;
  nn::Adam adam(layer.Parameters(), opts);
  std::vector<float> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const std::int64_t heap_before = pool::Stats().HeapAllocs();
    Tensor out = layer.Forward(x);
    Tensor loss = ops::MseLoss(out, target);
    adam.ZeroGrad();
    loss.Backward();
    adam.Step();
    losses.push_back(loss.item());
    if (heap_allocs != nullptr) {
      heap_allocs->push_back(pool::Stats().HeapAllocs() - heap_before);
    }
  }
  return losses;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// Also the memory plane's allocation verdict: once two warm-up steps have
// filled the free lists, a pooled step makes no heap allocation at all,
// while the same step unpooled makes one per buffer.
TEST(PoolDeterminismTest, PooledMatchesUnpooledBitwiseAcrossSeedsAndThreads) {
  PoolConfigGuard guard;
  const int kSteps = 4;
  const int kWarmupSteps = 2;
  for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{21}}) {
    for (int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      std::vector<std::int64_t> pooled_heap;
      std::vector<std::int64_t> unpooled_heap;
      pool::SetEnabled(true);
      const std::vector<float> pooled = TrainLosses(seed, kSteps, &pooled_heap);
      pool::SetEnabled(false);
      const std::vector<float> unpooled =
          TrainLosses(seed, kSteps, &unpooled_heap);
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " threads=" << threads);
      ExpectBitwiseEqual(pooled, unpooled);
      for (int step = kWarmupSteps; step < kSteps; ++step) {
        EXPECT_EQ(pooled_heap[step], 0) << "pooled step " << step;
        EXPECT_GT(unpooled_heap[step], 0) << "unpooled step " << step;
      }
    }
  }
}

TEST(PoolDeterminismTest, ScrubCanaryDoesNotChangeResults) {
  PoolConfigGuard guard;
  pool::SetEnabled(true);
  const std::vector<float> plain = TrainLosses(/*seed=*/9, /*steps=*/4);
  // NaN-fill every acquired buffer: any consumer reading recycled memory
  // before overwriting it would poison the losses.
  pool::SetScrubForTesting(true);
  const std::vector<float> scrubbed = TrainLosses(/*seed=*/9, /*steps=*/4);
  ExpectBitwiseEqual(plain, scrubbed);
}

}  // namespace
}  // namespace tfmae
