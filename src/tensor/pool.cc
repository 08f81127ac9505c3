#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace tfmae::pool {
namespace {

// One class per power of two: class c holds blocks of 2^c floats. 48
// classes cover every representable buffer (2^47 floats is far beyond
// addressable memory).
constexpr int kNumClasses = 48;

bool EnvFlag(const char* name, bool default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return default_value;
  return !(v[0] == '0' && v[1] == '\0');
}

int ClassIndex(std::int64_t class_floats) {
  int c = 0;
  while ((std::int64_t{1} << c) < class_floats) ++c;
  return c;
}

// Free lists plus physical accounting. Intentionally leaked (like the obs
// registry): block deleters may run during static destruction.
struct Pool {
  std::mutex mu;
  std::vector<float*> free_lists[kNumClasses];

  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> misses{0};
  std::atomic<std::int64_t> unpooled{0};
  std::atomic<std::int64_t> releases{0};
  std::atomic<std::int64_t> outstanding_bytes{0};
  std::atomic<std::int64_t> peak_outstanding_bytes{0};
  std::atomic<std::int64_t> cached_bytes{0};

  std::atomic<bool> enabled{EnvFlag("TFMAE_POOL", true)};
  std::atomic<bool> scrub{EnvFlag("TFMAE_POOL_SCRUB", false)};
};

Pool& Instance() {
  static Pool* pool = new Pool;
  return *pool;
}

void RaisePeak(Pool& pool, std::int64_t current) {
  std::int64_t peak = pool.peak_outstanding_bytes.load(std::memory_order_relaxed);
  while (current > peak &&
         !pool.peak_outstanding_bytes.compare_exchange_weak(
             peak, current, std::memory_order_relaxed)) {
  }
}

void Release(Pool& pool, float* p, int class_index) {
  const std::int64_t bytes =
      (std::int64_t{1} << class_index) * static_cast<std::int64_t>(sizeof(float));
  pool.releases.fetch_add(1, std::memory_order_relaxed);
  pool.outstanding_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  pool.cached_bytes.fetch_add(bytes, std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("tensor.pool.release", 1);
  TFMAE_GAUGE_SET("tensor.pool.outstanding_bytes",
                  pool.outstanding_bytes.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.free_lists[class_index].push_back(p);
}

}  // namespace

std::int64_t SizeClassFloats(std::int64_t numel) {
  TFMAE_CHECK(numel > 0);
  std::int64_t c = kMinClassFloats;
  while (c < numel) c <<= 1;
  return c;
}

std::shared_ptr<float[]> Acquire(std::int64_t numel) {
  Pool& pool = Instance();
  const std::int64_t class_floats = SizeClassFloats(numel);

  float* p = nullptr;
  if (pool.enabled.load(std::memory_order_relaxed)) {
    const int class_index = ClassIndex(class_floats);
    const std::int64_t class_bytes =
        class_floats * static_cast<std::int64_t>(sizeof(float));
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      auto& list = pool.free_lists[class_index];
      if (!list.empty()) {
        p = list.back();
        list.pop_back();
      }
    }
    if (p != nullptr) {
      pool.hits.fetch_add(1, std::memory_order_relaxed);
      pool.cached_bytes.fetch_sub(class_bytes, std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("tensor.pool.hit", 1);
    } else {
      p = new float[static_cast<std::size_t>(class_floats)];
      pool.misses.fetch_add(1, std::memory_order_relaxed);
      TFMAE_COUNTER_ADD("tensor.pool.miss", 1);
    }
    const std::int64_t outstanding =
        pool.outstanding_bytes.fetch_add(class_bytes,
                                         std::memory_order_relaxed) +
        class_bytes;
    RaisePeak(pool, outstanding);
    TFMAE_GAUGE_SET("tensor.pool.outstanding_bytes", outstanding);
    TFMAE_GAUGE_MAX("tensor.pool.peak_outstanding_bytes", outstanding);
    if (pool.scrub.load(std::memory_order_relaxed)) {
      std::fill(p, p + class_floats, std::numeric_limits<float>::quiet_NaN());
    }
    return std::shared_ptr<float[]>(
        p, [class_index](float* ptr) { Release(Instance(), ptr, class_index); });
  }

  // Pooling disabled: plain heap allocation, exact size.
  p = new float[static_cast<std::size_t>(numel)];
  pool.unpooled.fetch_add(1, std::memory_order_relaxed);
  TFMAE_COUNTER_ADD("tensor.pool.unpooled_alloc", 1);
  if (pool.scrub.load(std::memory_order_relaxed)) {
    std::fill(p, p + numel, std::numeric_limits<float>::quiet_NaN());
  }
  return std::shared_ptr<float[]>(p, [](float* ptr) { delete[] ptr; });
}

bool Enabled() { return Instance().enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  Instance().enabled.store(on, std::memory_order_relaxed);
}

void SetScrubForTesting(bool on) {
  Instance().scrub.store(on, std::memory_order_relaxed);
}

bool ScrubEnabled() { return Instance().scrub.load(std::memory_order_relaxed); }

void Trim() {
  Pool& pool = Instance();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (int c = 0; c < kNumClasses; ++c) {
    for (float* p : pool.free_lists[c]) {
      pool.cached_bytes.fetch_sub(
          (std::int64_t{1} << c) * static_cast<std::int64_t>(sizeof(float)),
          std::memory_order_relaxed);
      delete[] p;
    }
    pool.free_lists[c].clear();
  }
}

PoolStats Stats() {
  Pool& pool = Instance();
  PoolStats s;
  s.hits = pool.hits.load(std::memory_order_relaxed);
  s.misses = pool.misses.load(std::memory_order_relaxed);
  s.unpooled = pool.unpooled.load(std::memory_order_relaxed);
  s.releases = pool.releases.load(std::memory_order_relaxed);
  s.outstanding_bytes = pool.outstanding_bytes.load(std::memory_order_relaxed);
  s.peak_outstanding_bytes =
      pool.peak_outstanding_bytes.load(std::memory_order_relaxed);
  s.cached_bytes = pool.cached_bytes.load(std::memory_order_relaxed);
  return s;
}

Scratch::Scratch(std::int64_t numel, bool zero_fill)
    : buffer_(Acquire(numel)), numel_(numel) {
  if (zero_fill) std::fill(buffer_.get(), buffer_.get() + numel, 0.0f);
}

}  // namespace tfmae::pool
