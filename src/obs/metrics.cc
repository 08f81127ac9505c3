#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <ostream>

#include "util/logging.h"

namespace tfmae::obs {
namespace {

constexpr std::uint64_t kNoMin = std::numeric_limits<std::uint64_t>::max();

/// Relaxed atomic max over a cell written by many threads (gauges) or read
/// concurrently with single-writer updates (histogram min/max).
void AtomicMaxU64(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  std::uint64_t cur = cell->load(std::memory_order_relaxed);
  while (cur < value &&
         !cell->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMinU64(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  std::uint64_t cur = cell->load(std::memory_order_relaxed);
  while (cur > value &&
         !cell->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

int HistogramBucket(std::uint64_t value) {
  // bit_width(v) = floor(log2 v) + 1, so values [2^(b-1), 2^b) land in
  // bucket b and 0 lands in bucket 0.
  return std::min(kHistogramBuckets - 1,
                  static_cast<int>(std::bit_width(value)));
}

std::uint64_t HistogramBucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << bucket) - 1;
}

void HistogramSnapshot::Record(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  buckets[HistogramBucket(value)] += n;
  min = count == 0 ? value : std::min(min, value);
  max = std::max(max, value);
  count += n;
  sum += value * n;
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Quantile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  double seen = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = seen + static_cast<double>(buckets[b]);
    if (next >= target) {
      if (b == 0) return 0.0;  // bucket 0 holds only the value 0
      // Bucket b spans [2^(b-1), 2^b): interpolate log-linearly, i.e.
      // 2^(b-1+f) for the fraction f of the bucket's mass below the target.
      const double f =
          std::clamp((target - seen) / static_cast<double>(buckets[b]), 0.0,
                     1.0);
      const double value = std::ldexp(std::exp2(f), b - 1);
      return std::clamp(value, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen = next;
  }
  return static_cast<double>(max);
}

std::uint64_t MetricsSnapshot::Counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::Histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// One thread's private slice of every counter and histogram. Cells are
/// atomics only so the snapshotting thread can read them concurrently; the
/// owning thread is the sole writer, so relaxed ordering suffices (totals
/// are integer sums — exact under any interleaving).
struct Registry::Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};

  struct Hist {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{kNoMin};
    std::atomic<std::uint64_t> max{0};
  };
  Hist histograms[kMaxHistograms];

  void Zero() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(kNoMin, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
    }
  }
};

namespace {

/// Registry-wide mutable state guarded by one mutex. Only the slow paths
/// (registration, shard churn, snapshot, reset) take it.
struct RegistryState {
  RegistryState() {
    // Reserve counter id 0 for the overflow tally so registration overflow
    // is observable even when it is the very thing preventing registration.
    counter_names.emplace_back("obs.registry.overflow");
  }

  std::mutex mu;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  std::atomic<std::int64_t> gauges[kMaxGauges] = {};
  /// All shards ever created, in creation order (the merge order).
  std::vector<Registry::Shard*> shards;
  /// Shards whose owning thread exited; contents retained, handed to the
  /// next new thread.
  std::vector<Registry::Shard*> free_shards;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();  // leaked, see Instance
  return *state;
}

/// Looks up or appends `name`; returns kInvalidMetricId when the table is
/// at `cap`. Caller holds st.mu — the overflow counter bump happens at the
/// call sites AFTER the lock is released (CounterAdd may itself need the
/// lock to acquire a shard).
int RegisterName(std::vector<std::string>* names, std::string_view name,
                 int cap) {
  for (std::size_t i = 0; i < names->size(); ++i) {
    if ((*names)[i] == name) return static_cast<int>(i);
  }
  if (static_cast<int>(names->size()) >= cap) return kInvalidMetricId;
  names->emplace_back(name);
  return static_cast<int>(names->size() - 1);
}

}  // namespace

/// RAII owner of the calling thread's shard: returns it to the free list at
/// thread exit so thread churn (pool resizing) reuses shards instead of
/// growing the registry. Accumulated counts survive the hand-off.
struct ShardReleaser {
  Registry::Shard* shard = nullptr;
  ~ShardReleaser() {
    if (shard != nullptr) Registry::Instance().ReleaseShard(shard);
  }
};

Registry& Registry::Instance() {
  // Leaked: worker threads (and their thread-exit hooks) may outlive main's
  // static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Shard* Registry::AcquireShard() {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.free_shards.empty()) {
    Shard* s = st.free_shards.back();
    st.free_shards.pop_back();
    return s;
  }
  Shard* s = new Shard();
  st.shards.push_back(s);
  return s;
}

void Registry::ReleaseShard(Shard* shard) {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  st.free_shards.push_back(shard);
}

Registry::Shard* Registry::LocalShard() {
  thread_local ShardReleaser handle;
  if (handle.shard == nullptr) handle.shard = AcquireShard();
  return handle.shard;
}

int Registry::CounterId(std::string_view name) {
  RegistryState& st = State();
  int id;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    id = RegisterName(&st.counter_names, name, kMaxCounters);
  }
  // Overflow tally: counter id 0 is pre-registered in RegistryState(), and
  // the bump happens outside st.mu (CounterAdd may acquire a shard).
  if (id == kInvalidMetricId) CounterAdd(0, 1);
  return id;
}

int Registry::GaugeId(std::string_view name) {
  RegistryState& st = State();
  int id;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    id = RegisterName(&st.gauge_names, name, kMaxGauges);
  }
  if (id == kInvalidMetricId) CounterAdd(0, 1);
  return id;
}

int Registry::HistogramId(std::string_view name) {
  RegistryState& st = State();
  int id;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    id = RegisterName(&st.histogram_names, name, kMaxHistograms);
  }
  if (id == kInvalidMetricId) CounterAdd(0, 1);
  return id;
}

void Registry::CounterAdd(int id, std::uint64_t delta) {
  if (id < 0 || id >= kMaxCounters) return;  // overflow sentinel: drop
  Shard* s = LocalShard();
  s->counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::HistogramRecord(int id, std::uint64_t value) {
  if (id < 0 || id >= kMaxHistograms) return;  // overflow sentinel: drop
  Shard::Hist& h = LocalShard()->histograms[id];
  h.buckets[HistogramBucket(value)].fetch_add(1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMinU64(&h.min, value);
  AtomicMaxU64(&h.max, value);
}

void Registry::GaugeSet(int id, std::int64_t value) {
  if (id < 0 || id >= kMaxGauges) return;  // overflow sentinel: drop
  State().gauges[id].store(value, std::memory_order_relaxed);
}

void Registry::GaugeMax(int id, std::int64_t value) {
  if (id < 0 || id >= kMaxGauges) return;  // overflow sentinel: drop
  std::atomic<std::int64_t>& cell = State().gauges[id];
  std::int64_t cur = cell.load(std::memory_order_relaxed);
  while (cur < value &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot Registry::Snapshot() const {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);

  MetricsSnapshot snap;
  snap.counters.resize(st.counter_names.size());
  for (std::size_t i = 0; i < st.counter_names.size(); ++i) {
    snap.counters[i] = {st.counter_names[i], 0};
  }
  snap.gauges.resize(st.gauge_names.size());
  for (std::size_t i = 0; i < st.gauge_names.size(); ++i) {
    snap.gauges[i] = {st.gauge_names[i],
                      st.gauges[i].load(std::memory_order_relaxed)};
  }
  snap.histograms.resize(st.histogram_names.size());
  for (std::size_t i = 0; i < st.histogram_names.size(); ++i) {
    snap.histograms[i].name = st.histogram_names[i];
  }

  // Merge shards in creation (index) order — the documented merge order.
  for (Shard* shard : st.shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].second +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const Shard::Hist& h = shard->histograms[i];
      HistogramSnapshot& out = snap.histograms[i];
      const std::uint64_t n = h.count.load(std::memory_order_relaxed);
      if (n == 0) continue;
      for (int b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
      const std::uint64_t mn = h.min.load(std::memory_order_relaxed);
      out.min = out.count == 0 ? mn : std::min(out.min, mn);
      out.max = std::max(out.max, h.max.load(std::memory_order_relaxed));
      out.count += n;
      out.sum += h.sum.load(std::memory_order_relaxed);
    }
  }

  std::sort(snap.counters.begin(), snap.counters.end());
  std::sort(snap.gauges.begin(), snap.gauges.end());
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

std::uint64_t Registry::CounterValue(std::string_view name) const {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  for (std::size_t i = 0; i < st.counter_names.size(); ++i) {
    if (st.counter_names[i] != name) continue;
    std::uint64_t total = 0;
    for (Shard* shard : st.shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  return 0;
}

void Registry::Reset() {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mu);
  for (Shard* shard : st.shards) shard->Zero();
  for (auto& g : st.gauges) g.store(0, std::memory_order_relaxed);
}

}  // namespace tfmae::obs
