// Process-wide metrics registry: counters, gauges, and log-bucketed
// histograms with a lock-free fast path.
//
// This is the substrate of the observability layer documented in
// docs/OBSERVABILITY.md. Design goals, in order:
//
//  1. Determinism: updates land in per-thread shards and are merged in
//     shard-creation (index) order at snapshot time. Counter and histogram
//     cells are unsigned integers, so merged totals are exact and identical
//     at every `TFMAE_NUM_THREADS` setting — dumps of count-typed metrics
//     are bitwise-stable under the PR-1 threading contract.
//  2. Lock-free fast path: a recording thread touches only its own shard
//     with relaxed atomic adds (the atomicity is for the concurrent reader,
//     not for contention — shards are never written by two threads). The
//     registry mutex is taken only on the rare paths: metric registration,
//     shard acquisition/release, snapshot, and reset.
//  3. Bounded memory: shards of exited threads are parked on a free list
//     (their accumulated counts are retained) and handed to the next new
//     thread, so sweeping thread-pool sizes does not grow the registry.
//
// Naming contract (see docs/OBSERVABILITY.md): `subsystem.op.stat`, e.g.
// `tensor.gemm.flops`, `core.streaming.push.time_ns`. Registration is
// idempotent — looking up an existing name returns the existing id.
//
// The registry is always compiled, and so is every instrumentation macro
// in obs/trace.h; a macro site records only while TFMAE_OBS is on.
#ifndef TFMAE_OBS_METRICS_H_
#define TFMAE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tfmae::obs {

/// Hard caps on distinct metrics. Shards preallocate these, keeping the
/// fast path a bare indexed atomic add. Registration past a cap returns
/// kInvalidMetricId (recording against it is a no-op) and bumps the
/// `obs.registry.overflow` counter — instrumentation must never be able to
/// abort the instrumented process. Raise the constant if a legitimate
/// workload overflows; it is a compile-time budget, not a tunable.
constexpr int kMaxCounters = 384;
constexpr int kMaxGauges = 96;
constexpr int kMaxHistograms = 128;

/// Sentinel returned by CounterId/GaugeId/HistogramId when the table is
/// full. All recording paths treat it (and any negative id) as "drop the
/// sample".
constexpr int kInvalidMetricId = -1;

/// Histogram bucketing: fixed log2 buckets. Bucket 0 holds value 0; bucket
/// b >= 1 holds values in [2^(b-1), 2^b). With 64 buckets any uint64 value
/// (nanoseconds, bytes, counts) maps to a bucket; resolution is a factor of
/// two, which is enough to read latency orders of magnitude off a dump.
constexpr int kHistogramBuckets = 64;

/// Bucket index for a recorded value (shape of the mapping is part of the
/// exporter contract; see docs/OBSERVABILITY.md).
int HistogramBucket(std::uint64_t value);

/// Inclusive upper bound of bucket b (2^b - 1; bucket 0 -> 0).
std::uint64_t HistogramBucketUpperBound(int bucket);

/// Merged view of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  /// Adds `n` samples of `value`, bucketed as the registry buckets them.
  /// For a histogram kept outside the registry (under its owner's lock).
  void Record(std::uint64_t value, std::uint64_t n = 1);

  double Mean() const;
  /// Interpolated estimate of the p-quantile (p in [0,1], clamped): locates
  /// the bucket holding the p-th sample and interpolates log-linearly inside
  /// it (bucket b >= 1 spans [2^(b-1), 2^b), so the interpolated value is
  /// 2^(b-1+f)), clamped to the observed [min, max]. A pure function of the
  /// buckets, so as deterministic as they are.
  double Quantile(double p) const;
};

/// Merged view of the whole registry, ordered by metric name (byte-wise),
/// so two snapshots of identical metric state serialize identically
/// regardless of registration interleaving.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by full name; 0 if absent.
  std::uint64_t Counter(std::string_view name) const;
  /// Histogram by full name; nullptr if absent.
  const HistogramSnapshot* Histogram(std::string_view name) const;
};

/// The process-wide registry. All members are safe to call from any thread.
class Registry {
 public:
  /// Lazily created, intentionally leaked singleton (worker threads may
  /// record during static destruction).
  static Registry& Instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- Registration (slow path; call once per site, cache the id) ---------
  // Return kInvalidMetricId (and bump `obs.registry.overflow`) when the
  // corresponding table is full; recording against the sentinel is a no-op.

  int CounterId(std::string_view name);
  int GaugeId(std::string_view name);
  int HistogramId(std::string_view name);

  // ---- Recording (fast path) ----------------------------------------------

  /// Adds `delta` to counter `id` in the calling thread's shard.
  void CounterAdd(int id, std::uint64_t delta);

  /// Records one sample into histogram `id` in the calling thread's shard.
  void HistogramRecord(int id, std::uint64_t value);

  /// Sets gauge `id` (last write wins; gauges are global, not sharded).
  void GaugeSet(int id, std::int64_t value);

  /// Raises gauge `id` to `value` if larger (monotone high-watermark).
  void GaugeMax(int id, std::int64_t value);

  // ---- Reading ------------------------------------------------------------

  /// Merges all shards (in shard index order) into a name-sorted snapshot.
  MetricsSnapshot Snapshot() const;

  /// Merged value of one counter by name (0 if unregistered).
  std::uint64_t CounterValue(std::string_view name) const;

  /// Zeroes every shard cell and gauge. Metric registrations (names/ids)
  /// are retained. Must not race recording threads that are mid-update if
  /// exact zeroing is required; intended for bench/test section boundaries.
  void Reset();

  /// One thread's private slice of the registry (definition internal to
  /// metrics.cc; exposed here only so the shard-lifecycle helpers can name
  /// it).
  struct Shard;

 private:
  Registry() = default;

  Shard* AcquireShard();
  void ReleaseShard(Shard* shard);
  Shard* LocalShard();

  friend struct ShardReleaser;  // returns shards to the free list at thread exit
};

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_METRICS_H_
