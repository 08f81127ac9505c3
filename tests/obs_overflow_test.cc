// Registry cap-exhaustion tests. These permanently fill the process-wide
// registration tables (Reset() zeroes values but keeps names), so they live
// in their own test binary: nothing else can share this process and expect
// free registry slots.
//
// The HistogramSnapshot quantile edge-case suite also lives here: it is
// registry-free (snapshots constructed by hand), and keeping the quantile
// contract next to the cap contract means one binary pins everything the
// exporter math relies on at the registry's documented limits.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace tfmae::obs {
namespace {

// ---- Quantile edge cases ------------------------------------------------

TEST(HistogramQuantileEdgeTest, EmptySnapshotIsZeroEverywhere) {
  HistogramSnapshot h;
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramQuantileEdgeTest, OutOfRangePIsClampedNotExtrapolated) {
  HistogramSnapshot h;
  h.buckets[HistogramBucket(10)] = 4;  // bucket 4: [8, 16)
  h.count = 4;
  h.sum = 40;
  h.min = 10;
  h.max = 10;
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(7.0), h.Quantile(1.0));
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 10.0);  // clamped to observed min
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);  // clamped to observed max
}

TEST(HistogramQuantileEdgeTest, AllMassInBucketZeroIsExactlyZero) {
  HistogramSnapshot h;
  h.buckets[HistogramBucket(0)] = 100;  // bucket 0 holds only the value 0
  h.count = 100;
  for (double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(p), 0.0) << "p=" << p;
  }
}

TEST(HistogramQuantileEdgeTest, SingleSampleIsReturnedAtEveryP) {
  HistogramSnapshot h;
  h.buckets[HistogramBucket(777)] = 1;
  h.count = 1;
  h.sum = 777;
  h.min = 777;
  h.max = 777;
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(p), 777.0) << "p=" << p;
  }
}

TEST(HistogramQuantileEdgeTest, TopBucketValuesDoNotOverflowTheMath) {
  // Bucket 63 spans [2^62, 2^64): the interpolation exponentiates b-1+f,
  // which must stay finite in double for the largest representable bucket.
  HistogramSnapshot h;
  const std::uint64_t huge = ~0ull;  // all-ones lands in the last bucket
  h.buckets[HistogramBucket(huge)] = 2;
  h.count = 2;
  h.sum = ~0ull;  // saturated; irrelevant to quantiles
  h.min = huge - 1;
  h.max = huge;
  for (double p : {0.0, 0.5, 1.0}) {
    const double q = h.Quantile(p);
    EXPECT_TRUE(std::isfinite(q)) << "p=" << p;
    EXPECT_GE(q, static_cast<double>(h.min));
    EXPECT_LE(q, static_cast<double>(h.max));
  }
}

TEST(HistogramQuantileEdgeTest, QuantileIsMonotoneInP) {
  HistogramSnapshot h;
  // Spread mass across several buckets including empty gaps.
  h.buckets[HistogramBucket(1)] = 3;
  h.buckets[HistogramBucket(50)] = 5;
  h.buckets[HistogramBucket(5000)] = 2;
  h.count = 10;
  h.min = 1;
  h.max = 5000;
  double previous = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = h.Quantile(p);
    EXPECT_GE(q, previous) << "p=" << p;
    previous = q;
  }
}

// ---- Cap exhaustion -------------------------------------------------------

TEST(RegistryOverflowTest, CounterTableOverflowsToSentinelAndIsCounted) {
  Registry& reg = Registry::Instance();
  // Slot 0 is pre-taken by the overflow counter itself.
  EXPECT_EQ(reg.CounterId("obs.registry.overflow"), 0);
  int registered = 0;
  int last_id = kInvalidMetricId;
  for (int i = 0; i < kMaxCounters; ++i) {
    const int id = reg.CounterId("overflow.counter." + std::to_string(i));
    if (id == kInvalidMetricId) break;
    EXPECT_GE(id, 0);
    EXPECT_LT(id, kMaxCounters);
    last_id = id;
    ++registered;
  }
  // The table held kMaxCounters - 1 new names on top of the builtin.
  EXPECT_EQ(registered, kMaxCounters - 1);

  // Near-cap behavior: the very last slot is a fully functional counter,
  // not a degraded one — recording and snapshotting work at capacity.
  reg.CounterAdd(last_id, 29);
  EXPECT_EQ(reg.CounterValue("overflow.counter." +
                             std::to_string(registered - 1)),
            29u);

  const std::uint64_t before = reg.CounterValue("obs.registry.overflow");
  EXPECT_EQ(reg.CounterId("overflow.counter.one_too_many"), kInvalidMetricId);
  EXPECT_EQ(reg.CounterValue("obs.registry.overflow"), before + 1);
  // Re-registering an existing name still works at capacity.
  EXPECT_EQ(reg.CounterId("overflow.counter.0"),
            reg.CounterId("overflow.counter.0"));
  // Recording against the sentinel is a safe no-op.
  reg.CounterAdd(kInvalidMetricId, 17);
  EXPECT_EQ(reg.CounterValue("overflow.counter.one_too_many"), 0u);

  // A full table snapshots completely: every registered name is present.
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(static_cast<int>(snap.counters.size()), kMaxCounters);
}

TEST(RegistryOverflowTest, GaugeTableOverflowsToSentinel) {
  Registry& reg = Registry::Instance();
  int registered = 0;
  for (int i = 0; i < kMaxGauges; ++i) {
    const int id = reg.GaugeId("overflow.gauge." + std::to_string(i));
    if (id == kInvalidMetricId) break;
    ++registered;
  }
  EXPECT_EQ(registered, kMaxGauges);
  const std::uint64_t before = reg.CounterValue("obs.registry.overflow");
  const int id = reg.GaugeId("overflow.gauge.one_too_many");
  EXPECT_EQ(id, kInvalidMetricId);
  EXPECT_EQ(reg.CounterValue("obs.registry.overflow"), before + 1);
  reg.GaugeSet(id, 42);  // safe no-op
  reg.GaugeMax(id, 42);  // safe no-op
}

TEST(RegistryOverflowTest, HistogramTableOverflowsToSentinel) {
  Registry& reg = Registry::Instance();
  int registered = 0;
  int last_id = kInvalidMetricId;
  for (int i = 0; i < kMaxHistograms; ++i) {
    const int id = reg.HistogramId("overflow.hist." + std::to_string(i));
    if (id == kInvalidMetricId) break;
    last_id = id;
    ++registered;
  }
  EXPECT_EQ(registered, kMaxHistograms);
  const std::uint64_t before = reg.CounterValue("obs.registry.overflow");
  const int id = reg.HistogramId("overflow.hist.one_too_many");
  EXPECT_EQ(id, kInvalidMetricId);
  EXPECT_EQ(reg.CounterValue("obs.registry.overflow"), before + 1);
  reg.HistogramRecord(id, 123);  // safe no-op
  // The last in-cap slot still records and quantiles correctly.
  reg.HistogramRecord(last_id, 4096);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Histogram("overflow.hist.one_too_many"), nullptr);
  const HistogramSnapshot* last = snap.Histogram(
      "overflow.hist." + std::to_string(registered - 1));
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->count, 1u);
  EXPECT_EQ(last->sum, 4096u);
  EXPECT_DOUBLE_EQ(last->Quantile(1.0), 4096.0);
}

}  // namespace
}  // namespace tfmae::obs
