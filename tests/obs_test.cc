// Tests for the observability layer (src/obs): registry semantics, the
// determinism contract (bitwise-stable dumps at any thread count), the
// exporters, and the runtime-disabled path of every instrumented site.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "data/generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fleet_server.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tfmae::obs {
namespace {

TEST(ObsMetricsTest, CounterAccumulatesAndIdsAreIdempotent) {
  Registry& reg = Registry::Instance();
  reg.Reset();
  const int id = reg.CounterId("obs_test.counter.basic");
  EXPECT_EQ(id, reg.CounterId("obs_test.counter.basic"));
  reg.CounterAdd(id, 3);
  reg.CounterAdd(id, 39);
  EXPECT_EQ(reg.CounterValue("obs_test.counter.basic"), 42u);
  EXPECT_EQ(reg.CounterValue("obs_test.counter.unregistered"), 0u);
}

TEST(ObsMetricsTest, HistogramBucketMapping) {
  EXPECT_EQ(HistogramBucket(0), 0);
  EXPECT_EQ(HistogramBucket(1), 1);
  EXPECT_EQ(HistogramBucket(2), 2);
  EXPECT_EQ(HistogramBucket(3), 2);  // [2, 4) -> bucket 2
  EXPECT_EQ(HistogramBucket(4), 3);
  EXPECT_EQ(HistogramBucket((1u << 10) - 1), 10);
  EXPECT_EQ(HistogramBucket(1u << 10), 11);
  EXPECT_EQ(HistogramBucket(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(3), 7u);
}

TEST(ObsMetricsTest, HistogramStats) {
  Registry& reg = Registry::Instance();
  reg.Reset();
  const int id = reg.HistogramId("obs_test.hist.stats");
  for (std::uint64_t v : {5u, 10u, 100u, 1000u}) reg.HistogramRecord(id, v);
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* h = snap.Histogram("obs_test.hist.stats");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum, 1115u);
  EXPECT_EQ(h->min, 5u);
  EXPECT_EQ(h->max, 1000u);
  EXPECT_DOUBLE_EQ(h->Mean(), 1115.0 / 4.0);
  // p100 interpolates to the top of the max's bucket, clamped to the max.
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 1000.0);
  EXPECT_EQ(snap.Histogram("obs_test.hist.unregistered"), nullptr);
}

// A histogram kept outside the registry (FleetServer's latency histograms)
// fills exactly as the registry does for the same samples.
TEST(ObsMetricsTest, SnapshotRecordMatchesRegistry) {
  Registry& reg = Registry::Instance();
  reg.Reset();
  const int id = reg.HistogramId("obs_test.hist.record");
  HistogramSnapshot local;
  for (std::uint64_t v : {0u, 1u, 7u, 7u, 7u, 4096u, 300u}) {
    reg.HistogramRecord(id, v);
    local.Record(v);
  }
  for (int i = 0; i < 5; ++i) reg.HistogramRecord(id, 55);
  local.Record(55, 5);
  local.Record(99, 0);  // no samples: no effect
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* h = snap.Histogram("obs_test.hist.record");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(local.count, h->count);
  EXPECT_EQ(local.sum, h->sum);
  EXPECT_EQ(local.min, h->min);
  EXPECT_EQ(local.max, h->max);
  for (int b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(local.buckets[b], h->buckets[b]) << "bucket " << b;
  }
  for (double p : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(local.Quantile(p), h->Quantile(p)) << "p=" << p;
  }
}

TEST(ObsMetricsTest, QuantileInterpolatesLogLinearlyInsideBuckets) {
  HistogramSnapshot h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty

  // Ten samples, all in bucket 3 ([4, 8)): the quantile moves smoothly
  // through the bucket instead of jumping to its upper bound.
  h.count = 10;
  h.min = 4;
  h.max = 7;
  h.buckets[3] = 10;
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 4.0);              // clamped to min
  EXPECT_NEAR(h.Quantile(0.5), std::exp2(2.5), 1e-9);  // 2^(2 + 0.5)
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);              // clamped to max
  EXPECT_LE(h.Quantile(0.25), h.Quantile(0.75));

  // Mass split across distant buckets: low quantiles stay in the low
  // bucket, the tail clamps to the observed max.
  HistogramSnapshot split;
  split.count = 4;
  split.min = 1;
  split.max = 600;
  split.buckets[1] = 3;    // value 1
  split.buckets[10] = 1;   // one sample in [512, 1024)
  EXPECT_NEAR(split.Quantile(0.5), std::exp2(2.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(split.Quantile(0.99), 600.0);

  // A zero-valued distribution reports 0 at every quantile.
  HistogramSnapshot zeros;
  zeros.count = 5;
  zeros.buckets[0] = 5;
  EXPECT_EQ(zeros.Quantile(0.9), 0.0);
}

TEST(ObsMetricsTest, GaugeSetAndHighWatermark) {
  Registry& reg = Registry::Instance();
  reg.Reset();
  const int id = reg.GaugeId("obs_test.gauge.level");
  reg.GaugeSet(id, 17);
  reg.GaugeSet(id, -4);  // last write wins
  reg.GaugeMax(id, 3);   // raises: 3 > -4
  reg.GaugeMax(id, 1);   // no-op: 1 < 3
  const MetricsSnapshot snap = reg.Snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "obs_test.gauge.level") {
      EXPECT_EQ(value, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsMetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  Registry& reg = Registry::Instance();
  const int id = reg.CounterId("obs_test.counter.reset");
  reg.CounterAdd(id, 99);
  reg.Reset();
  EXPECT_EQ(reg.CounterValue("obs_test.counter.reset"), 0u);
  EXPECT_EQ(id, reg.CounterId("obs_test.counter.reset"));
}

// The determinism contract: recording the same logical workload from pool
// workers must produce bitwise-identical JSON dumps at every thread count,
// exactly like varying TFMAE_NUM_THREADS (SetNumThreads is the same knob;
// the env var only sets its initial value).
TEST(ObsMetricsTest, DumpsBitwiseStableAcrossThreadCounts) {
  Registry& reg = Registry::Instance();
  const int counter = reg.CounterId("obs_test.parallel.counter");
  const int hist = reg.HistogramId("obs_test.parallel.hist");
  const int saved_threads = ThreadPool::Instance().num_threads();

  std::vector<std::string> dumps;
  for (int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    reg.Reset();
    ParallelFor(0, 4096, /*grain=*/64, [&](std::int64_t s, std::int64_t e) {
      for (std::int64_t i = s; i < e; ++i) {
        reg.CounterAdd(counter, static_cast<std::uint64_t>(i) + 1);
        reg.HistogramRecord(hist, static_cast<std::uint64_t>(i % 257));
      }
    });
    std::ostringstream json;
    DumpJsonTo(json);
    dumps.push_back(json.str());
  }
  ThreadPool::Instance().SetNumThreads(saved_threads);

  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
  // Sanity: the dump actually contains the workload's exact totals.
  EXPECT_EQ(reg.CounterValue("obs_test.parallel.counter"),
            std::uint64_t{4096} * 4097 / 2);
  EXPECT_NE(dumps[0].find("obs_test.parallel.counter"), std::string::npos);
}

TEST(ObsTraceTest, ScopedTraceRecordsOnlyWhileEnabled) {
  Registry::Instance().Reset();
  TraceSite* site = GetTraceSite("obs_test.trace.site");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site, GetTraceSite("obs_test.trace.site"));

  SetEnabled(true);
  { ScopedTrace scope(site); }
  SetEnabled(false);
  { ScopedTrace scope(site); }  // must not record

  const MetricsSnapshot snap = Registry::Instance().Snapshot();
  EXPECT_EQ(snap.Counter("obs_test.trace.site.calls"), 1u);
  const HistogramSnapshot* h = snap.Histogram("obs_test.trace.site.time_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST(ObsTraceTest, AutogradRecordAggregatesPerOp) {
  Registry::Instance().Reset();
  SetEnabled(true);
  AutogradRecord("ObsTestOp", 100);
  AutogradRecord("ObsTestOp", 23);
  SetEnabled(false);
  const MetricsSnapshot snap = Registry::Instance().Snapshot();
  EXPECT_EQ(snap.Counter("autograd.ObsTestOp.calls"), 2u);
  EXPECT_EQ(snap.Counter("autograd.ObsTestOp.self_ns"), 123u);
}

TEST(ObsExportTest, JsonDumpHasStableSections) {
  Registry& reg = Registry::Instance();
  reg.Reset();
  reg.CounterAdd(reg.CounterId("obs_test.json.counter"), 7);
  std::ostringstream json;
  DumpJsonTo(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"obs_test.json.counter\": 7"), std::string::npos);
}

TEST(ObsExportTest, TextDumpListsTopSites) {
  Registry::Instance().Reset();
  SetEnabled(true);
  { ScopedTrace scope(GetTraceSite("obs_test.text.site")); }
  SetEnabled(false);
  std::ostringstream text;
  DumpText(text);
  EXPECT_NE(text.str().find("obs_test.text.site"), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceRoundTrip) {
  Registry::Instance().Reset();
  ClearTraceEvents();
  SetEnabled(true);
  StartTracing();
  { ScopedTrace scope(GetTraceSite("obs_test.chrome.site")); }
  StopTracing();
  SetEnabled(false);

  const auto events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].second.site->name, "obs_test.chrome.site");
  EXPECT_EQ(DroppedTraceEvents(), 0u);

  const std::string path =
      testing::TempDir() + "/obs_test_chrome_trace.json";
  WriteChromeTrace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("obs_test.chrome.site"), std::string::npos);
  ClearTraceEvents();
  std::remove(path.c_str());
}

// Every build compiles the instrumentation in, so the disabled path is a
// runtime property: with obs::Enabled() false and no fault configured, a
// Fit, a Score and a FleetServer batch leave the registry, the fault
// counters and the trace capture exactly as empty as they found them.
TEST(ObsTraceTest, DisabledSitesRecordNothing) {
  SetEnabled(false);
  fault::Clear();
  ClearTraceEvents();
  Registry::Instance().Reset();

  data::BaseSignalConfig signal;
  signal.length = 160;
  signal.num_features = 2;
  signal.seed = 5;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);
  core::TfmaeConfig config;
  config.window = 16;
  config.stride = 16;
  config.model_dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 16;
  config.epochs = 1;
  core::TfmaeDetector detector(config);
  detector.Fit(series);
  EXPECT_FALSE(detector.Score(series).empty());

  serve::FleetOptions options;
  options.streaming.window = config.window;
  options.streaming.hop = 4;
  serve::FleetServer server(&detector, options);
  const std::int64_t stream = server.OpenStream();
  for (std::int64_t t = 0; t < 2 * config.window; ++t) {
    const float* row = &series.values[static_cast<std::size_t>(t * 2)];
    ASSERT_NE(server.Push(stream, std::vector<float>(row, row + 2)),
              serve::AdmitStatus::kOverloaded);
  }
  server.Drain();
  EXPECT_FALSE(server.TakeResults().empty());

  const MetricsSnapshot snap = Registry::Instance().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(value, 0) << name;
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }
  EXPECT_TRUE(fault::AllCounts().empty());
  EXPECT_TRUE(CollectTraceEvents().empty());
}

}  // namespace
}  // namespace tfmae::obs
