// Prometheus text-exposition renderer tests (docs/OBSERVABILITY.md, "Live
// endpoints & SLOs").
//
// The renderer is a pure function of a MetricsSnapshot, so most tests here
// construct snapshots by hand and pin the exposition-format contract:
// sanitized names, `_total` counter suffix, HELP/TYPE per family, cumulative
// monotone `_bucket{le=...}` series ending in `+Inf` == `_count`, and
// byte-identical output for identical state. One test renders the live
// registry to prove registered metrics actually surface in a scrape.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"

namespace tfmae::obs {
namespace {

// Count occurrences of `needle` in `text`.
int Occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(PromExportTest, MetricNameSanitizes) {
  EXPECT_EQ(PromMetricName("serve.stage.queue_ns"), "serve_stage_queue_ns");
  EXPECT_EQ(PromMetricName("already_fine:name_09"), "already_fine:name_09");
  EXPECT_EQ(PromMetricName("weird-bytes here!"), "weird_bytes_here_");
  // A leading digit gets a '_' prepended (names must not start with one).
  EXPECT_EQ(PromMetricName("9lives.total"), "_9lives_total");
  EXPECT_EQ(PromMetricName(""), "");
}

TEST(PromExportTest, EscapeLabelHandlesBackslashQuoteNewline) {
  EXPECT_EQ(PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(PromEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PromEscapeLabel("line\nbreak"), "line\\nbreak");
}

TEST(PromExportTest, RendersCountersWithTotalSuffixAndHeaders) {
  MetricsSnapshot snap;
  snap.counters.push_back({"serve.batch.windows", 42});
  const std::string out = RenderPrometheusText(snap);
  EXPECT_NE(out.find("# HELP tfmae_serve_batch_windows_total tfmae counter "
                     "serve.batch.windows\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE tfmae_serve_batch_windows_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_batch_windows_total 42\n"),
            std::string::npos);
}

TEST(PromExportTest, RendersGaugesIncludingNegativeValues) {
  MetricsSnapshot snap;
  snap.gauges.push_back({"serve.queue.depth", -7});
  const std::string out = RenderPrometheusText(snap);
  EXPECT_NE(out.find("# TYPE tfmae_serve_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_queue_depth -7\n"), std::string::npos);
}

TEST(PromExportTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  HistogramSnapshot h;
  h.name = "serve.stage.score_ns";
  // Samples 0, 1, 5, 5: bucket 0 holds {0}, bucket 1 holds {1}, bucket 3
  // holds {5, 5} (bucket b >= 1 spans [2^(b-1), 2^b)).
  h.buckets[HistogramBucket(0)] += 1;
  h.buckets[HistogramBucket(1)] += 1;
  h.buckets[HistogramBucket(5)] += 2;
  h.count = 4;
  h.sum = 11;
  h.min = 0;
  h.max = 5;
  MetricsSnapshot snap;
  snap.histograms.push_back(h);
  const std::string out = RenderPrometheusText(snap);

  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  // Bucket 2 (le="3") is empty but sits below the top populated bucket, so
  // the cumulative series still emits it, carrying the running total.
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_bucket{le=\"7\"} 4\n"),
            std::string::npos);
  // Nothing renders past the top populated bucket except the mandatory
  // +Inf, which always equals _count.
  EXPECT_EQ(out.find("le=\"15\""), std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_sum 11\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_score_ns_count 4\n"),
            std::string::npos);

  // Cumulative counts parsed back out of the text must be monotone
  // non-decreasing in bucket order.
  std::vector<std::uint64_t> cumulative;
  const std::string key = "_bucket{le=\"";
  for (std::size_t pos = out.find(key); pos != std::string::npos;
       pos = out.find(key, pos + 1)) {
    const std::size_t space = out.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    cumulative.push_back(std::stoull(out.substr(space + 1)));
  }
  ASSERT_EQ(cumulative.size(), 5u);  // le=0,1,3,7 and +Inf
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket index " << i;
  }
}

TEST(PromExportTest, EmptyHistogramRendersOnlyInfSumCount) {
  HistogramSnapshot h;
  h.name = "serve.stage.idle_ns";
  MetricsSnapshot snap;
  snap.histograms.push_back(h);
  const std::string out = RenderPrometheusText(snap);
  EXPECT_EQ(Occurrences(out, "_bucket{le=\""), 1);  // just +Inf
  EXPECT_NE(out.find("tfmae_serve_stage_idle_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_idle_ns_sum 0\n"), std::string::npos);
  EXPECT_NE(out.find("tfmae_serve_stage_idle_ns_count 0\n"),
            std::string::npos);
}

TEST(PromExportTest, RenderIsDeterministic) {
  MetricsSnapshot snap;
  snap.counters.push_back({"a.counter", 1});
  snap.gauges.push_back({"b.gauge", 2});
  HistogramSnapshot h;
  h.name = "c.hist";
  h.buckets[HistogramBucket(9)] = 3;
  h.count = 3;
  h.sum = 27;
  h.min = 9;
  h.max = 9;
  snap.histograms.push_back(h);
  EXPECT_EQ(RenderPrometheusText(snap), RenderPrometheusText(snap));
}

TEST(PromExportTest, LiveRegistryMetricsSurfaceInScrape) {
  Registry& reg = Registry::Instance();
  const int counter = reg.CounterId("promtest.scrape.hits");
  const int gauge = reg.GaugeId("promtest.scrape.depth");
  const int hist = reg.HistogramId("promtest.scrape.ns");
  ASSERT_NE(counter, kInvalidMetricId);
  ASSERT_NE(gauge, kInvalidMetricId);
  ASSERT_NE(hist, kInvalidMetricId);
  reg.CounterAdd(counter, 5);
  reg.GaugeSet(gauge, 11);
  reg.HistogramRecord(hist, 1000);
  reg.HistogramRecord(hist, 2000);

  const std::string out = RenderPrometheusText(SnapshotWithFaults());
  EXPECT_NE(out.find("tfmae_promtest_scrape_hits_total 5\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_promtest_scrape_depth 11\n"), std::string::npos);
  EXPECT_NE(out.find("tfmae_promtest_scrape_ns_count 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("tfmae_promtest_scrape_ns_sum 3000\n"),
            std::string::npos);
  // Exposition hygiene over the whole document: every line is a comment or
  // a `name{labels} value` / `name value` sample; no line starts with a
  // digit or contains a bare dot in the metric name position.
  std::size_t start = 0;
  while (start < out.size()) {
    std::size_t end = out.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "document must end with newline";
    const std::string line = out.substr(start, end - start);
    ASSERT_FALSE(line.empty());
    if (line[0] != '#') {
      const std::size_t name_end = line.find_first_of(" {");
      ASSERT_NE(name_end, std::string::npos) << line;
      const std::string name = line.substr(0, name_end);
      for (char c : name) {
        ASSERT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':')
            << "bad metric-name byte in line: " << line;
      }
      ASSERT_FALSE(name.empty());
      ASSERT_FALSE(name[0] >= '0' && name[0] <= '9') << line;
    }
    start = end + 1;
  }
}

}  // namespace
}  // namespace tfmae::obs
