// Live serving observability suite (docs/OBSERVABILITY.md, "Live endpoints
// & SLOs"): stage-attributed window timelines, per-stream SLO error
// budgets, the online score-drift monitor, the /statusz JSON payload, and
// the `serve.*` families of /metrics.
//
// Stage sums, e2e quantiles, SLO ledgers, and the drift monitor are plain
// ServeStats state (not obs macros), so everything here pins behavior in
// the default tier-1 build — no TFMAE_OBS required.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/drift.h"
#include "obs/export.h"
#include "obs/prom_export.h"
#include "obs/trace.h"
#include "serve/fleet_server.h"

namespace tfmae::serve {
namespace {

constexpr std::int64_t kWindow = 16;
constexpr std::int64_t kFeatures = 2;

core::TfmaeConfig TestConfig() {
  core::TfmaeConfig config;
  config.window = kWindow;
  config.stride = kWindow;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 1;
  config.seed = 11;
  return config;
}

data::TimeSeries TrainSeries() {
  data::TimeSeries train;
  train.length = 256;
  train.num_features = kFeatures;
  train.values.resize(
      static_cast<std::size_t>(train.length * train.num_features));
  for (std::int64_t t = 0; t < train.length; ++t) {
    for (std::int64_t f = 0; f < kFeatures; ++f) {
      train.values[static_cast<std::size_t>(t * kFeatures + f)] =
          std::sin(0.19 * static_cast<double>(t) +
                   0.7 * static_cast<double>(f)) +
          0.05 * std::cos(0.83 * static_cast<double>(t));
    }
  }
  return train;
}

// One fitted detector shared by every test (read-only after Fit).
core::TfmaeDetector* SharedDetector() {
  static core::TfmaeDetector* detector = [] {
    auto* d = new core::TfmaeDetector(TestConfig());
    d->Fit(TrainSeries());
    return d;
  }();
  return detector;
}

std::vector<float> RowFor(std::int64_t stream, std::int64_t t) {
  std::vector<float> row(static_cast<std::size_t>(kFeatures));
  for (std::int64_t f = 0; f < kFeatures; ++f) {
    row[static_cast<std::size_t>(f)] = static_cast<float>(
        std::sin(0.19 * static_cast<double>(t + 3 * stream) +
                 0.7 * static_cast<double>(f)) +
        0.01 * static_cast<double>(stream % 5));
  }
  return row;
}

FleetOptions BaseOptions() {
  FleetOptions options;
  options.streaming.window = kWindow;
  options.streaming.hop = 3;
  options.batch_max = 8;
  return options;
}

// Pushes `rows` ticks across `streams` streams and drains.
void RunLoad(FleetServer* server, std::int64_t streams, std::int64_t rows) {
  for (std::int64_t s = 0; s < streams; ++s) server->OpenStream();
  for (std::int64_t t = 0; t < rows; ++t) {
    for (std::int64_t s = 0; s < streams; ++s) {
      ASSERT_NE(server->Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
    }
  }
  server->Drain();
}

// The server's own scores for this load, in scoring order (used to build a
// matched drift reference).
std::vector<float> ScoresFor(std::int64_t streams, std::int64_t rows) {
  FleetServer server(SharedDetector(), BaseOptions());
  RunLoad(&server, streams, rows);
  std::vector<float> scores;
  for (const ScoredWindow& r : server.TakeResults()) {
    scores.push_back(r.score);
  }
  return scores;
}

// ---- Stage-attributed timelines ------------------------------------------

TEST(ServeObsTest, StageSumsReconcileExactlyWithTotal) {
  FleetServer server(SharedDetector(), BaseOptions());
  RunLoad(&server, 4, 60);
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.windows_scored, 0);
  // The invariant is by construction, so it holds EXACTLY, not within a
  // tolerance: every window's total is defined as the sum of its stages.
  EXPECT_EQ(stats.stage_total_ns,
            stats.stage_queue_ns + stats.stage_batch_ns +
                stats.stage_score_ns + stats.stage_result_ns);
  // Scoring does real work, so the score stage cannot be empty, and the
  // end-to-end quantiles must be populated and ordered.
  EXPECT_GT(stats.stage_score_ns, 0);
  EXPECT_GT(stats.stage_total_ns, 0);
  EXPECT_GT(stats.p50_e2e_ns, 0.0);
  EXPECT_LE(stats.p50_e2e_ns, stats.p95_e2e_ns);
  EXPECT_LE(stats.p95_e2e_ns, stats.p99_e2e_ns);
  // Experienced latency includes queue wait, so the e2e p50 cannot be
  // below the per-window scoring p50.
  EXPECT_GE(stats.p99_e2e_ns, stats.p50_window_ns);
}

TEST(ServeObsTest, StageSumsGrowMonotonicallyAcrossBatches) {
  FleetServer server(SharedDetector(), BaseOptions());
  for (std::int64_t s = 0; s < 2; ++s) server.OpenStream();
  std::int64_t previous_total = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t t = 0; t < 30; ++t) {
      for (std::int64_t s = 0; s < 2; ++s) {
        ASSERT_NE(server.Push(s, RowFor(s, 90 * round + t)),
                  AdmitStatus::kOverloaded);
      }
    }
    server.Flush();
    const ServeStats stats = server.stats();
    EXPECT_GE(stats.stage_total_ns, previous_total);
    EXPECT_EQ(stats.stage_total_ns,
              stats.stage_queue_ns + stats.stage_batch_ns +
                  stats.stage_score_ns + stats.stage_result_ns);
    previous_total = stats.stage_total_ns;
  }
  server.Drain();
}

// ---- Per-stream SLO error budgets ----------------------------------------

TEST(ServeObsTest, ImpossibleLatencySloBreachesAndExhausts) {
  FleetOptions options = BaseOptions();
  options.slo_latency_ns = 1;  // nothing scores in a nanosecond
  options.slo_window = 8;
  options.slo_budget = 0.0;  // zero tolerance: one breach over a full ring
  FleetServer server(SharedDetector(), options);
  RunLoad(&server, 3, 80);
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.windows_scored, 0);
  // Every scored window breached the 1ns objective...
  EXPECT_EQ(stats.slo_latency_breaches, stats.windows_scored);
  // ...and every stream burned through its (empty) budget.
  EXPECT_EQ(stats.slo_exhausted_streams, 3);
  EXPECT_GE(stats.slo_exhausted_episodes, 3);
  EXPECT_EQ(stats.slo_staleness_breaches, 0);  // staleness objective off
}

TEST(ServeObsTest, GenerousLatencySloNeverBreaches) {
  FleetOptions options = BaseOptions();
  options.slo_latency_ns = 60'000'000'000;  // a minute per window
  options.slo_window = 8;
  FleetServer server(SharedDetector(), options);
  RunLoad(&server, 3, 80);
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.windows_scored, 0);
  EXPECT_EQ(stats.slo_latency_breaches, 0);
  EXPECT_EQ(stats.slo_exhausted_streams, 0);
  EXPECT_EQ(stats.slo_exhausted_episodes, 0);
}

TEST(ServeObsTest, StalenessSloBreachesWhenResultsLagIngest) {
  FleetOptions options = BaseOptions();
  options.auto_flush = false;  // queue everything, score only at Drain
  options.slo_staleness_rows = 1;
  options.slo_window = 8;
  options.queue_capacity = 4096;
  FleetServer server(SharedDetector(), options);
  server.OpenStream();
  // 120 rows pushed before anything scores: by drain time, early windows
  // are scored dozens of rows after their trigger row arrived.
  for (std::int64_t t = 0; t < 120; ++t) {
    ASSERT_NE(server.Push(0, RowFor(0, t)), AdmitStatus::kOverloaded);
  }
  server.Drain();
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.windows_scored, 0);
  EXPECT_GT(stats.slo_staleness_breaches, 0);
  EXPECT_EQ(stats.slo_latency_breaches, 0);  // latency objective off
}

TEST(ServeObsTest, SloOffByDefaultCountsNothing) {
  FleetServer server(SharedDetector(), BaseOptions());
  RunLoad(&server, 2, 60);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.slo_latency_breaches, 0);
  EXPECT_EQ(stats.slo_staleness_breaches, 0);
  EXPECT_EQ(stats.slo_exhausted_streams, 0);
  EXPECT_EQ(stats.slo_exhausted_episodes, 0);
}

// ---- Online score-drift monitor ------------------------------------------

TEST(ServeObsTest, MatchedReferenceChecksButNeverAlarms) {
  const std::vector<float> produced = ScoresFor(3, 60);
  ASSERT_FALSE(produced.empty());

  FleetOptions options = BaseOptions();
  // Cadence == total score count, so the single check fires only once the
  // reservoir holds the exact multiset the reference was built from: the
  // binned empirical distributions coincide and K-S is exactly zero.
  options.drift_check_every = static_cast<std::int64_t>(produced.size());
  options.drift_reservoir = 4096;  // hold every score of this short run
  options.drift_threshold = 0.35;
  FleetServer server(SharedDetector(), options);
  server.SetDriftReference(core::BuildScoreDistribution(produced));
  RunLoad(&server, 3, 60);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.drift_checks, 1);
  EXPECT_EQ(stats.drift_alarms, 0);
  EXPECT_LT(stats.drift_ks, 1e-12);
}

TEST(ServeObsTest, ShiftedReferenceRaisesDriftAlarm) {
  std::vector<float> shifted = ScoresFor(3, 60);
  ASSERT_FALSE(shifted.empty());
  for (float& s : shifted) s += 100.0f;  // disjoint support vs live scores

  FleetOptions options = BaseOptions();
  options.drift_check_every = 8;
  options.drift_reservoir = 256;
  options.drift_threshold = 0.5;
  FleetServer server(SharedDetector(), options);
  server.SetDriftReference(core::BuildScoreDistribution(shifted));
  RunLoad(&server, 3, 60);
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.drift_checks, 0);
  EXPECT_EQ(stats.drift_alarms, stats.drift_checks);  // every check fires
  EXPECT_GT(stats.drift_ks, 0.5);
}

TEST(ServeObsTest, DriftDisabledByDefault) {
  FleetServer server(SharedDetector(), BaseOptions());
  server.SetDriftReference(
      core::BuildScoreDistribution(ScoresFor(2, 40)));
  RunLoad(&server, 2, 40);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.drift_checks, 0);
  EXPECT_EQ(stats.drift_alarms, 0);
}

TEST(ServeObsTest, CalibrateThresholdInstallsFallbackReference) {
  FleetOptions options = BaseOptions();
  options.drift_check_every = 8;
  options.drift_reservoir = 128;
  FleetServer server(SharedDetector(), options);
  // No explicit SetDriftReference: calibration scores become the reference.
  server.CalibrateThreshold(SharedDetector()->Score(TrainSeries()), 0.05);
  RunLoad(&server, 3, 60);
  EXPECT_GT(server.stats().drift_checks, 0);
}

// ---- Score-distribution persistence --------------------------------------

TEST(ServeObsTest, ScoreDistributionSaveLoadRoundTrip) {
  const core::ScoreDistribution original =
      core::BuildScoreDistribution(ScoresFor(2, 50));
  ASSERT_FALSE(original.empty());
  core::ScoreDistribution restored;
  ASSERT_TRUE(core::DecodeScoreDistribution(
      core::EncodeScoreDistribution(original), &restored));
  EXPECT_EQ(restored.lo, original.lo);
  EXPECT_EQ(restored.hi, original.hi);
  EXPECT_EQ(restored.count, original.count);
  EXPECT_EQ(restored.buckets, original.buckets);
}

TEST(ServeObsTest, CorruptScoreDistributionFailsToLoad) {
  const std::string garbage = "not a score distribution";
  core::ScoreDistribution dist;
  EXPECT_FALSE(core::DecodeScoreDistribution({garbage.begin(), garbage.end()},
                                             &dist));
  std::vector<char> payload = core::EncodeScoreDistribution(
      core::BuildScoreDistribution(ScoresFor(2, 50)));
  payload.pop_back();  // truncated
  EXPECT_FALSE(core::DecodeScoreDistribution(payload, &dist));
  EXPECT_TRUE(dist.empty());
}

TEST(ServeObsTest, DetectorCheckpointCarriesScoreReference) {
  core::TfmaeDetector original(TestConfig());
  original.Fit(TrainSeries());
  original.SetScoreReference(
      core::BuildScoreDistribution(original.Score(TrainSeries())));
  ASSERT_TRUE(original.has_score_reference());

  const std::string path = ::testing::TempDir() + "/tfmae_obs.ckpt";
  ASSERT_TRUE(original.SaveCheckpoint(path));
  core::TfmaeDetector restored(TestConfig());
  ASSERT_TRUE(restored.LoadCheckpoint(path));
  std::remove(path.c_str());
  ASSERT_TRUE(restored.has_score_reference());
  EXPECT_EQ(restored.score_reference().count,
            original.score_reference().count);
  EXPECT_EQ(restored.score_reference().buckets,
            original.score_reference().buckets);
}

// ---- /statusz JSON payload -----------------------------------------------

TEST(ServeObsTest, ServeStatsJsonIsWellFormedAndCarriesLiveValues) {
  FleetOptions options = BaseOptions();
  options.slo_latency_ns = 1;
  options.slo_window = 8;
  options.slo_budget = 0.0;
  FleetServer server(SharedDetector(), options);
  RunLoad(&server, 2, 60);
  const ServeStats stats = server.stats();
  const std::string json = ServeStatsJson(stats);

  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Structural sanity: braces and quotes balance, keys are quoted.
  int depth = 0;
  int quotes = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '"') ++quotes;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);

  const std::string scored = "\"windows_scored\":" +
                             std::to_string(stats.windows_scored);
  EXPECT_NE(json.find(scored), std::string::npos) << json;
  const std::string breaches = "\"slo_latency_breaches\":" +
                               std::to_string(stats.slo_latency_breaches);
  EXPECT_NE(json.find(breaches), std::string::npos) << json;
  for (const char* key :
       {"\"streams\":", "\"stage_queue_ns\":", "\"stage_total_ns\":",
        "\"p99_e2e_ns\":", "\"drift_ks\":", "\"degraded\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Rendering the same stats twice is byte-identical (the payload feeds
  // canonical dumps and scrape diffs).
  EXPECT_EQ(json, ServeStatsJson(stats));
}

// ---- /metrics families ----------------------------------------------------

// A rendered exposition: each sample line's series (name and labels) with
// its value text, and the number of `# TYPE` lines per family.
struct Exposition {
  std::map<std::string, std::string> samples;
  std::map<std::string, int> types;

  // Value text of one series; "" when absent.
  std::string Value(const std::string& series) const {
    const auto it = samples.find(series);
    return it == samples.end() ? std::string() : it->second;
  }
};

Exposition ParseExposition(const std::string& text) {
  Exposition e;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      ++e.types[line.substr(7, line.find(' ', 7) - 7)];
    } else if (!line.empty() && line.front() != '#') {
      const std::size_t space = line.rfind(' ');
      e.samples[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return e;
}

// What /metrics of `tfmae_serve` renders for `server`.
std::string RenderMetrics(const FleetServer& server) {
  obs::MetricsSnapshot snap = obs::SnapshotWithFaults();
  AppendServeMetrics(server.stats(), &snap);
  return obs::RenderPrometheusText(snap);
}

// One histogram family's `_sum` and `_count`.
struct PromHistogram {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

// Reads one histogram family and checks it as scripts/live_smoke.py does:
// in ascending `le` order the buckets are cumulative, and `+Inf` equals
// `_count`.
PromHistogram CheckedHistogram(const Exposition& e, const std::string& family) {
  PromHistogram h;
  const std::string sum = e.Value(family + "_sum");
  const std::string count = e.Value(family + "_count");
  EXPECT_FALSE(sum.empty()) << family;
  EXPECT_FALSE(count.empty()) << family;
  if (sum.empty() || count.empty()) return h;
  h.sum = std::stoull(sum);
  h.count = std::stoull(count);
  const std::string prefix = family + "_bucket{le=\"";
  std::vector<std::pair<double, std::uint64_t>> buckets;
  for (auto it = e.samples.lower_bound(prefix);
       it != e.samples.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const std::string le = it->first.substr(
        prefix.size(), it->first.size() - prefix.size() - 2);
    buckets.emplace_back(
        le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le),
        std::stoull(it->second));
  }
  std::sort(buckets.begin(), buckets.end());
  EXPECT_FALSE(buckets.empty()) << family;
  if (buckets.empty()) return h;
  EXPECT_TRUE(std::isinf(buckets.back().first)) << family << " lacks +Inf";
  EXPECT_EQ(buckets.back().second, h.count) << family;
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i - 1].second, buckets[i].second)
        << family << " buckets not cumulative";
  }
  return h;
}

// `"name":` as ServeStatsJson prints a key.
std::string JsonKey(const char* name) {
  std::string key = "\"";
  key.append(name).append("\":");
  return key;
}

// Switches recording off for one test and restores the previous state.
class RecordingOff {
 public:
  RecordingOff() { obs::SetEnabled(false); }
  ~RecordingOff() { obs::SetEnabled(was_); }

 private:
  bool was_ = obs::Enabled();
};

// With recording off the registry holds no serve.* metric, yet /metrics
// carries every ServeStats counter, gauge and histogram, each under the
// name /statusz prints and with the value the same stats() read returned.
TEST(ServeObsTest, MetricsCarryEveryServeStatsFieldWithRecordingOff) {
  RecordingOff off;
  FleetOptions options = BaseOptions();
  options.slo_latency_ns = 1;  // every window breaches: nonzero SLO counts
  options.slo_window = 8;
  options.slo_budget = 0.0;
  options.drift_check_every = 8;
  FleetServer server(SharedDetector(), options);
  server.CalibrateThreshold(SharedDetector()->Score(TrainSeries()), 0.05);
  RunLoad(&server, 3, 60);
  const ServeStats stats = server.stats();
  ASSERT_GT(stats.windows_scored, 0);
  ASSERT_GT(stats.drift_checks, 0);

  obs::MetricsSnapshot snap = obs::SnapshotWithFaults();
  AppendServeMetrics(stats, &snap);
  const Exposition e = ParseExposition(obs::RenderPrometheusText(snap));
  const std::string json = ServeStatsJson(stats);

  const std::pair<const char*, std::int64_t> counters[] = {
      {"rows_pushed", stats.rows_pushed},
      {"rows_overloaded", stats.rows_overloaded},
      {"rows_rejected", stats.rows_rejected},
      {"rows_quarantined", stats.rows_quarantined},
      {"rows_warmup", stats.rows_warmup},
      {"windows_enqueued", stats.windows_enqueued},
      {"windows_scored", stats.windows_scored},
      {"eager_windows", stats.eager_windows},
      {"batches", stats.batches},
      {"alerts", stats.alerts},
      {"quant_fallbacks", stats.quant_fallbacks},
      {"shed_dropped", stats.shed_dropped},
      {"shed_deadline_expired", stats.shed_deadline_expired},
      {"snapshots_written", stats.snapshots_written},
      {"snapshots_failed", stats.snapshots_failed},
      {"watchdog_stalls", stats.watchdog_stalls},
      {"slo_latency_breaches", stats.slo_latency_breaches},
      {"slo_staleness_breaches", stats.slo_staleness_breaches},
      {"slo_exhausted_episodes", stats.slo_exhausted_episodes},
      {"drift_checks", stats.drift_checks},
      {"drift_alarms", stats.drift_alarms},
  };
  const std::pair<const char*, std::int64_t> gauges[] = {
      {"streams", stats.streams},
      {"max_batch", stats.max_batch},
      {"plan_lanes", stats.plan_lanes},
      {"quant_lanes", stats.quant_lanes},
      {"plan_arena_bytes", stats.plan_arena_bytes},
      {"quant_arena_bytes", stats.quant_arena_bytes},
      {"peak_queue_depth", stats.peak_queue_depth},
      {"bytes_per_stream", stats.bytes_per_stream},
      {"snapshot_index", stats.snapshot_index},
      {"slo_exhausted_streams", stats.slo_exhausted_streams},
  };
  for (const auto& [name, value] : counters) {
    const std::string family = std::string("tfmae_serve_") + name + "_total";
    EXPECT_EQ(e.Value(family), std::to_string(value)) << family;
    EXPECT_EQ(e.types.count(family), 1u) << family;
    EXPECT_NE(json.find(JsonKey(name) + std::to_string(value)),
              std::string::npos)
        << name;
  }
  for (const auto& [name, value] : gauges) {
    const std::string family = std::string("tfmae_serve_") + name;
    EXPECT_EQ(e.Value(family), std::to_string(value)) << family;
    EXPECT_EQ(e.types.count(family), 1u) << family;
    EXPECT_NE(json.find(JsonKey(name) + std::to_string(value)),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(e.Value("tfmae_serve_degraded"), stats.degraded ? "1" : "0");
  EXPECT_GT(stats.slo_latency_breaches, 0);
  EXPECT_GT(stats.alerts, 0);

  // The stage sums appear as the histograms' _sum, and the five stage
  // histograms and the score-window one share one _count.
  const std::pair<const char*, std::int64_t> stages[] = {
      {"queue", stats.stage_queue_ns},   {"batch", stats.stage_batch_ns},
      {"score", stats.stage_score_ns},   {"result", stats.stage_result_ns},
      {"total", stats.stage_total_ns},
  };
  const std::uint64_t windows =
      static_cast<std::uint64_t>(stats.windows_scored);
  for (const auto& [stage, sum] : stages) {
    const PromHistogram h =
        CheckedHistogram(e, std::string("tfmae_serve_stage_") + stage + "_ns");
    EXPECT_EQ(h.sum, static_cast<std::uint64_t>(sum)) << stage;
    EXPECT_EQ(h.count, windows) << stage;
  }
  EXPECT_GT(stats.stage_score_ns, 0);
  EXPECT_EQ(CheckedHistogram(e, "tfmae_serve_score_window_ns").count, windows);
  EXPECT_EQ(CheckedHistogram(e, "tfmae_serve_e2e_ns").count, windows);

  // No family twice, and exactly the expected number of serve families:
  // the counters, the gauges with `degraded`, and seven histograms.
  std::size_t serve_families = 0;
  for (const auto& [family, lines] : e.types) {
    EXPECT_EQ(lines, 1) << family;
    if (family.rfind("tfmae_serve_", 0) == 0) ++serve_families;
  }
  EXPECT_EQ(serve_families, std::size(counters) + std::size(gauges) + 1 + 7);
}

// Renders taken while two producers push and batches score each reconcile
// as scripts/live_smoke.py requires of a scrape: one read of the server is
// a consistent cut of its stage and score-window histograms.
TEST(ServeObsTest, RendersDuringLoadEachReconcile) {
  FleetOptions options = BaseOptions();
  options.batch_max = 4;
  FleetServer server(SharedDetector(), options);
  constexpr int kProducers = 2;
  constexpr std::int64_t kStreamsEach = 3;
  for (std::int64_t s = 0; s < kProducers * kStreamsEach; ++s) {
    server.OpenStream();
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&server, &stop, p] {
      for (std::int64_t t = 0; !stop.load(std::memory_order_relaxed); ++t) {
        for (std::int64_t k = 0; k < kStreamsEach; ++k) {
          const std::int64_t s = p * kStreamsEach + k;
          while (server.Push(s, RowFor(s, t)) == AdmitStatus::kOverloaded) {
            server.Flush();
          }
        }
      }
    });
  }

  const char* const kStages[] = {"queue", "batch", "score", "result"};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  int renders = 0;
  std::set<std::uint64_t> counts_seen;
  while ((renders < 1000 || counts_seen.size() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    const Exposition e = ParseExposition(RenderMetrics(server));
    const PromHistogram total =
        CheckedHistogram(e, "tfmae_serve_stage_total_ns");
    std::uint64_t stage_sum = 0;
    for (const char* stage : kStages) {
      const PromHistogram h =
          CheckedHistogram(e, std::string("tfmae_serve_stage_") + stage + "_ns");
      EXPECT_EQ(h.count, total.count) << stage << " at render " << renders;
      stage_sum += h.sum;
    }
    EXPECT_EQ(stage_sum, total.sum) << "at render " << renders;
    EXPECT_EQ(CheckedHistogram(e, "tfmae_serve_score_window_ns").count,
              total.count)
        << "at render " << renders;
    for (const auto& [family, lines] : e.types) {
      EXPECT_EQ(lines, 1) << family;
    }
    counts_seen.insert(total.count);
    ++renders;
    if (HasFailure()) break;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& producer : producers) producer.join();
  server.Drain();
  EXPECT_GE(renders, 1000);
  // The renders interleaved with scoring: they saw the counts grow.
  EXPECT_GE(counts_seen.size(), 3u);
}

}  // namespace
}  // namespace tfmae::serve
