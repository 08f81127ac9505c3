// Live serving observability suite (docs/OBSERVABILITY.md, "Live endpoints
// & SLOs"): stage-attributed window timelines, per-stream SLO error
// budgets, the online score-drift monitor, and the /statusz JSON payload.
//
// Stage sums, e2e quantiles, SLO ledgers, and the drift monitor are plain
// ServeStats state (not obs macros), so everything here pins behavior in
// the default tier-1 build — no TFMAE_OBS required.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/drift.h"
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

}  // namespace
}  // namespace tfmae::serve
