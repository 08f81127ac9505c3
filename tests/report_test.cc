// Tests for run-ledger reporting (src/obs/report): K-S drift arithmetic,
// run digests, and byte-exact goldens for the summary and diff renderings
// consumed by tools/tfmae_report.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/ledger.h"
#include "obs/report.h"

namespace tfmae::obs {
namespace {

// ctest runs each TEST as its own process, possibly in parallel with other
// tests from this binary, so scratch paths must be unique per test, not
// just per run_id.
std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info != nullptr ? info->name() : "unknown";
  return (std::filesystem::temp_directory_path() /
          ("tfmae_report_" + test + "_" + name))
      .string();
}

void RemoveRun(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".partial", ec);
}

/// Writes a small deterministic run and reads it back. `variant` b gets one
/// extra step, a guard trip, and a shifted score distribution.
LedgerFile MakeRun(const std::string& run_id, bool variant_b) {
  const std::string path = TempPath(run_id + ".jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = run_id;
  manifest.num_threads = 1;
  EXPECT_TRUE(ledger.Open(path, manifest));
  ledger.Step(0, 2.0, 0.5, 1e-3);
  ledger.Step(1, 1.0, 0.25, 1e-3);
  if (variant_b) {
    ledger.GuardTrip(2, "nonfinite_loss", 3.0, 5e-4);
    ledger.Step(2, 0.5, 0.125, 5e-4);
    ledger.EpochEnd(0, 1.25, 3);
    ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 4, {1, 3});
  } else {
    ledger.CheckpointWrite(1, "ckpt_000001.bin", true);
    ledger.EpochEnd(0, 1.5, 2);
    ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 4, {2, 2});
  }
  EXPECT_TRUE(ledger.Close());
  auto file = ReadLedger(path);
  EXPECT_TRUE(file.has_value());
  RemoveRun(path);
  return std::move(*file);
}

TEST(KsDistanceTest, IdenticalDistributionsHaveZeroDistance) {
  const std::vector<std::uint64_t> buckets = {3, 1, 4, 1, 5};
  EXPECT_EQ(KsDistance(0.0, 2.0, buckets, 0.0, 2.0, buckets), 0.0);
}

TEST(KsDistanceTest, DisjointSupportsHaveDistanceOne) {
  EXPECT_DOUBLE_EQ(KsDistance(0.0, 1.0, {4}, 2.0, 3.0, {4}), 1.0);
}

TEST(KsDistanceTest, EmptySideYieldsZero) {
  EXPECT_EQ(KsDistance(0.0, 1.0, {}, 0.0, 1.0, {4}), 0.0);
  EXPECT_EQ(KsDistance(0.0, 1.0, {0, 0}, 0.0, 1.0, {4}), 0.0);
}

TEST(KsDistanceTest, PartialOverlapIsSupOfCdfGap) {
  // CDFs at the shared inner edge 0.5: 2/4 vs 1/4.
  EXPECT_DOUBLE_EQ(KsDistance(0.0, 1.0, {2, 2}, 0.0, 1.0, {1, 3}), 0.25);
  // Different binnings/ranges still compare on merged edges; the gap peaks
  // where run a's support ends: CDF_a(0.5) = 1 vs CDF_b(0.5) = 1/2.
  EXPECT_DOUBLE_EQ(KsDistance(0.0, 0.5, {1, 1}, 0.0, 1.0, {1, 1, 1, 1}), 0.5);
}

TEST(ReportTest, DigestCountsEventsByType) {
  const RunDigest d = DigestRun(MakeRun("digest_b", /*variant_b=*/true));
  EXPECT_EQ(d.tool, "report_test");
  EXPECT_EQ(d.run_id, "digest_b");
  EXPECT_TRUE(d.sealed);
  EXPECT_EQ(d.steps, 3);
  EXPECT_EQ(d.guard_trips, 1);
  EXPECT_EQ(d.guard_give_ups, 0);
  EXPECT_EQ(d.checkpoints_ok, 0);
  EXPECT_DOUBLE_EQ(d.first_loss, 2.0);
  EXPECT_DOUBLE_EQ(d.last_loss, 0.5);
  ASSERT_EQ(d.epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(d.epochs[0].second, 1.25);
  ASSERT_EQ(d.histograms.size(), 1u);

  const RunDigest a = DigestRun(MakeRun("digest_a", /*variant_b=*/false));
  EXPECT_EQ(a.steps, 2);
  EXPECT_EQ(a.guard_trips, 0);
  EXPECT_EQ(a.checkpoints_ok, 1);
  EXPECT_EQ(a.checkpoints_failed, 0);
}

TEST(ReportTest, PlanEventsSurfaceInDigestAndSummary) {
  const std::string path = TempPath("plan.jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = "plan_run";
  manifest.num_threads = 1;
  ASSERT_TRUE(ledger.Open(path, manifest));
  // Two captures (geometry change mid-run); the digest keeps the last one.
  ledger.Event("plan", {{"ops", "120"},
                        {"captured_ops", "150"},
                        {"arena_bytes", "40960"},
                        {"t_capture_ms", "3.5"}});
  ledger.Event("plan", {{"ops", "140"},
                        {"captured_ops", "179"},
                        {"arena_bytes", "57600"},
                        {"t_capture_ms", "2.5"}});
  ASSERT_TRUE(ledger.Close());
  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  RemoveRun(path);

  const RunDigest d = DigestRun(*file);
  EXPECT_EQ(d.plan_captures, 2);
  EXPECT_EQ(d.plan_ops, 140);
  EXPECT_EQ(d.plan_arena_bytes, 57600);

  ReportOptions options;
  options.show_timing = false;
  const std::string report = RenderRunReport(*file, options);
  EXPECT_NE(report.find("inference plan: 2 capture(s), 140 ops, "
                        "arena 57600 B"),
            std::string::npos)
      << report;
}

TEST(ReportTest, QuantEventsSurfaceInDigestAndSummary) {
  const std::string path = TempPath("quant.jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = "quant_run";
  manifest.num_threads = 1;
  ASSERT_TRUE(ledger.Open(path, manifest));
  ledger.Event("quant", {{"verdict", JsonQuote("calibrated")},
                         {"sites", "26"},
                         {"windows", "31"},
                         {"amax_min", "0.125"},
                         {"amax_max", "9.5"}});
  ledger.Event("quant", {{"verdict", JsonQuote("self_verified")},
                         {"isa", JsonQuote("avx512vnni")},
                         {"sites", "26"},
                         {"quant_linear_ops", "26"},
                         {"elided_quant_pairs", "34"},
                         {"quant_arena_bytes", "3648"}});
  ledger.Event("quant", {{"verdict", JsonQuote("fallback")},
                         {"reason", JsonQuote("no calibration spec")}});
  ASSERT_TRUE(ledger.Close());
  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  RemoveRun(path);

  const RunDigest d = DigestRun(*file);
  EXPECT_EQ(d.quant_calibrations, 1);
  EXPECT_EQ(d.quant_plans, 1);
  EXPECT_EQ(d.quant_fallbacks, 1);
  EXPECT_EQ(d.quant_sites, 26);
  EXPECT_EQ(d.quant_linear_ops, 26);
  EXPECT_EQ(d.quant_elided_pairs, 34);
  EXPECT_EQ(d.quant_arena_bytes, 3648);
  EXPECT_DOUBLE_EQ(d.quant_amax_min, 0.125);
  EXPECT_DOUBLE_EQ(d.quant_amax_max, 9.5);
  EXPECT_EQ(d.quant_fallback_reason, "no calibration spec");

  ReportOptions options;
  options.show_timing = false;
  const std::string report = RenderRunReport(*file, options);
  EXPECT_NE(report.find("calibrated 26 sites (|x| 0.125..9.5)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("int8 plan self-verified: 26 int8 matmuls, "
                        "34 elided quant pairs, u8 arena 3648 B"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("1 fp32 fallback(s) (no calibration spec)"),
            std::string::npos)
      << report;
}

TEST(ReportTest, RunReportGoldenWithoutTiming) {
  ReportOptions options;
  options.show_timing = false;
  const std::string report = RenderRunReport(MakeRun("run_a", false), options);
  EXPECT_EQ(report,
            "== run: run_a (report_test) ==\n"
            "  threads: 1  integrity: sealed\n"
            "  events: 5  steps: 2  guard trips: 0  checkpoints: 1\n"
            "  loss: first 2 -> last 1\n"
            "  epoch  mean_loss\n"
            "      0  1.5\n"
            "  scores 'anomaly_score': n=4  p50 0.5  p95 0.95  p99 0.99"
            "  max 1\n");
}

TEST(ReportTest, RunDiffGoldenIsDeterministic) {
  const LedgerFile a = MakeRun("run_a", false);
  const LedgerFile b = MakeRun("run_b", true);
  const std::string diff = RenderRunDiff(a, b);
  EXPECT_EQ(diff,
            "== diff: run_a vs run_b ==\n"
            "  steps: 2 vs 3  [DIFFERS]\n"
            "  guard trips: 0 vs 1  [DIFFERS]\n"
            "  checkpoints: 1 vs 0\n"
            "  final step loss: 1 vs 0.5  (delta -0.5)\n"
            "  epoch  mean_loss_a    mean_loss_b    delta\n"
            "      0  1.5           1.25          -0.25\n"
            "  scores 'anomaly_score': K-S distance 0.250000\n");
  // Rendering is pure: a second render is byte-identical.
  EXPECT_EQ(diff, RenderRunDiff(a, b));
}

TEST(ReportTest, DiffOfARunWithItselfReportsIdenticalScores) {
  const LedgerFile a = MakeRun("run_a", false);
  const std::string diff = RenderRunDiff(a, a);
  EXPECT_NE(diff.find("K-S distance 0.000000  (identical)"),
            std::string::npos);
  EXPECT_EQ(diff.find("[DIFFERS]"), std::string::npos);
}

TEST(ReportTest, DuplicateHistogramNamesPairByOccurrence) {
  // A run that calls Score twice records two histograms under the same
  // name; the diff must pair first-with-first and second-with-second, not
  // compare everything against run b's first.
  const auto make = [](const std::string& run_id,
                       std::vector<std::uint64_t> second) {
    const std::string path = TempPath(run_id + ".jsonl");
    RemoveRun(path);
    Ledger ledger;
    RunManifest manifest;
    manifest.tool = "report_test";
    manifest.run_id = run_id;
    EXPECT_TRUE(ledger.Open(path, manifest));
    ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 4, {2, 2});
    ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 4, second);
    EXPECT_TRUE(ledger.Close());
    auto file = ReadLedger(path);
    EXPECT_TRUE(file.has_value());
    RemoveRun(path);
    return std::move(*file);
  };
  // Both runs: identical first Score, identical second Score — but the
  // second distribution differs from the first. Positional pairing yields
  // two zero-drift rows; first-match-by-name would report 0.25 drift.
  const LedgerFile a = make("dup_a", {1, 3});
  const LedgerFile b = make("dup_b", {1, 3});
  const std::string diff = RenderRunDiff(a, b);
  EXPECT_EQ(diff.find("0.250000"), std::string::npos) << diff;
  std::size_t identical_rows = 0;
  for (std::size_t pos = diff.find("(identical)"); pos != std::string::npos;
       pos = diff.find("(identical)", pos + 1)) {
    ++identical_rows;
  }
  EXPECT_EQ(identical_rows, 2u);
  EXPECT_EQ(diff.find("only in run"), std::string::npos);

  // Unbalanced counts surface as one-sided rows instead of mispairing.
  const std::string path = TempPath("dup_c.jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = "dup_c";
  ASSERT_TRUE(ledger.Open(path, manifest));
  ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 4, {2, 2});
  ASSERT_TRUE(ledger.Close());
  auto c = ReadLedger(path);
  ASSERT_TRUE(c.has_value());
  RemoveRun(path);
  const std::string uneven = RenderRunDiff(a, *c);
  EXPECT_NE(uneven.find("'anomaly_score': only in run a"), std::string::npos);
}

TEST(ReportTest, UnsealedRunIsFlaggedInTheSummary) {
  const std::string path = TempPath("unsealed.jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = "unsealed";
  ASSERT_TRUE(ledger.Open(path, manifest));
  ledger.Step(0, 1.0, 0.1, 1e-3);
  ledger.Abandon();
  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  const std::string report = RenderRunReport(*file);
  EXPECT_NE(report.find("UNSEALED prefix"), std::string::npos);
  RemoveRun(path);
}

TEST(ReportTest, EpochTableRespectsRowCap) {
  const std::string path = TempPath("rowcap.jsonl");
  RemoveRun(path);
  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "report_test";
  manifest.run_id = "rowcap";
  ASSERT_TRUE(ledger.Open(path, manifest));
  for (int e = 0; e < 6; ++e) ledger.EpochEnd(e, 1.0 / (1 + e), e + 1);
  ASSERT_TRUE(ledger.Close());
  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  ReportOptions options;
  options.show_timing = false;
  options.max_epoch_rows = 2;
  const std::string report = RenderRunReport(*file, options);
  EXPECT_NE(report.find("... (6 epochs total)"), std::string::npos);
  EXPECT_EQ(report.find("\n      2  "), std::string::npos);
  RemoveRun(path);
}

}  // namespace
}  // namespace tfmae::obs
