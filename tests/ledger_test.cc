// Tests for the run ledger (src/obs/ledger): CRC-sealed round trips, the
// crashed-run valid-prefix guarantee, corruption truncation, the canonical
// (timestamp-free) event stream, and byte-level replay determinism of a
// full Fit/Score run at 1/2/4 threads.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "data/generator.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace tfmae::obs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("tfmae_ledger_" + name))
      .string();
}

void RemoveRun(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".partial", ec);
}

RunManifest TestManifest(const std::string& run_id) {
  RunManifest manifest;
  manifest.tool = "ledger_test";
  manifest.run_id = run_id;
  manifest.seed = 7;
  manifest.config_crc = 0xdeadbeef;
  manifest.num_threads = 1;
  manifest.build_flags = BuildFlagsString();
  return manifest;
}

TEST(LedgerTest, SealedRoundTripPreservesTypedEvents) {
  const std::string path = TempPath("roundtrip.jsonl");
  RemoveRun(path);
  Ledger ledger;
  ASSERT_TRUE(ledger.Open(path, TestManifest("roundtrip")));
  ASSERT_TRUE(ledger.IsOpen());
  ledger.MaskingStats(10, 32, 80, 320, 24);
  ledger.Step(0, 1.5, 0.25, 1e-3);
  ledger.GuardTrip(1, "nonfinite_loss", 2.0, 5e-4);
  ledger.CheckpointWrite(2, "ckpt_000002.bin", true);
  ledger.EpochEnd(0, 1.25, 3);
  ledger.ScoreHistogram("anomaly_score", 0.0, 1.0, 6, {1, 2, 3});
  ledger.StreamEvent("alert", 41, 0.93);
  EXPECT_EQ(ledger.events_written(), 7);
  ASSERT_TRUE(ledger.Close());
  EXPECT_FALSE(ledger.IsOpen());
  EXPECT_FALSE(std::filesystem::exists(path + ".partial"));

  std::string error;
  auto file = ReadLedger(path, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_TRUE(file->sealed);
  EXPECT_EQ(file->dropped_lines, 0);
  EXPECT_EQ(file->Tool(), "ledger_test");
  EXPECT_EQ(file->RunId(), "roundtrip");
  EXPECT_EQ(file->NumThreads(), 1);
  EXPECT_EQ(file->manifest.Text("build_flags"), BuildFlagsString());
  ASSERT_EQ(file->events.size(), 7u);

  EXPECT_EQ(file->events[0].type, "masking_stats");
  EXPECT_EQ(file->events[0].Number("masked_frequency_bins"), 24.0);
  EXPECT_EQ(file->events[1].type, "step");
  EXPECT_DOUBLE_EQ(file->events[1].Number("loss"), 1.5);
  EXPECT_DOUBLE_EQ(file->events[1].Number("grad_norm"), 0.25);
  EXPECT_EQ(file->events[2].type, "guard_trip");
  EXPECT_EQ(file->events[2].Text("kind"), "nonfinite_loss");
  EXPECT_EQ(file->events[3].type, "checkpoint_write");
  EXPECT_EQ(file->events[3].Text("file"), "ckpt_000002.bin");
  EXPECT_EQ(*file->events[3].Field("ok"), "true");
  EXPECT_EQ(file->events[4].type, "epoch_end");
  EXPECT_EQ(file->events[5].type, "score_histogram");
  EXPECT_EQ(file->events[5].U64Array("buckets"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(file->events[6].type, "stream");
  EXPECT_EQ(file->events[6].Text("what"), "alert");
  // Sequence numbers are contiguous from 0 (the manifest).
  for (std::size_t i = 0; i < file->events.size(); ++i) {
    EXPECT_EQ(file->events[i].seq, static_cast<std::int64_t>(i + 1));
  }
  RemoveRun(path);
}

TEST(LedgerTest, AbandonedRunLeavesReadableValidPrefix) {
  const std::string path = TempPath("abandon.jsonl");
  RemoveRun(path);
  Ledger ledger;
  ASSERT_TRUE(ledger.Open(path, TestManifest("abandon")));
  ledger.Step(0, 3.0, 1.0, 1e-3);
  ledger.Step(1, 2.0, 0.5, 1e-3);
  ledger.Abandon();  // what a SIGKILL mid-run leaves behind

  // The sealed path never appeared; the reader falls back to the .partial.
  EXPECT_FALSE(std::filesystem::exists(path));
  std::string error;
  auto file = ReadLedger(path, &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_FALSE(file->sealed);
  EXPECT_EQ(file->path, path + ".partial");
  EXPECT_EQ(file->dropped_lines, 0);
  ASSERT_EQ(file->events.size(), 2u);
  EXPECT_DOUBLE_EQ(file->events[1].Number("loss"), 2.0);
  RemoveRun(path);
}

TEST(LedgerTest, CorruptMiddleLineTruncatesToValidPrefix) {
  const std::string path = TempPath("corrupt.jsonl");
  RemoveRun(path);
  Ledger ledger;
  ASSERT_TRUE(ledger.Open(path, TestManifest("corrupt")));
  for (int i = 0; i < 5; ++i) ledger.Step(i, 1.0 + i, 0.1, 1e-3);
  ASSERT_TRUE(ledger.Close());

  // Flip one byte inside the third step line.
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 7u);  // manifest + 5 steps + footer
  lines[3][lines[3].find("loss") + 7] ^= 1;
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
  out.close();

  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  // The valid prefix is the two steps before the corrupted line; the seal is
  // void (the footer lies beyond the corruption).
  EXPECT_FALSE(file->sealed);
  EXPECT_EQ(file->events.size(), 2u);
  EXPECT_EQ(file->dropped_lines, 4);  // corrupt line + 2 later steps + footer
  RemoveRun(path);
}

TEST(LedgerTest, TornFinalLineIsDropped) {
  const std::string path = TempPath("torn.jsonl");
  RemoveRun(path);
  Ledger ledger;
  ASSERT_TRUE(ledger.Open(path, TestManifest("torn")));
  ledger.Step(0, 1.0, 0.1, 1e-3);
  ledger.Abandon();

  // Simulate a kill mid-write: append half a line with no newline.
  std::ofstream out(path + ".partial", std::ios::app);
  out << "{\"seq\":2,\"t\":123,\"type\":\"step\",\"loss\":9";
  out.close();

  auto file = ReadLedger(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_FALSE(file->sealed);
  EXPECT_EQ(file->events.size(), 1u);
  EXPECT_EQ(file->dropped_lines, 1);
  RemoveRun(path);
}

TEST(LedgerTest, DoubleOpenIsRejected) {
  const std::string path_a = TempPath("double_a.jsonl");
  const std::string path_b = TempPath("double_b.jsonl");
  RemoveRun(path_a);
  RemoveRun(path_b);
  Ledger ledger;
  ASSERT_TRUE(ledger.Open(path_a, TestManifest("a")));
  EXPECT_FALSE(ledger.Open(path_b, TestManifest("b")));
  EXPECT_TRUE(ledger.IsOpen());
  ledger.Abandon();
  RemoveRun(path_a);
  RemoveRun(path_b);
}

TEST(LedgerTest, EmittersAreNoOpsWhileClosed) {
  Ledger ledger;
  ledger.Step(0, 1.0, 0.1, 1e-3);  // must not crash
  ledger.GuardGiveUp(3, 26);
  EXPECT_EQ(ledger.events_written(), 0);
  EXPECT_FALSE(ledger.Close());
}

TEST(LedgerTest, CanonicalStreamStripsTimestampsOnly) {
  const std::string path_a = TempPath("canon_a.jsonl");
  const std::string path_b = TempPath("canon_b.jsonl");
  RemoveRun(path_a);
  RemoveRun(path_b);
  for (const std::string& path : {path_a, path_b}) {
    Ledger ledger;
    RunManifest manifest = TestManifest("canon");
    // Thread count varies between the "runs"; the canonical stream must not
    // see it (it lives in the manifest, which is excluded).
    manifest.num_threads = path == path_a ? 1 : 4;
    ASSERT_TRUE(ledger.Open(path, manifest));
    ledger.Step(0, 0.5, 0.25, 1e-3);
    ledger.EpochEnd(0, 0.5, 1);
    ASSERT_TRUE(ledger.Close());
  }
  auto a = ReadLedger(path_a);
  auto b = ReadLedger(path_b);
  ASSERT_TRUE(a.has_value() && b.has_value());
  // Raw lines differ (timestamps, hence CRCs); canonical streams match.
  EXPECT_EQ(CanonicalEventStream(*a), CanonicalEventStream(*b));
  EXPECT_NE(CanonicalEventStream(*a).find("\"loss\":0.5"), std::string::npos);
  EXPECT_EQ(CanonicalEventStream(*a).find("\"t\":"), std::string::npos);
  EXPECT_EQ(CanonicalEventStream(*a).find("crc"), std::string::npos);
  RemoveRun(path_a);
  RemoveRun(path_b);
}

// The acceptance contract of the telemetry plane: a full Fit + Score run
// instrumented through the process ledger produces a byte-identical
// canonical event stream at 1, 2, and 4 threads (DESIGN.md §7 extended to
// ledger events).
TEST(LedgerReplayTest, CanonicalStreamIsThreadCountInvariant) {
  data::BaseSignalConfig signal;
  signal.length = 192;
  signal.num_features = 2;
  signal.seed = 11;
  const data::TimeSeries series = data::GenerateBaseSignal(signal);

  core::TfmaeConfig config;
  config.window = 16;
  config.stride = 8;
  config.model_dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 16;
  config.epochs = 2;
  config.seed = 3;

  std::string reference;
  for (const int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    const std::string path =
        TempPath("replay_t" + std::to_string(threads) + ".jsonl");
    RemoveRun(path);
    RunManifest manifest = TestManifest("replay");
    manifest.num_threads = threads;
    ASSERT_TRUE(Ledger::Instance().Open(path, manifest));
    core::TfmaeDetector detector(config);
    detector.Fit(series);
    detector.Score(series);
    ASSERT_TRUE(Ledger::Instance().Close());

    auto file = ReadLedger(path);
    ASSERT_TRUE(file.has_value());
    EXPECT_TRUE(file->sealed);
    EXPECT_GT(file->events.size(), 0u);
    const std::string canonical = CanonicalEventStream(*file);
    if (threads == 1) {
      reference = canonical;
    } else {
      EXPECT_EQ(canonical, reference)
          << "ledger event stream varies with TFMAE_NUM_THREADS=" << threads;
    }
    RemoveRun(path);
  }
  ThreadPool::Instance().SetNumThreads(1);
}

}  // namespace
}  // namespace tfmae::obs
