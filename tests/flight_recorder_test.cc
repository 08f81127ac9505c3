// Tests for the crash flight recorder (src/obs/flight_recorder): postmortem
// round trips, ring-wrap retention, the ledger tee, the async-signal-safe
// dump path, and the black box left behind by an injected training
// interrupt and by a real fatal signal.
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "data/generator.h"
#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace tfmae::obs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("tfmae_fr_" + name))
      .string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { FlightRecorder::Instance().Disarm(); }
};

TEST_F(FlightRecorderTest, DumpRoundTripsNotesAndCounters) {
  const std::string path = TempPath("roundtrip.json");
  std::filesystem::remove(path);
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Arm(path);
  ASSERT_TRUE(recorder.armed());
  recorder.Note("guard", "nonfinite loss at step 12");
  recorder.Note("fault", "detail with \"quotes\" and a\ttab");
  EXPECT_EQ(recorder.notes_recorded(), 2u);
  Registry::Instance().CounterAdd(Registry::Instance().CounterId("fr.test"), 3);
  ASSERT_TRUE(recorder.Dump("unit_test"));

  const std::string doc = Slurp(path);
  EXPECT_NE(doc.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"guard\""), std::string::npos);
  EXPECT_NE(doc.find("nonfinite loss at step 12"), std::string::npos);
  // Detail text is JSON-escaped.
  EXPECT_NE(doc.find("\\\"quotes\\\" and a\\u0009tab"), std::string::npos);
  // Normal-path dumps carry the nonzero-counter appendix.
  EXPECT_NE(doc.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"fr.test\": 3"), std::string::npos);
  // No signal field on a non-signal dump.
  EXPECT_EQ(doc.find("\"signal\":"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(FlightRecorderTest, RingKeepsNewestEntriesAfterWrap) {
  const std::string path = TempPath("wrap.json");
  std::filesystem::remove(path);
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Arm(path);
  const int total = FlightRecorder::kMaxEntries + 44;
  for (int i = 0; i < total; ++i) {
    recorder.Note("tick", "note number " + std::to_string(i));
  }
  EXPECT_EQ(recorder.notes_recorded(), static_cast<std::uint64_t>(total));
  ASSERT_TRUE(recorder.Dump("wrap_test"));

  const std::string doc = Slurp(path);
  // The oldest 44 notes fell off; the newest kMaxEntries survive, oldest
  // first ("n" is the monotone note index).
  EXPECT_EQ(doc.find("\"n\":43,"), std::string::npos);
  EXPECT_NE(doc.find("\"n\":44,"), std::string::npos);
  EXPECT_NE(doc.find("note number " + std::to_string(total - 1)),
            std::string::npos);
  // Oldest-first ordering.
  EXPECT_LT(doc.find("\"n\":44,"), doc.find("\"n\":45,"));
  std::filesystem::remove(path);
}

TEST_F(FlightRecorderTest, DisarmedRecorderIsInert) {
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Disarm();
  recorder.Note("guard", "should vanish");
  EXPECT_FALSE(recorder.Dump("nowhere"));
  EXPECT_FALSE(recorder.DumpSignalSafe("nowhere", SIGSEGV));
}

TEST_F(FlightRecorderTest, LedgerLinesTeeIntoTheRing) {
  const std::string ledger_path = TempPath("tee.jsonl");
  const std::string pm_path = TempPath("tee_pm.json");
  std::filesystem::remove(pm_path);
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Arm(pm_path);

  Ledger ledger;
  RunManifest manifest;
  manifest.tool = "fr_test";
  manifest.run_id = "tee";
  ASSERT_TRUE(ledger.Open(ledger_path, manifest));
  ledger.Step(7, 0.125, 0.5, 1e-3);
  ledger.Abandon();
  ASSERT_TRUE(recorder.Dump("tee_test"));

  // The postmortem's tail is the exact ledger lines (escaped), so the black
  // box ends with the event stream the run died holding.
  const std::string doc = Slurp(pm_path);
  EXPECT_NE(doc.find("\"kind\":\"ledger\""), std::string::npos);
  EXPECT_NE(doc.find("\\\"type\\\":\\\"step\\\""), std::string::npos);
  EXPECT_NE(doc.find("\\\"loss\\\":0.125"), std::string::npos);
  std::filesystem::remove(pm_path);
  std::error_code ec;
  std::filesystem::remove(ledger_path, ec);
  std::filesystem::remove(ledger_path + ".partial", ec);
}

TEST_F(FlightRecorderTest, SignalSafeDumpRecordsSignalNumber) {
  const std::string path = TempPath("sigsafe.json");
  std::filesystem::remove(path);
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Arm(path);
  recorder.Note("guard", "last words");
  ASSERT_TRUE(recorder.DumpSignalSafe("fatal_signal", SIGABRT));

  const std::string doc = Slurp(path);
  EXPECT_NE(doc.find("\"reason\":\"fatal_signal\""), std::string::npos);
  EXPECT_NE(doc.find("\"signal\":" + std::to_string(SIGABRT)),
            std::string::npos);
  EXPECT_NE(doc.find("last words"), std::string::npos);
  // Signal-path dumps skip the registry appendix (not signal-safe).
  EXPECT_EQ(doc.find("\"counters\":"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(FlightRecorderTest, ReArmingClearsTheRing) {
  const std::string path = TempPath("rearm.json");
  std::filesystem::remove(path);
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Arm(TempPath("rearm_old.json"));
  recorder.Note("stale", "from the previous run");
  recorder.Arm(path);
  recorder.Note("fresh", "from this run");
  ASSERT_TRUE(recorder.Dump("rearm_test"));
  const std::string doc = Slurp(path);
  EXPECT_EQ(doc.find("from the previous run"), std::string::npos);
  EXPECT_NE(doc.find("from this run"), std::string::npos);
  std::filesystem::remove(path);
}

// Acceptance path: an injected training fault leaves a postmortem naming the
// fault, with the tail of the run ledger teed into the black box.
TEST_F(FlightRecorderTest, InjectedTrainFaultLeavesPostmortem) {
  const std::string pm_path = TempPath("fault_pm.json");
  const std::string ledger_path = TempPath("fault_run.jsonl");
  std::filesystem::remove(pm_path);
  FlightRecorder::Instance().Arm(pm_path);
  RunManifest manifest;
  manifest.tool = "fr_test";
  manifest.run_id = "fault";
  ASSERT_TRUE(Ledger::Instance().Open(ledger_path, manifest));

  data::BaseSignalConfig signal;
  signal.length = 128;
  signal.num_features = 2;
  signal.seed = 5;
  core::TfmaeConfig config;
  config.window = 16;
  config.stride = 8;
  config.model_dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 16;
  config.epochs = 2;
  core::TfmaeDetector detector(config);
  {
    fault::ScopedFaults faults("train.interrupt:#3");
    detector.Fit(data::GenerateBaseSignal(signal));
  }
  EXPECT_TRUE(detector.train_stats().interrupted);
  Ledger::Instance().Abandon();

  ASSERT_TRUE(std::filesystem::exists(pm_path));
  const std::string doc = Slurp(pm_path);
  EXPECT_NE(doc.find("\"reason\":\"injected_fault\""), std::string::npos);
  EXPECT_NE(doc.find("train.interrupt"), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"ledger\""), std::string::npos);
  std::filesystem::remove(pm_path);
  std::error_code ec;
  std::filesystem::remove(ledger_path, ec);
  std::filesystem::remove(ledger_path + ".partial", ec);
}

// A real fatal signal: the handler writes the black box before the default
// disposition kills the (death-test child) process, and the parent can read
// it afterwards.
TEST_F(FlightRecorderTest, FatalSignalWritesPostmortemBeforeDying) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("signal_pm.json");
  std::filesystem::remove(path);
  EXPECT_EXIT(
      {
        FlightRecorder& recorder = FlightRecorder::Instance();
        recorder.Arm(path);
        recorder.InstallSignalHandlers();
        recorder.Note("guard", "about to abort");
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string doc = Slurp(path);
  EXPECT_NE(doc.find("\"reason\":\"fatal_signal\""), std::string::npos);
  EXPECT_NE(doc.find("\"signal\":" + std::to_string(SIGABRT)),
            std::string::npos);
  EXPECT_NE(doc.find("about to abort"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tfmae::obs
