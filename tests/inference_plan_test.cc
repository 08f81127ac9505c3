// Pre-planned inference tests (DESIGN.md §10): bitwise eager-vs-planned
// scoring on every dataset profile at 1/2/4 threads, capture after a
// checkpoint round trip, re-capture on geometry change, the injected-fault
// eager fallback, zero-allocation steady-state replay, the scrub canary,
// the single-logical-allocation arena accounting, and the ledger `plan`
// event.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/inference_plan.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "tensor/pool.h"
#include "util/fault.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae::core {
namespace {

// Restores thread count, scrub mode and fault config on scope exit so a
// failing test cannot poison its neighbours.
class EnvGuard {
 public:
  ~EnvGuard() {
    ThreadPool::Instance().SetNumThreads(1);
    pool::SetScrubForTesting(false);
    fault::Clear();
  }
};

TfmaeConfig TinyConfig() {
  TfmaeConfig config;
  config.window = 16;
  config.stride = 16;
  config.model_dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 16;
  config.epochs = 1;
  config.seed = 3;
  return config;
}

data::TimeSeries Head(const data::TimeSeries& series, std::int64_t n) {
  data::TimeSeries out;
  out.length = std::min(n, series.length);
  out.num_features = series.num_features;
  out.values.assign(
      series.values.begin(),
      series.values.begin() +
          static_cast<std::size_t>(out.length * out.num_features));
  return out;
}

data::TimeSeries TinySignal(std::int64_t length, std::int64_t features,
                            std::uint64_t seed) {
  data::BaseSignalConfig signal;
  signal.length = length;
  signal.num_features = features;
  signal.seed = seed;
  return data::GenerateBaseSignal(signal);
}

// Two identically fitted detectors: .first scores through the plan, .second
// is the eager reference. Fit is deterministic for a fixed (data, config,
// seed), so both hold bitwise-equal weights and rng states; scoring call #k
// on one is comparable to call #k on the other.
struct Twins {
  std::unique_ptr<TfmaeDetector> planned;
  std::unique_ptr<TfmaeDetector> eager;
};

Twins FitTwins(const data::TimeSeries& train, const TfmaeConfig& config) {
  Twins twins;
  twins.planned = std::make_unique<TfmaeDetector>(config);
  twins.eager = std::make_unique<TfmaeDetector>(config);
  twins.planned->SetInferencePlanEnabled(true);
  twins.eager->SetInferencePlanEnabled(false);
  twins.planned->Fit(train);
  twins.eager->Fit(train);
  return twins;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << what << ": planned scores are not bitwise-identical to eager";
  }
}

// The acceptance contract: on every benchmark profile, planned scoring is
// bitwise-identical to eager at 1, 2 and 4 threads — and the plan really
// is active (a silent eager fallback would pass a pure score comparison).
TEST(InferencePlanTest, BitwiseMatchesEagerOnAllProfilesAtAllThreadCounts) {
  EnvGuard guard;
  const TfmaeConfig config = TinyConfig();
  for (const data::BenchmarkDataset dataset : data::MainDatasets()) {
    const data::LabeledDataset full = data::MakeBenchmarkDataset(dataset, 0.1);
    const data::TimeSeries train = Head(full.train, 256);
    const data::TimeSeries test = Head(full.test, 96);
    ASSERT_GE(train.length, config.window) << data::DatasetName(dataset);
    Twins twins = FitTwins(train, config);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      const std::vector<float> planned = twins.planned->Score(test);
      const std::vector<float> eager = twins.eager->Score(test);
      ASSERT_NE(twins.planned->inference_plan(), nullptr)
          << data::DatasetName(dataset) << " fell back to eager scoring";
      EXPECT_EQ(twins.planned->plan_capture_failures(), 0);
      ExpectBitwiseEqual(planned, eager,
                         data::DatasetName(dataset) + " @" +
                             std::to_string(threads) + "T");
    }
    EXPECT_GT(twins.planned->inference_plan()->stats().replays, 0);
  }
}

// A detector restored from a checkpoint captures a plan exactly like a
// freshly fitted one (weights arrive via LoadCheckpoint, not Fit).
TEST(InferencePlanTest, CapturesAfterCheckpointRoundTrip) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 11);
  const data::TimeSeries test = TinySignal(80, 2, 12);
  TfmaeDetector fitted(TinyConfig());
  fitted.Fit(train);

  const std::string path =
      (std::filesystem::temp_directory_path() / "tfmae_plan.ckpt").string();
  ASSERT_TRUE(fitted.SaveCheckpoint(path));

  TfmaeDetector planned(TinyConfig());
  TfmaeDetector eager(TinyConfig());
  eager.SetInferencePlanEnabled(false);
  ASSERT_TRUE(planned.LoadCheckpoint(path));
  ASSERT_TRUE(eager.LoadCheckpoint(path));
  std::filesystem::remove(path);

  const std::vector<float> planned_scores = planned.Score(test);
  const std::vector<float> eager_scores = eager.Score(test);
  ASSERT_NE(planned.inference_plan(), nullptr);
  ExpectBitwiseEqual(planned_scores, eager_scores, "checkpoint resume");
}

// A series shorter than config.window shrinks the effective window; the old
// plan's geometry no longer matches and a fresh capture must replace it
// (never a wrong replay).
TEST(InferencePlanTest, RecapturesWhenWindowGeometryChanges) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 21);
  const data::TimeSeries long_test = TinySignal(80, 2, 22);
  const data::TimeSeries short_test = TinySignal(12, 2, 23);
  Twins twins = FitTwins(train, TinyConfig());

  ExpectBitwiseEqual(twins.planned->Score(long_test),
                     twins.eager->Score(long_test), "long series");
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  const std::int64_t long_arena =
      twins.planned->inference_plan()->stats().arena_bytes;

  ExpectBitwiseEqual(twins.planned->Score(short_test),
                     twins.eager->Score(short_test), "short series");
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  EXPECT_NE(twins.planned->inference_plan()->stats().arena_bytes, long_arena)
      << "geometry change did not trigger a re-capture";
  EXPECT_EQ(twins.planned->plan_capture_failures(), 0);
}

// Injected capture failure (fault site infer.plan.capture): the whole Score
// call degrades to eager — identical answers — and the next call captures
// normally.
TEST(InferencePlanTest, InjectedCaptureFaultFallsBackToEager) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 31);
  const data::TimeSeries test = TinySignal(80, 2, 32);
  Twins twins = FitTwins(train, TinyConfig());

  fault::ScopedFaults faults("infer.plan.capture:#1");
  const std::vector<float> faulted = twins.planned->Score(test);
  EXPECT_EQ(twins.planned->inference_plan(), nullptr);
  EXPECT_EQ(twins.planned->plan_capture_failures(), 1);
  ExpectBitwiseEqual(faulted, twins.eager->Score(test), "faulted call");

  // The occurrence trigger is spent: the second call captures a real plan.
  const std::vector<float> recovered = twins.planned->Score(test);
  ASSERT_NE(twins.planned->inference_plan(), nullptr);
  EXPECT_EQ(twins.planned->plan_capture_failures(), 1);
  ExpectBitwiseEqual(recovered, twins.eager->Score(test), "recovered call");
}

// Steady-state replay performs zero tensor allocations: no MemoryStats
// alloc calls, no heap traffic, and no pool acquisitions at all, so the
// contract holds with the pool on and under TFMAE_POOL=0 alike.
TEST(InferencePlanTest, SteadyStateReplayAllocatesNothing) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 41);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);
  ASSERT_NE(detector.model(), nullptr);

  Rng rng(7);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(0.37f * static_cast<float>(i));
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  std::vector<float> eager_scores;
  std::string error;
  std::unique_ptr<InferencePlan> plan =
      InferencePlan::Capture(*detector.model(), window, &eager_scores, &error);
  ASSERT_NE(plan, nullptr) << error;

  std::vector<float> out;
  plan->Score(window, &out);  // warm-up: resizes `out` once
  const auto acquisitions = [] {
    const pool::PoolStats stats = pool::Stats();
    return stats.hits + stats.misses + stats.unpooled;
  };
  const std::int64_t allocs_before = MemoryStats::AllocCalls();
  const std::int64_t heap_before = pool::Stats().HeapAllocs();
  const std::int64_t acquired_before = acquisitions();
  for (int i = 0; i < 4; ++i) plan->Score(window, &out);
  EXPECT_EQ(MemoryStats::AllocCalls() - allocs_before, 0);
  EXPECT_EQ(pool::Stats().HeapAllocs() - heap_before, 0);
  EXPECT_EQ(acquisitions() - acquired_before, 0);
  ExpectBitwiseEqual(out, eager_scores, "steady-state replay");
}

// TFMAE_POOL_SCRUB=1 refills the arena with NaN canaries before every
// replay; a replay that read uninitialized arena bytes would surface them.
TEST(InferencePlanTest, ScrubCanaryLeavesReplaysIdentical) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 51);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);

  Rng rng(9);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::cos(0.21f * static_cast<float>(i));
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  std::vector<float> eager_scores;
  std::unique_ptr<InferencePlan> plan =
      InferencePlan::Capture(*detector.model(), window, &eager_scores);
  ASSERT_NE(plan, nullptr);

  pool::SetScrubForTesting(true);
  std::vector<float> first;
  std::vector<float> second;
  plan->Score(window, &first);
  plan->Score(window, &second);
  pool::SetScrubForTesting(false);
  for (const float s : first) EXPECT_TRUE(std::isfinite(s));
  ExpectBitwiseEqual(first, eager_scores, "scrubbed replay vs eager");
  ExpectBitwiseEqual(first, second, "scrubbed replay vs replay");
}

// The arena is ONE logical allocation: building a plan moves MemoryStats by
// exactly stats().arena_bytes (the capture pass's eager tensors all net
// out), and destroying the plan returns to the baseline.
TEST(InferencePlanTest, ArenaIsOneLogicalAllocation) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 61);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);

  Rng rng(13);
  std::vector<float> values(
      static_cast<std::size_t>(TinyConfig().window * train.num_features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.01f * static_cast<float>(i % 17);
  }
  const MaskedWindow window = detector.model()->PrepareWindow(values, &rng);

  const std::int64_t baseline = MemoryStats::CurrentBytes();
  {
    std::vector<float> eager_scores;
    std::unique_ptr<InferencePlan> plan = InferencePlan::Capture(
        *detector.model(), window, &eager_scores);
    ASSERT_NE(plan, nullptr);
    EXPECT_GT(plan->stats().arena_bytes, 0);
    EXPECT_EQ(MemoryStats::CurrentBytes() - baseline,
              plan->stats().arena_bytes)
        << "plan arena must account as exactly one logical allocation";
  }
  EXPECT_EQ(MemoryStats::CurrentBytes(), baseline);
}

// An open ledger receives one `plan` event per capture, carrying the
// deterministic plan shape; its wall-clock t_capture_ms field is stripped
// from the canonical stream like every other t_* field. An fp32 plan
// replays every captured op but the reshapes it elided.
TEST(InferencePlanTest, LedgerRecordsPlanEvent) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 71);
  const data::TimeSeries test = TinySignal(80, 2, 72);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tfmae_plan_event.jsonl")
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".partial", ec);

  obs::RunManifest manifest;
  manifest.tool = "inference_plan_test";
  manifest.run_id = "plan_event";
  ASSERT_TRUE(obs::Ledger::Instance().Open(path, manifest));
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);
  detector.Score(test);
  ASSERT_TRUE(obs::Ledger::Instance().Close());
  ASSERT_NE(detector.inference_plan(), nullptr);

  auto file = obs::ReadLedger(path);
  std::filesystem::remove(path, ec);
  ASSERT_TRUE(file.has_value());
  const obs::LedgerEvent* plan_event = nullptr;
  for (const obs::LedgerEvent& event : file->events) {
    if (event.type == "plan") plan_event = &event;
  }
  ASSERT_NE(plan_event, nullptr) << "no plan event in the run ledger";
  EXPECT_GT(plan_event->Number("ops"), 0.0);
  EXPECT_EQ(plan_event->Number("ops"),
            plan_event->Number("captured_ops") -
                plan_event->Number("elided_reshapes"));
  EXPECT_GT(plan_event->Number("arena_bytes"), 0.0);
  EXPECT_NE(plan_event->Field("t_capture_ms"), nullptr);
  const std::string canonical = obs::CanonicalEventStream(*file);
  EXPECT_EQ(canonical.find("t_capture_ms"), std::string::npos)
      << "wall-clock t_* fields must not reach the canonical stream";
}

}  // namespace
}  // namespace tfmae::core
