// Tests for the resilience plane's failure paths: the deterministic fault
// registry itself, the numeric-health guard, and training/serialization/
// streaming recovery under injected failures, including the seeded sweep
// driven by scripts/check.sh undefined (TFMAE_FAULT_SWEEP_SEED).
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/detector.h"
#include "core/streaming.h"
#include "data/generator.h"
#include "data/io.h"
#include "nn/adam.h"
#include "nn/numeric_guard.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "util/fault.h"

namespace tfmae {
namespace {

// ---------------------------------------------------------------------------
// Fault registry.

TEST(FaultRegistryTest, UnconfiguredPointsNeverFire) {
  fault::Clear();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::ShouldInject("nonexistent.point"));
  }
  EXPECT_TRUE(fault::AllCounts().empty());
}

TEST(FaultRegistryTest, OccurrenceTriggerFiresExactlyOnNthCheck) {
  fault::ScopedFaults faults("test.point:#3");
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(fault::ShouldInject("test.point"));
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fault::InjectedCount("test.point"), 1u);
  EXPECT_EQ(fault::CheckCount("test.point"), 10u);
}

TEST(FaultRegistryTest, ProbabilityIsDeterministicPerSeedAndPoint) {
  const auto decisions = [](std::uint64_t seed) {
    fault::ScopedFaults faults("a.point:0.5,b.point:0.5", seed);
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(fault::ShouldInject("a.point"));
      out.push_back(fault::ShouldInject("b.point"));
    }
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));

  // Point independence: interleaving checks of another point does not
  // perturb a point's own decision sequence.
  std::vector<bool> solo;
  {
    fault::ScopedFaults faults("a.point:0.5,b.point:0.5", 7);
    for (int i = 0; i < 64; ++i) solo.push_back(fault::ShouldInject("a.point"));
  }
  std::vector<bool> interleaved;
  {
    fault::ScopedFaults faults("a.point:0.5,b.point:0.5", 7);
    for (int i = 0; i < 64; ++i) {
      interleaved.push_back(fault::ShouldInject("a.point"));
      fault::ShouldInject("b.point");
      fault::ShouldInject("b.point");
    }
  }
  EXPECT_EQ(solo, interleaved);
}

TEST(FaultRegistryTest, AllCountsAreNamedAndSorted) {
  fault::ScopedFaults faults("z.point:#1,a.point:#1");
  fault::ShouldInject("z.point");
  const auto counts = fault::AllCounts();
  ASSERT_EQ(counts.size(), 4u);  // checks+injected for both points
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LT(counts[i - 1].first, counts[i].first);
  }
  EXPECT_EQ(counts[0].first, "fault.checks.a.point");
  bool found = false;
  for (const auto& [name, value] : counts) {
    if (name == "fault.injected.z.point") {
      EXPECT_EQ(value, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultRegistryDeathTest, MalformedSpecDies) {
  EXPECT_DEATH(fault::Configure("no_colon_here"), "");
  EXPECT_DEATH(fault::Configure("p:not_a_number"), "");
  EXPECT_DEATH(fault::Configure("p:1.5"), "");
}

// Every binary with the shared flag glue honours TFMAE_FAULTS, so a
// mistyped TFMAE_FAULTS_SEED must fail like a malformed spec instead of
// silently running another sweep. The environment is set inside the death
// statement, i.e. only in the forked child.
TEST(FaultRegistryDeathTest, MalformedSeedDies) {
  const auto configure_with_seed = [](const char* seed) {
    setenv("TFMAE_FAULTS", "p:0.5", 1);
    setenv("TFMAE_FAULTS_SEED", seed, 1);
    fault::ConfigureFromEnv();
  };
  for (const char* seed : {"abc", "12x", "", " 7", "-3", "+3",
                           "99999999999999999999999"}) {
    EXPECT_DEATH(configure_with_seed(seed), "TFMAE_FAULTS_SEED") << seed;
  }
}

TEST(FaultRegistryTest, ConfigureFromEnvAppliesSpecAndSeed) {
  setenv("TFMAE_FAULTS", "p:0.5", 1);
  setenv("TFMAE_FAULTS_SEED", "12", 1);
  fault::ConfigureFromEnv();
  unsetenv("TFMAE_FAULTS");
  unsetenv("TFMAE_FAULTS_SEED");
  std::vector<bool> from_env;
  for (int i = 0; i < 64; ++i) from_env.push_back(fault::ShouldInject("p"));
  fault::ScopedFaults direct("p:0.5", 12);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fault::ShouldInject("p"), from_env[i]) << i;
  }
}

TEST(FaultRegistryTest, TryConfigureAcceptsTheFullGrammar) {
  std::string error;
  // Occurrence triggers, probability bounds, multi-entry specs, and a point
  // name that itself contains colonless dots.
  EXPECT_TRUE(fault::TryConfigure("serve.push:#1", 1, &error)) << error;
  EXPECT_TRUE(fault::TryConfigure("a:#12,b:0.0,c:1.0,d:0.5", 1, &error))
      << error;
  // Empty entries between commas are tolerated (trailing comma etc.).
  EXPECT_TRUE(fault::TryConfigure("a:#1,,b:#2,", 1, &error)) << error;
  EXPECT_TRUE(fault::ShouldInject("a"));
  // An empty spec succeeds and clears every point.
  EXPECT_TRUE(fault::TryConfigure("", 1, &error)) << error;
  EXPECT_TRUE(fault::AllCounts().empty());
  fault::Clear();
}

TEST(FaultRegistryTest, TryConfigureRejectsMalformedEntries) {
  const char* kBad[] = {
      "no_colon_here",   // no trigger at all
      ":0.5",            // empty point name
      "p:",              // empty trigger
      "p:#",             // occurrence marker with no digits
      "p:#0",            // occurrence is 1-based
      "p:#abc",          // non-numeric occurrence
      "p:#3junk",        // trailing garbage after the digits
      "p:not_a_number",  // non-numeric probability
      "p:1.5",           // probability > 1
      "p:-0.1",          // probability < 0
      "p:nan",           // NaN fails the closed-range check
      "p:0.5junk",       // trailing garbage after the number
      "good:#1,p:",      // one bad entry poisons the whole spec
  };
  for (const char* spec : kBad) {
    std::string error;
    EXPECT_FALSE(fault::TryConfigure(spec, 1, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultRegistryTest, FailedTryConfigureLeavesLiveRegistryUntouched) {
  fault::ScopedFaults faults("keep.me:#1");
  std::string error;
  // All-or-nothing: the valid first entry of a bad spec must not land.
  EXPECT_FALSE(fault::TryConfigure("replace.me:#1,broken:", 1, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(fault::ShouldInject("keep.me"));   // old config still live
  EXPECT_FALSE(fault::ShouldInject("replace.me"));
  EXPECT_EQ(fault::CheckCount("replace.me"), 0u);
}

// ---------------------------------------------------------------------------
// Numeric guard (runs in every build; needs no injection machinery).

TEST(NumericGuardTest, BlownLossSkipsRestoresAndBacksOffLr) {
  Tensor p = Tensor::FromData({2}, {5.0f, -3.0f}).set_requires_grad(true);
  nn::AdamOptions options;
  options.learning_rate = 0.1f;
  nn::Adam adam({p}, options);
  nn::NumericGuard guard(&adam);

  // One healthy step moves the weights; commit it as the good snapshot.
  Tensor loss = ops::SumAll(ops::Scale(p, 2.0f));
  loss.Backward();
  ASSERT_TRUE(guard.PreStep(loss.item()));
  adam.Step();
  guard.CommitGoodStep();
  adam.ZeroGrad();
  const float good0 = p.at(0);
  const float good1 = p.at(1);

  // A non-finite loss must skip the step, restore the snapshot, and halve
  // the learning rate.
  Tensor blown = ops::SumAll(ops::Scale(p, 2.0f));
  blown.Backward();
  EXPECT_FALSE(guard.PreStep(std::nanf("")));
  EXPECT_EQ(p.at(0), good0);
  EXPECT_EQ(p.at(1), good1);
  EXPECT_FLOAT_EQ(adam.options().learning_rate, 0.05f);
  EXPECT_EQ(guard.stats().nonfinite_loss, 1);
  EXPECT_EQ(guard.stats().skipped_steps, 1);
  EXPECT_EQ(guard.stats().restores, 1);
  EXPECT_FALSE(guard.gave_up());
}

TEST(NumericGuardTest, OverflowedGradientIsCaughtBeforeTheStep) {
  Tensor p = Tensor::FromData({2}, {0.0f, 0.0f}).set_requires_grad(true);
  nn::Adam adam({p}, nn::AdamOptions{});
  nn::NumericGuard guard(&adam);
  // d(loss)/dp = 1e38 * 1e38 overflows to Inf while the loss itself (p = 0)
  // stays finite — only the gradient sweep can catch this one.
  Tensor loss = ops::SumAll(ops::Scale(ops::Scale(p, 1e38f), 1e38f));
  loss.Backward();
  ASSERT_TRUE(std::isfinite(loss.item()));
  EXPECT_FALSE(guard.PreStep(loss.item()));
  EXPECT_EQ(guard.stats().nonfinite_grad, 1);
  EXPECT_EQ(p.at(0), 0.0f);
}

// PreStep scans the gradients for a NaN or an Inf instead of summing their
// squares; its verdict is std::isfinite(GlobalGradNorm) wherever the bad
// element sits: first, middle or last parameter, first or last element.
// Gradients at the float limits are finite (their squares fit a double),
// and a parameter with no gradient buffer is skipped.
TEST(NumericGuardTest, GradScanVerdictMatchesGlobalGradNorm) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float bads[] = {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf};
  struct Placement {
    std::size_t param;
    std::int64_t index;
  };
  // Parameter 2 never gets a gradient buffer.
  const Placement places[] = {{0, 0}, {0, 4}, {1, 0}, {1, 16}, {3, 20}};
  const std::int64_t sizes[] = {5, 33, 8, 21};
  auto run = [&](const float* bad, const Placement* at) {
    std::vector<Tensor> params;
    for (const std::int64_t n : sizes) {
      params.push_back(Tensor::Zeros({n}).set_requires_grad(true));
    }
    nn::Adam adam(params, nn::AdamOptions{});
    nn::NumericGuard guard(&adam);
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (p == 2) continue;
      float* g = params[p].impl()->EnsureGrad();
      for (std::int64_t i = 0; i < params[p].numel(); ++i) {
        g[i] = i % 3 == 0 ? std::numeric_limits<float>::max()
                          : -std::numeric_limits<float>::denorm_min();
      }
    }
    if (bad != nullptr) params[at->param].impl()->grad[at->index] = *bad;
    const bool want = std::isfinite(nn::GlobalGradNorm(params));
    EXPECT_EQ(guard.PreStep(1.0f), want);
    return want;
  };
  EXPECT_TRUE(run(nullptr, nullptr));
  for (const float& bad : bads) {
    for (const Placement& at : places) {
      EXPECT_FALSE(run(&bad, &at)) << "param " << at.param << " index "
                                   << at.index;
    }
  }
}

TEST(NumericGuardTest, GivesUpAfterMaxConsecutiveSkips) {
  Tensor p = Tensor::FromData({1}, {1.0f}).set_requires_grad(true);
  nn::Adam adam({p}, nn::AdamOptions{});
  nn::NumericGuardOptions options;
  options.max_consecutive_skips = 3;
  nn::NumericGuard guard(&adam, options);
  for (int i = 0; i < 4; ++i) {
    Tensor loss = ops::SumAll(p);
    loss.Backward();
    EXPECT_FALSE(guard.PreStep(std::nanf("")));
    adam.ZeroGrad();
  }
  EXPECT_TRUE(guard.gave_up());
  // Once given up, the guard refuses further steps without counting more.
  EXPECT_FALSE(guard.PreStep(1.0f));
}

// ---------------------------------------------------------------------------
// Injection through real subsystems.

core::TfmaeConfig TinyConfig() {
  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 2;
  config.stride = 16;
  config.per_window_normalization = false;
  return config;
}

data::TimeSeries TinySeries() {
  data::BaseSignalConfig signal;
  signal.length = 300;
  signal.num_features = 2;
  signal.seed = 77;
  return data::GenerateBaseSignal(signal);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(FaultInjectionTest, InjectedNanLossIsSkippedAndTrainingRecovers) {
  fault::ScopedFaults faults("train.nan_loss:#5");
  core::TfmaeDetector detector(TinyConfig());
  detector.Fit(TinySeries());
  const core::TrainStats& stats = detector.train_stats();
  EXPECT_GE(stats.numeric.nonfinite_loss, 1);
  EXPECT_GE(stats.numeric.skipped_steps, 1);
  EXPECT_GE(stats.numeric.restores, 1);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_TRUE(std::isfinite(stats.mean_loss_last_epoch));
  EXPECT_GT(stats.num_steps, 0);
}

TEST(FaultInjectionTest, InjectedCheckpointWriteFailureDoesNotKillTraining) {
  const std::string dir = FreshDir("tfmae_fault_io");
  fault::ScopedFaults faults("io.checkpoint_write:#1");
  core::FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 4;
  core::TfmaeDetector detector(TinyConfig());
  detector.Fit(TinySeries(), options);
  EXPECT_GE(detector.train_stats().checkpoint_failures, 1);
  EXPECT_GE(detector.train_stats().checkpoints_written, 1);
  EXPECT_FALSE(detector.train_stats().interrupted);
  // Later (uninjected) writes produced a usable checkpoint.
  EXPECT_TRUE(core::FindLatestValidCheckpoint(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectionTest, InjectedInterruptThenResumeIsBitwiseIdentical) {
  const data::TimeSeries train = TinySeries();
  core::TfmaeDetector reference(TinyConfig());
  reference.Fit(train);

  const std::string dir = FreshDir("tfmae_fault_kill");
  core::FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 3;
  core::TfmaeDetector killed(TinyConfig());
  {
    fault::ScopedFaults faults("train.interrupt:#8");
    killed.Fit(train, options);
  }
  ASSERT_TRUE(killed.train_stats().interrupted);

  core::TfmaeDetector resumed(TinyConfig());
  core::FitOptions resume_options;
  resume_options.checkpoint_dir = dir;
  ASSERT_TRUE(resumed.Resume(train, resume_options));
  EXPECT_TRUE(nn::EncodeParameters(*resumed.model()) ==
              nn::EncodeParameters(*reference.model()));
  EXPECT_EQ(resumed.train_stats().mean_loss_last_epoch,
            reference.train_stats().mean_loss_last_epoch);
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectionTest, InjectedCsvFaultSurfacesLineDiagnostic) {
  const std::string path = ::testing::TempDir() + "/fault_rows.csv";
  data::TimeSeries series = data::TimeSeries::Zeros(5, 2);
  ASSERT_TRUE(data::SaveCsv(series, path));
  fault::ScopedFaults faults("data.csv_row:#2");
  data::CsvDiagnostic diagnostic;
  EXPECT_FALSE(data::LoadCsv(path, &diagnostic).has_value());
  EXPECT_EQ(diagnostic.line, 3);  // header + 1 clean row precede it
  EXPECT_NE(diagnostic.message.find("injected"), std::string::npos);
  std::remove(path.c_str());
}

// Minimal detector for streaming tests: score = |first feature| at each step.
class TailDetector : public core::AnomalyDetector {
 public:
  std::string Name() const override { return "tail"; }
  void Fit(const data::TimeSeries&) override {}
  std::vector<float> Score(const data::TimeSeries& series) override {
    std::vector<float> scores(static_cast<std::size_t>(series.length));
    for (std::int64_t t = 0; t < series.length; ++t) {
      scores[static_cast<std::size_t>(t)] = std::abs(series.at(t, 0));
    }
    return scores;
  }
};

TEST(FaultInjectionTest, InjectedStreamCorruptionIsImputedNotFatal) {
  fault::ScopedFaults faults("streaming.corrupt_value:0.2", 3);
  TailDetector detector;
  core::StreamingOptions options;
  options.window = 8;
  options.hop = 1;
  core::StreamingDetector stream(&detector, options);
  std::int64_t scored = 0;
  for (int t = 0; t < 200; ++t) {
    const auto result = stream.Push({1.0f, 2.0f});
    if (result.has_value()) {
      ++scored;
      EXPECT_TRUE(std::isfinite(result->score));
    }
  }
  EXPECT_GT(scored, 0);
  EXPECT_GT(stream.health().rows_imputed, 0);
  EXPECT_EQ(stream.health().rows_rejected, 0);
  EXPECT_GT(fault::InjectedCount("streaming.corrupt_value"), 0u);
}

// The scripts/check.sh undefined sweep: TFMAE_FAULT_SWEEP_SEED selects the
// injection pattern; training plus its recovery machinery must survive
// every seed without aborting or producing non-finite statistics.
TEST(FaultInjectionTest, SweepSeedSurvivesRandomizedFaults) {
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TFMAE_FAULT_SWEEP_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const std::string dir = FreshDir("tfmae_fault_sweep");
  fault::ScopedFaults faults(
      "train.nan_loss:0.05,io.checkpoint_write:0.25", seed);
  core::FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 2;
  core::TfmaeDetector detector(TinyConfig());
  detector.Fit(TinySeries(), options);
  const core::TrainStats& stats = detector.train_stats();
  EXPECT_FALSE(stats.interrupted);
  EXPECT_TRUE(std::isfinite(stats.mean_loss_last_epoch));
  EXPECT_GT(stats.num_steps, 0);
  // Whatever mix of write failures happened, the newest surviving
  // checkpoint (if any was written at all) must validate.
  if (stats.checkpoints_written > 0) {
    EXPECT_TRUE(core::FindLatestValidCheckpoint(dir).has_value());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tfmae
