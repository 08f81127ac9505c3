// Tests for the baseline detectors: each must fit/score cleanly, be
// deterministic given its seed, and separate planted anomalies from normal
// data on an easy synthetic problem (AUROC well above chance).
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/common.h"
#include "baselines/dagmm.h"
#include "baselines/iforest.h"
#include "baselines/lof.h"
#include "baselines/registry.h"
#include "data/generator.h"
#include "eval/metrics.h"

namespace tfmae::baselines {
namespace {

// Easy planted-anomaly problem: smooth periodic signal, strong spikes.
struct PlantedProblem {
  data::TimeSeries train;
  data::TimeSeries test;
};

PlantedProblem MakePlantedProblem(std::int64_t features) {
  data::BaseSignalConfig config;
  config.length = 900;
  config.num_features = features;
  config.noise_std = 0.05;
  config.seed = 71;
  data::TimeSeries full = data::GenerateBaseSignal(config);
  PlantedProblem problem;
  problem.train = full.Slice(0, 600);
  problem.test = full.Slice(600, 300);
  problem.test.labels.assign(300, 0);
  for (std::int64_t t : {40, 41, 120, 200, 201, 202, 280}) {
    for (std::int64_t n = 0; n < features; ++n) {
      problem.test.at(t, n) += 5.0f;
    }
    problem.test.labels[static_cast<std::size_t>(t)] = 1;
  }
  return problem;
}

TEST(ScoreAccumulatorTest, AveragesOverlaps) {
  ScoreAccumulator accumulator(5);
  accumulator.Add(0, {1.0f, 1.0f, 1.0f});
  accumulator.Add(2, {3.0f, 3.0f, 3.0f});
  const auto scores = accumulator.Finalize();
  EXPECT_FLOAT_EQ(scores[0], 1.0f);
  EXPECT_FLOAT_EQ(scores[2], 2.0f);  // (1 + 3) / 2
  EXPECT_FLOAT_EQ(scores[4], 3.0f);
}

TEST(ScoreAccumulatorTest, UncoveredPointsAreZero) {
  ScoreAccumulator accumulator(4);
  accumulator.AddUniform(1, 2, 5.0f);
  const auto scores = accumulator.Finalize();
  EXPECT_FLOAT_EQ(scores[0], 0.0f);
  EXPECT_FLOAT_EQ(scores[1], 5.0f);
  EXPECT_FLOAT_EQ(scores[3], 0.0f);
}

TEST(LofTest, FlagsIsolatedPoint) {
  // Dense cluster + one far point: the far point's LOF must dominate.
  data::TimeSeries train = data::TimeSeries::Zeros(200, 2);
  Rng rng(3);
  for (std::int64_t t = 0; t < 200; ++t) {
    train.at(t, 0) = static_cast<float>(rng.Normal(0, 0.1));
    train.at(t, 1) = static_cast<float>(rng.Normal(0, 0.1));
  }
  data::TimeSeries test = train.Slice(0, 50);
  test.at(25, 0) = 30.0f;
  test.at(25, 1) = 30.0f;
  LofDetector lof(10);
  lof.Fit(train);
  const auto scores = lof.Score(test);
  for (std::size_t t = 0; t < scores.size(); ++t) {
    if (t != 25) {
      EXPECT_LT(scores[t], scores[25]);
    }
  }
}

TEST(IForestTest, OutlierGetsHigherScore) {
  data::TimeSeries train = data::TimeSeries::Zeros(400, 2);
  Rng rng(5);
  for (std::int64_t t = 0; t < 400; ++t) {
    train.at(t, 0) = static_cast<float>(rng.Normal());
    train.at(t, 1) = static_cast<float>(rng.Normal());
  }
  IsolationForestDetector forest(50, 128);
  forest.Fit(train);
  data::TimeSeries test = data::TimeSeries::Zeros(2, 2);
  test.at(0, 0) = 0.0f;   // inlier
  test.at(1, 0) = 12.0f;  // outlier
  test.at(1, 1) = -12.0f;
  const auto scores = forest.Score(test);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_GT(scores[1], 0.6f);  // canonical iforest outlier threshold
}

TEST(GaussianMixtureTest, RecoversSeparatedClusters) {
  Rng rng(7);
  const std::int64_t n = 400;
  std::vector<float> points(static_cast<std::size_t>(n) * 2);
  for (std::int64_t i = 0; i < n; ++i) {
    const double center = i < n / 2 ? -5.0 : 5.0;
    points[static_cast<std::size_t>(i * 2)] =
        static_cast<float>(rng.Normal(center, 0.5));
    points[static_cast<std::size_t>(i * 2 + 1)] =
        static_cast<float>(rng.Normal(center, 0.5));
  }
  GaussianMixture gmm;
  gmm.Fit(points, n, 2, 2, 50, &rng);
  // Points near the centers have low energy; a point between them is
  // unlikely under both components.
  const float near_center[2] = {5.0f, 5.0f};
  const float between[2] = {0.0f, 0.0f};
  EXPECT_LT(gmm.Energy(near_center), gmm.Energy(between));
}

// Every registered baseline must separate the easy planted problem. One
// case per detector, named after it, so a parallel ctest spreads them.
class BaselineBeatsChanceTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(BaselineBeatsChanceTest, OnEasyProblem) {
  const PlantedProblem problem = MakePlantedProblem(2);
  auto detector = std::move(MakeAllBaselines()[GetParam()]);
  detector->Fit(problem.train);
  const auto scores = detector->Score(problem.test);
  ASSERT_EQ(scores.size(), 300u) << detector->Name();
  for (float s : scores) {
    ASSERT_TRUE(std::isfinite(s)) << detector->Name();
  }
  const double auroc = eval::Auroc(scores, problem.test.labels);
  EXPECT_GT(auroc, 0.7) << detector->Name() << " AUROC " << auroc;
}

INSTANTIATE_TEST_SUITE_P(
    Roster, BaselineBeatsChanceTest,
    ::testing::Range<std::size_t>(0, MakeAllBaselines().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return MakeAllBaselines()[info.param]->Name();
    });

TEST(BaselineRosterTest, NamesAreUniqueAndStable) {
  auto detectors = MakeAllBaselines();
  EXPECT_EQ(detectors.size(), 13u);
  std::vector<std::string> names;
  for (const auto& d : detectors) names.push_back(d->Name());
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::unique(names.begin(), names.end()) == names.end());
}

TEST(BaselineRosterTest, DeterministicAcrossRuns) {
  const PlantedProblem problem = MakePlantedProblem(1);
  auto first = MakeAllBaselines();
  auto second = MakeAllBaselines();
  // Spot-check two detectors to bound the test cost.
  for (std::size_t i : {static_cast<std::size_t>(0),
                        static_cast<std::size_t>(1)}) {
    first[i]->Fit(problem.train);
    second[i]->Fit(problem.train);
    EXPECT_EQ(first[i]->Score(problem.test), second[i]->Score(problem.test))
        << first[i]->Name();
  }
}

}  // namespace
}  // namespace tfmae::baselines
