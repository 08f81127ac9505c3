// Tests for the deployment/extension features: THOC-lite, occlusion
// attribution, and config (de)serialization.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/thoc.h"
#include "core/attribution.h"
#include "core/config_io.h"
#include "core/detector.h"
#include "data/generator.h"
#include "eval/metrics.h"

namespace tfmae {
namespace {

TEST(ThocTest, SeparatesPlantedSpikes) {
  data::BaseSignalConfig config;
  config.length = 900;
  config.num_features = 2;
  config.noise_std = 0.05;
  config.seed = 71;
  data::TimeSeries full = data::GenerateBaseSignal(config);
  data::TimeSeries train = full.Slice(0, 600);
  data::TimeSeries test = full.Slice(600, 300);
  test.labels.assign(300, 0);
  for (std::int64_t t : {50, 130, 210}) {
    test.at(t, 0) += 5.0f;
    test.at(t, 1) += 5.0f;
    test.labels[static_cast<std::size_t>(t)] = 1;
  }
  baselines::ThocDetector detector;
  detector.Fit(train);
  const auto scores = detector.Score(test);
  const double auroc = eval::Auroc(scores, test.labels);
  EXPECT_GT(auroc, 0.75) << "AUROC " << auroc;
}

TEST(AttributionTest, IdentifiesTheAnomalousChannel) {
  // 4 channels; the anomaly lives only in channel 2: its occlusion
  // attribution must dominate.
  data::BaseSignalConfig config;
  config.length = 900;
  config.num_features = 4;
  config.noise_std = 0.03;
  config.seed = 72;
  data::TimeSeries full = data::GenerateBaseSignal(config);
  data::TimeSeries train = full.Slice(0, 600);
  data::TimeSeries test = full.Slice(600, 300);
  const std::int64_t anomaly_at = 150;
  for (std::int64_t t = anomaly_at; t < anomaly_at + 4; ++t) {
    test.at(t, 2) += 6.0f;
  }

  core::TfmaeConfig tfmae_config;
  tfmae_config.window = 32;
  tfmae_config.model_dim = 16;
  tfmae_config.num_layers = 1;
  tfmae_config.num_heads = 2;
  tfmae_config.ff_hidden = 32;
  tfmae_config.epochs = 10;
  tfmae_config.stride = 16;
  tfmae_config.per_window_normalization = false;
  core::TfmaeDetector detector(tfmae_config);
  detector.Fit(train);

  core::AttributionOptions options;
  options.context = 64;
  const std::vector<float> attribution =
      core::OcclusionAttribution(&detector, test, anomaly_at, options);
  ASSERT_EQ(attribution.size(), 4u);
  for (std::int64_t n = 0; n < 4; ++n) {
    if (n == 2) continue;
    EXPECT_GT(attribution[2], attribution[static_cast<std::size_t>(n)])
        << "channel " << n;
  }
}

TEST(ConfigIoTest, RoundTripPreservesEveryField) {
  core::TfmaeConfig config;
  config.window = 77;
  config.model_dim = 48;
  config.num_layers = 4;
  config.temporal_mask_ratio = 0.33;
  config.frequency_mask_ratio = 0.44;
  config.learning_rate = 5e-4f;
  config.epochs = 12;
  config.batch_size = 8;
  config.use_adversarial = false;
  config.joint_alignment = false;
  config.per_window_normalization = false;
  config.temporal_mask = masking::TemporalMaskVariant::kRandom;
  config.frequency_mask = masking::FrequencyMaskVariant::kHighFrequency;
  config.cv_method = masking::CvMethod::kNaive;

  const auto parsed = core::ConfigFromString(core::ConfigToString(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->window, 77);
  EXPECT_EQ(parsed->model_dim, 48);
  EXPECT_EQ(parsed->num_layers, 4);
  EXPECT_NEAR(parsed->temporal_mask_ratio, 0.33, 1e-9);
  EXPECT_NEAR(parsed->frequency_mask_ratio, 0.44, 1e-9);
  EXPECT_NEAR(parsed->learning_rate, 5e-4f, 1e-9);
  EXPECT_EQ(parsed->epochs, 12);
  EXPECT_EQ(parsed->batch_size, 8);
  EXPECT_FALSE(parsed->use_adversarial);
  EXPECT_FALSE(parsed->joint_alignment);
  EXPECT_FALSE(parsed->per_window_normalization);
  EXPECT_EQ(parsed->temporal_mask, masking::TemporalMaskVariant::kRandom);
  EXPECT_EQ(parsed->frequency_mask,
            masking::FrequencyMaskVariant::kHighFrequency);
  EXPECT_EQ(parsed->cv_method, masking::CvMethod::kNaive);
}

TEST(ConfigIoTest, PartialConfigKeepsDefaults) {
  const auto parsed = core::ConfigFromString(
      "# only two overrides\nwindow = 99\nuse_adversarial = false\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->window, 99);
  EXPECT_FALSE(parsed->use_adversarial);
  // Untouched field keeps its default.
  EXPECT_EQ(parsed->model_dim, core::TfmaeConfig{}.model_dim);
}

TEST(ConfigIoTest, RejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(core::ConfigFromString("no_such_key = 1\n").has_value());
  EXPECT_FALSE(core::ConfigFromString("window = banana\n").has_value());
  EXPECT_FALSE(core::ConfigFromString("temporal_mask = nonsense\n").has_value());
  EXPECT_FALSE(core::ConfigFromString("just some text\n").has_value());
}

TEST(BatchAccumulationTest, BatchedTrainingStillLearns) {
  data::BaseSignalConfig signal;
  signal.length = 700;
  signal.num_features = 1;
  signal.noise_std = 0.03;
  signal.seed = 73;
  data::TimeSeries full = data::GenerateBaseSignal(signal);
  data::TimeSeries train = full.Slice(0, 500);
  data::TimeSeries test = full.Slice(500, 200);
  test.labels.assign(200, 0);
  for (std::int64_t t : {60, 140}) {
    test.at(t, 0) += 7.0f;
    test.labels[static_cast<std::size_t>(t)] = 1;
  }
  core::TfmaeConfig config;
  config.window = 32;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 15;
  config.stride = 8;
  config.batch_size = 4;
  config.per_window_normalization = false;
  core::TfmaeDetector detector(config);
  detector.Fit(train);
  // Steps = ceil(windows/batch) * epochs, far fewer than window visits.
  EXPECT_LT(detector.train_stats().num_steps,
            detector.train_stats().num_windows * 15);
  const double auroc = eval::Auroc(detector.Score(test), test.labels);
  EXPECT_GT(auroc, 0.85) << "AUROC " << auroc;
}

}  // namespace
}  // namespace tfmae
