// Tests for the TFMAE core: window preparation, the dual autoencoder's
// shapes and gradient routing, the adversarial contrastive objective's
// stop-gradient semantics, ablation variants, scoring, and the detector's
// end-to-end behaviour on planted anomalies.
#include <cmath>
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/model.h"
#include "data/generator.h"
#include "tensor/ops.h"

namespace tfmae::core {
namespace {

std::vector<float> ToyWindow(std::int64_t length, std::int64_t features,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<std::size_t>(length * features));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(
        std::sin(0.3 * static_cast<double>(i)) + 0.1 * rng.Normal());
  }
  return values;
}

TfmaeConfig SmallConfig() {
  TfmaeConfig config;
  config.window = 32;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 2;
  config.stride = 16;
  return config;
}

TEST(TfmaeModelTest, PrepareWindowSplitsMaskConsistently) {
  TfmaeConfig config = SmallConfig();
  config.temporal_mask_ratio = 0.25;
  Rng rng(1);
  TfmaeModel model(2, config, &rng);
  Rng mask_rng(2);
  const MaskedWindow window =
      model.PrepareWindow(ToyWindow(32, 2, 3), &mask_rng);
  EXPECT_EQ(window.length, 32);
  EXPECT_EQ(window.temporal.masked.size(), 8u);  // 25% of 32
  EXPECT_EQ(window.temporal.unmasked.size(), 24u);
  EXPECT_EQ(window.frequency.size(), 2u);
  for (const auto& column : window.frequency) {
    EXPECT_EQ(column.base.size(), 32u);
    EXPECT_EQ(column.masked_bins.size(),
              static_cast<std::size_t>(0.3 * 32));  // default ratio 0.3
  }
}

// Every buffer of a MaskedWindow, for checking that reuse reallocates none.
std::vector<const void*> BufferAddresses(const MaskedWindow& window) {
  std::vector<const void*> out = {window.values.data(),
                                  window.temporal.masked.data(),
                                  window.temporal.unmasked.data(),
                                  window.frequency.data()};
  for (const auto& column : window.frequency) {
    out.insert(out.end(), {column.base.data(), column.cos_coef.data(),
                           column.sin_coef.data(), column.masked_bins.data()});
  }
  return out;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectSameWindow(const MaskedWindow& a, const MaskedWindow& b) {
  EXPECT_EQ(a.length, b.length);
  EXPECT_TRUE(SameBits(a.values, b.values));
  EXPECT_EQ(a.temporal.masked, b.temporal.masked);
  EXPECT_EQ(a.temporal.unmasked, b.temporal.unmasked);
  ASSERT_EQ(a.frequency.size(), b.frequency.size());
  for (std::size_t n = 0; n < a.frequency.size(); ++n) {
    EXPECT_TRUE(SameBits(a.frequency[n].base, b.frequency[n].base))
        << "column " << n;
    EXPECT_TRUE(SameBits(a.frequency[n].cos_coef, b.frequency[n].cos_coef))
        << "column " << n;
    EXPECT_TRUE(SameBits(a.frequency[n].sin_coef, b.frequency[n].sin_coef))
        << "column " << n;
    EXPECT_EQ(a.frequency[n].masked_bins, b.frequency[n].masked_bins);
  }
}

TEST(TfmaeModelTest, PrepareWindowIntoReusesEveryBuffer) {
  Rng rng(1);
  TfmaeModel model(3, SmallConfig(), &rng);
  MaskedWindow slot;
  slot.Reserve(32, 3);
  const std::vector<const void*> reserved = BufferAddresses(slot);
  for (const std::uint64_t seed : {4, 5, 6}) {
    const std::vector<float> values = ToyWindow(32, 3, seed);
    slot.values.assign(values.begin(), values.end());
    Rng mask_rng(seed);
    model.PrepareWindowInto(&slot, &mask_rng);
    EXPECT_EQ(BufferAddresses(slot), reserved) << "seed " << seed;
    Rng fresh_rng(seed);
    ExpectSameWindow(slot, model.PrepareWindow(values, &fresh_rng));
  }
}

TEST(TfmaeDetectorTest, PrepareRawWindowMatchesSeriesPipeline) {
  // Normalizing one window's raw rows gives the bits of normalizing the
  // whole series first, as Score() once did.
  TfmaeConfig config = SmallConfig();
  config.epochs = 1;
  config.per_window_normalization = true;
  TfmaeDetector detector(config);
  data::TimeSeries train = data::TimeSeries::Zeros(96, 3);
  train.values = ToyWindow(96, 3, 7);
  detector.Fit(train);
  data::TimeSeries test = data::TimeSeries::Zeros(80, 3);
  test.values = ToyWindow(80, 3, 8);
  const data::TimeSeries normalized = detector.normalizer().Apply(test);
  MaskedWindow slot;
  for (const std::int64_t start : {0, 17, 48}) {
    std::vector<float> values(
        normalized.values.begin() + start * 3,
        normalized.values.begin() + (start + 32) * 3);
    PerWindowNormalize(&values, 32, 3);
    Rng series_rng(9);
    const MaskedWindow expected =
        detector.model()->PrepareWindow(values, &series_rng);
    Rng raw_rng(9);
    detector.PrepareRawWindow(test.values.data() + start * 3, 32, &raw_rng,
                              &slot);
    ExpectSameWindow(slot, expected);
  }
}

TEST(TfmaeModelTest, ForwardShapesAndFiniteness) {
  TfmaeConfig config = SmallConfig();
  Rng rng(4);
  TfmaeModel model(3, config, &rng);
  Rng mask_rng(5);
  const MaskedWindow window =
      model.PrepareWindow(ToyWindow(32, 3, 6), &mask_rng);
  const TfmaeModel::Views views = model.Forward(window);
  EXPECT_EQ(views.temporal.shape(), (Shape{32, 16}));
  EXPECT_EQ(views.frequency.shape(), (Shape{32, 16}));
  for (std::int64_t i = 0; i < views.temporal.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(views.temporal.at(i)));
    EXPECT_TRUE(std::isfinite(views.frequency.at(i)));
  }
}

TEST(TfmaeModelTest, LossIsFiniteScalar) {
  TfmaeConfig config = SmallConfig();
  Rng rng(7);
  TfmaeModel model(1, config, &rng);
  Rng mask_rng(8);
  const MaskedWindow window =
      model.PrepareWindow(ToyWindow(32, 1, 9), &mask_rng);
  const Tensor loss = model.Loss(model.Forward(window));
  EXPECT_EQ(loss.numel(), 1);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(TfmaeModelTest, StopGradientRoutesUpdatesToIntendedBranch) {
  // With the paper-faithful objective (no joint alignment), the minimizing
  // stage must not push gradients into the temporal branch through the
  // detached view, and vice versa — but the adversarial stage feeds the
  // temporal side. Check: with adversarial off, temporal-branch parameters
  // receive zero gradient.
  TfmaeConfig config = SmallConfig();
  config.use_adversarial = false;
  config.joint_alignment = false;
  Rng rng(10);
  TfmaeModel model(1, config, &rng);
  Rng mask_rng(11);
  const MaskedWindow window =
      model.PrepareWindow(ToyWindow(32, 1, 12), &mask_rng);
  model.ZeroGrad();
  model.Loss(model.Forward(window)).Backward();

  double temporal_grad = 0.0;
  double frequency_grad = 0.0;
  for (const auto& [name, param] : model.NamedParameters()) {
    if (param.grad_data() == nullptr) continue;
    double norm = 0.0;
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      norm += std::abs(param.grad_data()[i]);
    }
    if (name.find("temporal") != std::string::npos) temporal_grad += norm;
    if (name.find("frequency") != std::string::npos) frequency_grad += norm;
  }
  EXPECT_EQ(temporal_grad, 0.0);
  EXPECT_GT(frequency_grad, 0.0);
}

TEST(TfmaeModelTest, AdversarialStageFeedsTemporalBranch) {
  TfmaeConfig config = SmallConfig();
  config.use_adversarial = true;
  config.joint_alignment = false;
  Rng rng(13);
  TfmaeModel model(1, config, &rng);
  Rng mask_rng(14);
  const MaskedWindow window =
      model.PrepareWindow(ToyWindow(32, 1, 15), &mask_rng);
  model.ZeroGrad();
  model.Loss(model.Forward(window)).Backward();
  double temporal_grad = 0.0;
  for (const auto& [name, param] : model.NamedParameters()) {
    if (param.grad_data() == nullptr ||
        name.find("temporal") == std::string::npos) {
      continue;
    }
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      temporal_grad += std::abs(param.grad_data()[i]);
    }
  }
  EXPECT_GT(temporal_grad, 0.0);
}

// Every Table IV / Table V ablation variant must run end to end.
struct AblationCase {
  const char* name;
  void (*apply)(TfmaeConfig*);
};

// Without this gtest prints the case as a byte dump of its two pointers,
// which ASLR changes on every run; gtest_discover_tests copies that dump
// into the ctest name, so each build would register differently named tests.
void PrintTo(const AblationCase& c, std::ostream* os) { *os << c.name; }

class AblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(AblationTest, VariantTrainsAndScores) {
  TfmaeConfig config = SmallConfig();
  config.epochs = 1;
  GetParam().apply(&config);

  data::BaseSignalConfig signal;
  signal.length = 200;
  signal.num_features = 2;
  signal.seed = 31;
  data::TimeSeries train = data::GenerateBaseSignal(signal);

  TfmaeDetector detector(config);
  detector.Fit(train);
  const std::vector<float> scores = detector.Score(train);
  ASSERT_EQ(scores.size(), 200u);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AblationTest,
    ::testing::Values(
        AblationCase{"wo_adv",
                     [](TfmaeConfig* c) { c->use_adversarial = false; }},
        AblationCase{"w_radv",
                     [](TfmaeConfig* c) { c->reverse_adversarial = true; }},
        AblationCase{"wo_fre",
                     [](TfmaeConfig* c) { c->use_frequency_branch = false; }},
        AblationCase{"wo_fd",
                     [](TfmaeConfig* c) { c->use_frequency_decoder = false; }},
        AblationCase{"wo_tem",
                     [](TfmaeConfig* c) { c->use_temporal_branch = false; }},
        AblationCase{"wo_te",
                     [](TfmaeConfig* c) { c->use_temporal_encoder = false; }},
        AblationCase{"wo_td",
                     [](TfmaeConfig* c) { c->use_temporal_decoder = false; }},
        AblationCase{"wo_mt",
                     [](TfmaeConfig* c) {
                       c->temporal_mask = masking::TemporalMaskVariant::kNone;
                     }},
        AblationCase{"w_smt",
                     [](TfmaeConfig* c) {
                       c->temporal_mask = masking::TemporalMaskVariant::kStdDev;
                     }},
        AblationCase{"w_rmt",
                     [](TfmaeConfig* c) {
                       c->temporal_mask = masking::TemporalMaskVariant::kRandom;
                     }},
        AblationCase{"wo_mf",
                     [](TfmaeConfig* c) {
                       c->frequency_mask = masking::FrequencyMaskVariant::kNone;
                     }},
        AblationCase{"w_hmf",
                     [](TfmaeConfig* c) {
                       c->frequency_mask =
                           masking::FrequencyMaskVariant::kHighFrequency;
                     }},
        AblationCase{"w_rmf",
                     [](TfmaeConfig* c) {
                       c->frequency_mask =
                           masking::FrequencyMaskVariant::kRandom;
                     }},
        AblationCase{"wo_fft", [](TfmaeConfig* c) {
                       c->cv_method = masking::CvMethod::kNaive;
                     }}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return info.param.name;
    });

TEST(TfmaeDetectorTest, ScoreBeforeFitDies) {
  TfmaeDetector detector(SmallConfig());
  data::TimeSeries series = data::TimeSeries::Zeros(100, 1);
  EXPECT_DEATH(detector.Score(series), "Fit");
}

TEST(TfmaeDetectorTest, DetectsPlantedSpikes) {
  // Clean periodic train, test with strong planted spikes: the spike scores
  // must dominate the normal scores.
  data::BaseSignalConfig signal;
  signal.length = 900;
  signal.num_features = 1;
  signal.noise_std = 0.03;
  signal.seed = 41;
  data::TimeSeries full = data::GenerateBaseSignal(signal);
  data::TimeSeries train = full.Slice(0, 600);
  data::TimeSeries test = full.Slice(600, 300);
  test.labels.assign(300, 0);
  for (std::int64_t t : {60, 150, 240}) {
    test.at(t, 0) += 6.0f;
    test.labels[static_cast<std::size_t>(t)] = 1;
  }

  TfmaeConfig config = SmallConfig();
  config.epochs = 20;
  config.stride = 8;
  config.score_stride = 8;
  TfmaeDetector detector(config);
  detector.Fit(train);
  const std::vector<float> scores = detector.Score(test);
  const double auroc = eval::Auroc(scores, test.labels);
  EXPECT_GT(auroc, 0.9) << "spikes not separated (AUROC " << auroc << ")";
  EXPECT_GT(detector.train_stats().num_steps, 0);
  EXPECT_GT(detector.train_stats().fit_seconds, 0.0);
  EXPECT_GT(detector.train_stats().peak_tensor_bytes, 0);
}

TEST(RunProtocolTest, ProducesConsistentReport) {
  data::DatasetProfile profile =
      data::GetProfile(data::BenchmarkDataset::kNipsTsGlobal, 0.3);
  data::LabeledDataset dataset = data::MakeDataset(profile);
  TfmaeConfig config = SmallConfig();
  config.epochs = 5;
  TfmaeDetector detector(config);
  const eval::DetectionReport report =
      RunProtocol(&detector, dataset, 0.03);
  EXPECT_GE(report.adjusted.f1, report.raw.f1 - 1e-12);
  EXPECT_GE(report.auroc, 0.0);
  EXPECT_LE(report.auroc, 1.0);
}

}  // namespace
}  // namespace tfmae::core
