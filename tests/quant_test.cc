// Int8 scoring path tests (DESIGN.md §12): quant kernel bitwise identity
// across ISA paths and thread counts, round-half-away quantization,
// calibration edge cases (constant channels, saturating outliers,
// feature-count mismatch refusal), QuantSpec container round trips with
// corrupt-section rejection, the injected-fault fp32 fallback, end-to-end
// int8-vs-fp32 score agreement, and int8-vs-fp32 F1 parity on every main
// dataset profile, which also pins each profile's score fingerprints.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "core/detector.h"
#include "core/inference_plan.h"
#include "core/quant.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "eval/detection.h"
#include "obs/ledger.h"
#include "tensor/quant_kernels.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tfmae::data {

// gtest_discover_tests copies the printed parameter into each ctest name;
// without this a dataset prints as a byte dump of the enum.
static void PrintTo(BenchmarkDataset dataset, std::ostream* os) {
  *os << DatasetName(dataset);
}

}  // namespace tfmae::data

namespace tfmae::core {
namespace {

namespace quant = tfmae::quant;

class EnvGuard {
 public:
  ~EnvGuard() {
    ThreadPool::Instance().SetNumThreads(1);
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

data::TimeSeries TinySignal(std::int64_t length, std::int64_t features,
                            std::uint64_t seed) {
  data::BaseSignalConfig signal;
  signal.length = length;
  signal.num_features = features;
  signal.seed = seed;
  return data::GenerateBaseSignal(signal);
}

// A fitted + calibrated detector in the requested quantization mode. Fit
// and Calibrate are deterministic for fixed (data, config, seed), so two
// MakeDetector calls hold bitwise-equal weights and specs.
std::unique_ptr<TfmaeDetector> MakeDetector(const data::TimeSeries& train,
                                            TfmaeDetector::QuantMode mode) {
  auto detector = std::make_unique<TfmaeDetector>(TinyConfig());
  detector->SetQuantMode(TfmaeDetector::QuantMode::kOff);
  detector->Fit(train);
  if (mode == TfmaeDetector::QuantMode::kInt8) {
    std::string error;
    EXPECT_TRUE(detector->Calibrate(train, &error)) << error;
    detector->SetQuantMode(mode);
  }
  return detector;
}

// ---- Kernel layer ----------------------------------------------------------

struct QuantProblem {
  std::vector<std::uint8_t> a;       // [m, k4]
  std::vector<std::int8_t> packed;   // packed weights
  std::vector<float> col_scale;
  std::vector<std::int32_t> col_comp;
  std::vector<float> bias;
  float a_scale = 0.02f;
};

QuantProblem MakeProblem(std::int64_t m, std::int64_t k, std::int64_t n,
                         std::uint64_t seed) {
  Rng rng(seed);
  QuantProblem p;
  const std::int64_t k4 = quant::RoundUpK4(k);
  p.a.resize(static_cast<std::size_t>(m * k4), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      p.a[static_cast<std::size_t>(i * k4 + j)] =
          static_cast<std::uint8_t>(rng.NextU64() % 256);
    }
  }
  std::vector<float> w(static_cast<std::size_t>(k * n));
  for (float& v : w) v = static_cast<float>(rng.Normal());
  p.packed.resize(static_cast<std::size_t>(quant::PackedWeightBytes(k, n)));
  p.col_scale.resize(static_cast<std::size_t>(n));
  p.col_comp.resize(static_cast<std::size_t>(n));
  quant::QuantizePackWeights(w.data(), k, n, p.packed.data(),
                             p.col_scale.data(), p.col_comp.data());
  p.bias.resize(static_cast<std::size_t>(n));
  for (float& v : p.bias) v = static_cast<float>(rng.Normal());
  return p;
}

// Every compiled ISA path must match the scalar reference bit-for-bit, for
// every epilogue, on shapes exercising remainder columns and K % 4 != 0.
TEST(QuantKernelTest, AllIsaPathsBitwiseMatchScalar) {
  const std::int64_t shapes[][3] = {
      {1, 4, 1},   {3, 7, 5},   {8, 8, 16},  {5, 33, 17},
      {16, 32, 64}, {2, 31, 33}, {7, 64, 19},
  };
  for (const auto& shape : shapes) {
    const std::int64_t m = shape[0];
    const std::int64_t k = shape[1];
    const std::int64_t n = shape[2];
    QuantProblem p = MakeProblem(m, k, n, 1000 + static_cast<std::uint64_t>(k));
    for (const quant::Epilogue epi :
         {quant::Epilogue::kNone, quant::Epilogue::kBias,
          quant::Epilogue::kBiasGelu}) {
      const float* bias = epi == quant::Epilogue::kNone ? nullptr
                                                        : p.bias.data();
      std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
      quant::QuantLinearScalar(p.a.data(), p.packed.data(), p.col_scale.data(),
                               p.col_comp.data(), bias, p.a_scale, epi,
                               ref.data(), m, k, n);
      for (const char* isa : {"scalar", "avx2", "avx512vnni"}) {
        std::vector<float> out(static_cast<std::size_t>(m * n), -1.0f);
        if (!quant::QuantLinearPath(isa, p.a.data(), p.packed.data(),
                                    p.col_scale.data(), p.col_comp.data(),
                                    bias, p.a_scale, epi, out.data(), m, k,
                                    n)) {
          continue;  // not compiled on this host
        }
        EXPECT_EQ(0, std::memcmp(ref.data(), out.data(),
                                 ref.size() * sizeof(float)))
            << isa << " diverges from scalar at m=" << m << " k=" << k
            << " n=" << n << " epilogue=" << static_cast<int>(epi);
      }
      // The dispatching entry point too.
      std::vector<float> out(static_cast<std::size_t>(m * n), -1.0f);
      quant::QuantLinear(p.a.data(), p.packed.data(), p.col_scale.data(),
                         p.col_comp.data(), bias, p.a_scale, epi, out.data(),
                         m, k, n);
      EXPECT_EQ(0,
                std::memcmp(ref.data(), out.data(), ref.size() * sizeof(float)));
    }
  }
}

TEST(QuantKernelTest, ThreadCountInvariant) {
  EnvGuard guard;
  const std::int64_t m = 37;
  const std::int64_t k = 33;
  const std::int64_t n = 21;
  QuantProblem p = MakeProblem(m, k, n, 77);
  std::vector<std::vector<float>> results;
  for (const int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);
    std::vector<float> out(static_cast<std::size_t>(m * n), 0.0f);
    quant::QuantLinear(p.a.data(), p.packed.data(), p.col_scale.data(),
                       p.col_comp.data(), p.bias.data(), p.a_scale,
                       quant::Epilogue::kBiasGelu, out.data(), m, k, n);
    results.push_back(std::move(out));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             results[0].size() * sizeof(float)))
        << "thread-count variance between runs 0 and " << i;
  }
}

TEST(QuantKernelTest, QuantizeRoundsHalfAwayFromZeroAndSaturates) {
  const float scale = 0.5f;  // inv_scale = 2
  // 0.25 / 0.5 = 0.5 -> rounds away to 1; -0.25 -> -1. Huge values clamp.
  const float src[] = {0.0f, 0.25f, -0.25f, 0.24f, -0.24f, 1e6f, -1e6f};
  std::uint8_t dst[8] = {};
  quant::QuantizeU8(src, dst, 1, 7, 1.0f / scale);
  EXPECT_EQ(dst[0], 128);
  EXPECT_EQ(dst[1], 129);
  EXPECT_EQ(dst[2], 127);
  EXPECT_EQ(dst[3], 128);
  EXPECT_EQ(dst[4], 128);
  EXPECT_EQ(dst[5], 255);  // saturating outlier, positive
  EXPECT_EQ(dst[6], 0);    // saturating outlier, negative
  EXPECT_EQ(dst[7], 0);    // k4 padding lane stays zero
}

TEST(QuantKernelTest, AllZeroWeightColumnStaysFinite) {
  const std::int64_t k = 6;
  const std::int64_t n = 3;
  std::vector<float> w(static_cast<std::size_t>(k * n), 0.0f);
  for (std::int64_t i = 0; i < k; ++i) {
    w[static_cast<std::size_t>(i * n)] = 1.0f;  // column 0 nonzero only
  }
  std::vector<std::int8_t> packed(
      static_cast<std::size_t>(quant::PackedWeightBytes(k, n)));
  std::vector<float> col_scale(static_cast<std::size_t>(n));
  std::vector<std::int32_t> col_comp(static_cast<std::size_t>(n));
  quant::QuantizePackWeights(w.data(), k, n, packed.data(), col_scale.data(),
                             col_comp.data());
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_TRUE(std::isfinite(col_scale[static_cast<std::size_t>(j)]));
    EXPECT_GT(col_scale[static_cast<std::size_t>(j)], 0.0f);
  }
  // An all-zero column must produce exactly zero output (wq == 0, comp == 0).
  std::vector<std::uint8_t> a(static_cast<std::size_t>(quant::RoundUpK4(k)),
                              200);
  std::vector<float> out(static_cast<std::size_t>(n), -1.0f);
  quant::QuantLinear(a.data(), packed.data(), col_scale.data(),
                     col_comp.data(), nullptr, 0.1f, quant::Epilogue::kNone,
                     out.data(), 1, k, n);
  EXPECT_NE(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
}

TEST(QuantKernelTest, TransposedPackMatchesPlainPack) {
  Rng rng(5);
  const std::int64_t k = 9;
  const std::int64_t n = 7;
  std::vector<float> w(static_cast<std::size_t>(k * n));
  for (float& v : w) v = static_cast<float>(rng.Normal());
  std::vector<float> w_t(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      w_t[static_cast<std::size_t>(j * k + i)] =
          w[static_cast<std::size_t>(i * n + j)];
    }
  }
  const std::size_t bytes =
      static_cast<std::size_t>(quant::PackedWeightBytes(k, n));
  std::vector<std::int8_t> p1(bytes);
  std::vector<std::int8_t> p2(bytes);
  std::vector<float> s1(static_cast<std::size_t>(n));
  std::vector<float> s2(static_cast<std::size_t>(n));
  std::vector<std::int32_t> c1(static_cast<std::size_t>(n));
  std::vector<std::int32_t> c2(static_cast<std::size_t>(n));
  quant::QuantizePackWeights(w.data(), k, n, p1.data(), s1.data(), c1.data());
  quant::QuantizePackWeightsT(w_t.data(), k, n, p2.data(), s2.data(),
                              c2.data());
  EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), bytes));
  EXPECT_EQ(0, std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(float)));
  EXPECT_EQ(0,
            std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(std::int32_t)));
}

// ---- QuantSpec persistence -------------------------------------------------

QuantSpec SampleSpec() {
  QuantSpec spec;
  spec.num_features = 4;
  spec.windows = 12;
  QuantSite site;
  site.weight_index = 3;
  site.in_features = 5;
  site.absmax = {0.5f, 1.25f, 0.0f, 3.5f, 0.125f};
  site.moments.count = 60;
  site.moments.mean = 0.01;
  site.moments.m2 = 4.2;
  spec.sites.push_back(site);
  site.weight_index = 7;
  spec.sites.push_back(site);
  return spec;
}

TEST(QuantSpecTest, EncodeDecodeRoundTrip) {
  const QuantSpec spec = SampleSpec();
  QuantSpec back;
  ASSERT_TRUE(DecodeQuantSpec(EncodeQuantSpec(spec), &back));
  EXPECT_EQ(back.num_features, spec.num_features);
  EXPECT_EQ(back.windows, spec.windows);
  ASSERT_EQ(back.sites.size(), spec.sites.size());
  for (std::size_t i = 0; i < back.sites.size(); ++i) {
    EXPECT_EQ(back.sites[i].weight_index, spec.sites[i].weight_index);
    EXPECT_EQ(back.sites[i].in_features, spec.sites[i].in_features);
    EXPECT_EQ(back.sites[i].absmax, spec.sites[i].absmax);
    EXPECT_EQ(back.sites[i].moments.count, spec.sites[i].moments.count);
    EXPECT_EQ(back.sites[i].moments.mean, spec.sites[i].moments.mean);
    EXPECT_EQ(back.sites[i].moments.m2, spec.sites[i].moments.m2);
  }
}

TEST(QuantSpecTest, DecodeRejectsTruncationAndTrailingGarbage) {
  const QuantSpec spec = SampleSpec();
  std::vector<char> payload = EncodeQuantSpec(spec);
  QuantSpec back;
  for (const std::size_t cut : {payload.size() - 1, payload.size() / 2,
                                std::size_t{3}, std::size_t{0}}) {
    std::vector<char> truncated(payload.begin(),
                                payload.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeQuantSpec(truncated, &back)) << "cut=" << cut;
  }
  std::vector<char> padded = payload;
  padded.push_back('x');
  EXPECT_FALSE(DecodeQuantSpec(padded, &back));
}

// ---- Calibration -----------------------------------------------------------

TEST(QuantCalibrationTest, RecordsSitesWithFiniteScales) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 3, 21);
  auto detector = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  const QuantSpec& spec = detector->quant_spec();
  ASSERT_FALSE(spec.empty());
  EXPECT_EQ(spec.num_features, 3);
  EXPECT_GT(spec.windows, 0);
  for (const QuantSite& site : spec.sites) {
    EXPECT_GE(site.weight_index, 0);
    EXPECT_GT(site.in_features, 0);
    EXPECT_EQ(static_cast<std::int64_t>(site.absmax.size()),
              site.in_features);
    EXPECT_TRUE(std::isfinite(site.ActivationScale()));
    EXPECT_GT(site.ActivationScale(), 0.0f);
    EXPECT_GT(site.moments.count, 0);
    EXPECT_TRUE(std::isfinite(site.moments.Variance()));
  }
}

// A constant (zero-variance) feature must calibrate to a clamped, positive
// scale — never a division by zero — and still score finitely.
TEST(QuantCalibrationTest, ConstantChannelNeverDividesByZero) {
  EnvGuard guard;
  data::TimeSeries train = TinySignal(192, 2, 22);
  for (std::int64_t t = 0; t < train.length; ++t) {
    train.values[static_cast<std::size_t>(t * 2 + 1)] = 4.0f;  // constant
  }
  auto detector = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  for (const QuantSite& site : detector->quant_spec().sites) {
    EXPECT_GT(site.ActivationScale(), 0.0f);
    EXPECT_TRUE(std::isfinite(site.ActivationScale()));
  }
  const std::vector<float> scores = detector->Score(train);
  for (const float s : scores) EXPECT_TRUE(std::isfinite(s));
  EXPECT_EQ(detector->quant_fallbacks(), 0);
  ASSERT_NE(detector->inference_plan(), nullptr);
  EXPECT_TRUE(detector->inference_plan()->stats().quantized);
}

TEST(QuantCalibrationTest, EmptyWindowListIsRefused) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 23);
  TfmaeDetector detector(TinyConfig());
  detector.Fit(train);
  QuantSpec spec;
  std::string error;
  EXPECT_FALSE(CalibrateQuantSpec(*detector.model(), {}, 2, &spec, &error));
  EXPECT_FALSE(error.empty());
}

// A spec calibrated for a different feature count must be refused — the
// detector falls back to fp32 and counts it, rather than scoring with
// ranges measured on another geometry.
TEST(QuantCalibrationTest, FeatureCountMismatchFallsBackToFp32) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 24);
  auto detector = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  QuantSpec doctored = detector->quant_spec();
  doctored.num_features = 9;  // claims a different series geometry
  detector->SetQuantSpec(std::move(doctored));
  const std::vector<float> scores = detector->Score(train);
  EXPECT_FALSE(scores.empty());
  EXPECT_GT(detector->quant_fallbacks(), 0);
  ASSERT_NE(detector->inference_plan(), nullptr);
  EXPECT_FALSE(detector->inference_plan()->stats().quantized);
}

// ---- End to end ------------------------------------------------------------

TEST(QuantScoringTest, Int8PlanActivatesAndTracksFp32) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(256, 3, 31);
  const data::TimeSeries test = TinySignal(96, 3, 32);
  auto int8 = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  auto fp32 = MakeDetector(train, TfmaeDetector::QuantMode::kOff);
  const std::vector<float> qs = int8->Score(test);
  const std::vector<float> fs = fp32->Score(test);
  ASSERT_EQ(qs.size(), fs.size());
  EXPECT_EQ(int8->quant_fallbacks(), 0);
  ASSERT_NE(int8->inference_plan(), nullptr);
  const InferencePlanStats& stats = int8->inference_plan()->stats();
  EXPECT_TRUE(stats.quantized);
  EXPECT_GT(stats.quant_linear_ops, 0);
  EXPECT_GT(stats.elided_quant_pairs, 0);
  EXPECT_GT(stats.quant_arena_bytes, 0);
  // The int8 arena is byte-granular: ~4x smaller than fp32 slots of the
  // same logical shape. It must be well under the fp32 arena size.
  EXPECT_LT(stats.quant_arena_bytes, stats.arena_bytes);
  float max_abs = 0.0f;
  float max_err = 0.0f;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(std::isfinite(qs[i]));
    max_abs = std::max(max_abs, std::fabs(fs[i]));
    max_err = std::max(max_err, std::fabs(qs[i] - fs[i]));
  }
  EXPECT_LE(max_err, 0.25f * std::max(max_abs, 1e-3f))
      << "int8 scores left the quantization-noise envelope";
}

TEST(QuantScoringTest, Int8ScoresBitwiseIdenticalAcrossThreadCounts) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(256, 2, 41);
  const data::TimeSeries test = TinySignal(96, 2, 42);
  std::vector<std::vector<float>> runs;
  for (const int threads : {1, 2, 4}) {
    // A fresh detector per thread count keeps the mask rng streams aligned
    // (Fit/Calibrate are deterministic), so any difference is the kernels'.
    auto detector = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
    ThreadPool::Instance().SetNumThreads(threads);
    runs.push_back(detector->Score(test));
    ASSERT_NE(detector->inference_plan(), nullptr);
    EXPECT_TRUE(detector->inference_plan()->stats().quantized);
    EXPECT_EQ(detector->quant_fallbacks(), 0);
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[1].data(),
                           runs[0].size() * sizeof(float)))
      << "int8 scores differ between 1 and 2 threads";
  EXPECT_EQ(0, std::memcmp(runs[0].data(), runs[2].data(),
                           runs[0].size() * sizeof(float)))
      << "int8 scores differ between 1 and 4 threads";
}

TEST(QuantScoringTest, MissingCalibrationFallsBackToFp32Bitwise) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 51);
  const data::TimeSeries test = TinySignal(80, 2, 52);
  auto uncalibrated = MakeDetector(train, TfmaeDetector::QuantMode::kOff);
  uncalibrated->SetQuantMode(TfmaeDetector::QuantMode::kInt8);
  auto reference = MakeDetector(train, TfmaeDetector::QuantMode::kOff);
  const std::vector<float> got = uncalibrated->Score(test);
  const std::vector<float> want = reference->Score(test);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0,
            std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << "uncalibrated int8 mode must be exactly the fp32 path";
  EXPECT_GT(uncalibrated->quant_fallbacks(), 0);
  ASSERT_NE(uncalibrated->inference_plan(), nullptr);
  EXPECT_FALSE(uncalibrated->inference_plan()->stats().quantized);
}

TEST(QuantScoringTest, CheckpointRoundTripCarriesTheSpec) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 61);
  const data::TimeSeries test = TinySignal(80, 2, 62);
  auto fitted = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tfmae_quant.ckpt").string();
  ASSERT_TRUE(fitted->SaveCheckpoint(path));

  TfmaeDetector loaded(TinyConfig());
  ASSERT_TRUE(loaded.LoadCheckpoint(path));
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.has_quant_spec());
  EXPECT_TRUE(EncodeQuantSpec(loaded.quant_spec()) ==
              EncodeQuantSpec(fitted->quant_spec()));
  loaded.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
  const std::vector<float> got = loaded.Score(test);
  EXPECT_EQ(loaded.quant_fallbacks(), 0);
  ASSERT_NE(loaded.inference_plan(), nullptr);
  EXPECT_TRUE(loaded.inference_plan()->stats().quantized);
  const std::vector<float> want = fitted->Score(test);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0,
            std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << "the loaded spec must score int8 exactly as the saved one";
}

// The injected-fault proof of the fp32 fallback: a quant-capture fault must
// leave scoring running on the fp32 plan, bitwise-equal to a plain fp32
// detector, with the fallback counted.
TEST(QuantScoringTest, InjectedQuantCaptureFaultFallsBackToFp32) {
  EnvGuard guard;
  const data::TimeSeries train = TinySignal(192, 2, 71);
  const data::TimeSeries test = TinySignal(80, 2, 72);
  auto faulty = MakeDetector(train, TfmaeDetector::QuantMode::kInt8);
  auto reference = MakeDetector(train, TfmaeDetector::QuantMode::kOff);
  fault::ScopedFaults faults("infer.quant.capture:#1");
  const std::vector<float> got = faulty->Score(test);
  fault::Clear();
  const std::vector<float> want = reference->Score(test);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0,
            std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
      << "faulted int8 scoring must be exactly the fp32 path";
  EXPECT_GT(faulty->quant_fallbacks(), 0);
  ASSERT_NE(faulty->inference_plan(), nullptr);
  EXPECT_FALSE(faulty->inference_plan()->stats().quantized);
}

// ---- Detection parity ------------------------------------------------------

// Int8 scoring must keep the paper's detection quality: on every main
// dataset profile, point-adjusted F1 with int8 scoring stays within
// kF1Tolerance of F1 with fp32 scoring of the same fitted weights, with no
// fallback to fp32. The profiles run at scale 1.0: on a fractional split a
// single borderline point crossing the threshold flips a whole anomaly
// segment, which measures sample size rather than kernel fidelity.
//
// The same fits also pin absolute score fingerprints: a CRC-32 of the fp32
// and of the int8 test scores, and both F1s. Every other score contract is
// relative (eager == plan, batched == sequential), so a change that moves
// every path at once passes all of them; this one fails instead. A change
// that means to move the numerics re-blesses the table from the failure
// message and says why in CHANGES.md.
class QuantParityTest
    : public ::testing::TestWithParam<data::BenchmarkDataset> {};

using data::BenchmarkDataset;

struct ScoreFingerprint {
  BenchmarkDataset dataset;
  std::uint32_t fp32_crc;
  std::uint32_t int8_crc;
  double f1_fp32;
  double f1_int8;
};

constexpr ScoreFingerprint kFingerprints[] = {
    {BenchmarkDataset::kSwat, 0x1462e43eu, 0x1f802991u, 0.515789, 0.513986},
    {BenchmarkDataset::kPsm, 0xe57e85a9u, 0xbd433ddau, 0.566251, 0.566251},
    {BenchmarkDataset::kSmd, 0x1cdad3adu, 0x7f8f9da2u, 0.540059, 0.543284},
    {BenchmarkDataset::kMsl, 0xa58f3393u, 0xf7834414u, 0.480176, 0.480176},
    {BenchmarkDataset::kSmap, 0xd13e0e31u, 0x3c782fb3u, 0.751660, 0.747340},
};

std::uint32_t ScoresCrc(const std::vector<float>& scores) {
  return util::Crc32(scores.data(), scores.size() * sizeof(float));
}

TEST_P(QuantParityTest, Int8F1WithinToleranceOfFp32) {
  // Eight epochs is the shortest fit at which every profile's fp32 F1 has
  // settled; an under-trained fit leaves borderline segments whose F1 flips
  // on sub-percent score changes.
  constexpr int kEpochs = 8;
  constexpr double kF1Tolerance = 0.005;
  EnvGuard guard;
  const data::BenchmarkDataset dataset = GetParam();
  const data::LabeledDataset ds = data::MakeBenchmarkDataset(dataset, 1.0);
  TfmaeConfig config = bench::TfmaeConfigFor(dataset);
  config.epochs = std::min(config.epochs, kEpochs);
  const double fraction = bench::AnomalyFractionFor(dataset);

  TfmaeDetector detector(config);
  detector.SetQuantMode(TfmaeDetector::QuantMode::kOff);
  detector.Fit(ds.train);
  const std::vector<float> val_fp32 = detector.Score(ds.val);
  const std::vector<float> test_fp32 = detector.Score(ds.test);
  std::string error;
  ASSERT_TRUE(detector.Calibrate(ds.val, &error)) << error;
  detector.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
  const std::vector<float> val_int8 = detector.Score(ds.val);
  const std::vector<float> test_int8 = detector.Score(ds.test);

  const double f1_fp32 = eval::EvaluateDetection(val_fp32, test_fp32,
                                                 ds.test.labels, fraction)
                             .adjusted.f1;
  const double f1_int8 = eval::EvaluateDetection(val_int8, test_int8,
                                                 ds.test.labels, fraction)
                             .adjusted.f1;
  EXPECT_LE(std::fabs(f1_int8 - f1_fp32), kF1Tolerance)
      << "f1_fp32=" << f1_fp32 << " f1_int8=" << f1_int8;
  EXPECT_EQ(detector.quant_fallbacks(), 0);

  const ScoreFingerprint* want = nullptr;
  for (const ScoreFingerprint& fp : kFingerprints) {
    if (fp.dataset == dataset) want = &fp;
  }
  ASSERT_NE(want, nullptr) << "no fingerprint for this profile";
  char got[128];
  std::snprintf(got, sizeof(got), "0x%08xu, 0x%08xu, %.6f, %.6f",
                ScoresCrc(test_fp32), ScoresCrc(test_int8), f1_fp32, f1_int8);
  const std::string blessed = "measured {" + std::string(got) + "}";
  EXPECT_EQ(ScoresCrc(test_fp32), want->fp32_crc) << blessed;
  EXPECT_EQ(ScoresCrc(test_int8), want->int8_crc) << blessed;
  EXPECT_NEAR(f1_fp32, want->f1_fp32, 1e-6) << blessed;
  EXPECT_NEAR(f1_int8, want->f1_int8, 1e-6) << blessed;
}

INSTANTIATE_TEST_SUITE_P(
    MainDatasets, QuantParityTest, ::testing::ValuesIn(data::MainDatasets()),
    [](const ::testing::TestParamInfo<data::BenchmarkDataset>& info) {
      return data::DatasetName(info.param);
    });

}  // namespace
}  // namespace tfmae::core
