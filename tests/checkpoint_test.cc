// Tests for full-detector checkpointing (one container holding config,
// normalizer, weights and the optional int8 spec and drift reference) and
// the crash-safe training checkpoints of docs/RESILIENCE.md: corruption
// detection and fallback, and bitwise-identical kill-and-resume at several
// thread counts.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/config_io.h"
#include "core/detector.h"
#include "data/generator.h"
#include "nn/serialize.h"
#include "util/checkpoint_file.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tfmae::core {
namespace {

TfmaeConfig SmallConfig() {
  TfmaeConfig config;
  config.window = 32;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 3;
  config.stride = 16;
  config.temporal_mask_ratio = 0.25;
  config.per_window_normalization = false;
  return config;
}

data::TimeSeries Signal(std::int64_t length, std::int64_t features,
                        std::uint64_t seed) {
  data::BaseSignalConfig signal;
  signal.length = length;
  signal.num_features = features;
  signal.seed = seed;
  return data::GenerateBaseSignal(signal);
}

// Rewrites the detector file at `path` with section `name` set to `payload`
// (nullptr drops it), keeping every other section.
void ReplaceSection(const std::string& path, const std::string& name,
                    const std::vector<char>* payload) {
  const auto file = util::CheckpointFileReader::Open(path);
  ASSERT_TRUE(file.has_value()) << path;
  util::CheckpointFileWriter writer;
  for (const char* section : {"config", "norm", nn::kParametersSection,
                              kQuantSpecSection, kScoreRefSection}) {
    const std::vector<char>* kept =
        section == name ? payload : file->Section(section);
    if (kept != nullptr) writer.AddSection(section, *kept);
  }
  ASSERT_TRUE(writer.WriteAtomic(path));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CheckpointTest, RoundTripReproducesScoresExactly) {
  // A channel far from zero exercises the normalizer statistics.
  data::TimeSeries series = Signal(500, 3, 111);
  for (std::int64_t t = 0; t < series.length; ++t) series.at(t, 2) += 40.0f;
  data::TimeSeries train = series.Slice(0, 350);
  data::TimeSeries test = series.Slice(350, 150);

  TfmaeDetector original(SmallConfig());
  original.Fit(train);
  const std::string dir = FreshDir("tfmae_ckpt");
  const std::string path = dir + "/detector.ckpt";
  ASSERT_TRUE(original.SaveCheckpoint(path));
  // One file at `path`: no sibling files, no leftover .tmp.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"detector.ckpt"});

  TfmaeDetector restored(TfmaeConfig{});  // different config; load overrides
  ASSERT_TRUE(restored.LoadCheckpoint(path));
  EXPECT_EQ(restored.config().window, 32);
  EXPECT_EQ(restored.config().model_dim, 16);
  EXPECT_FALSE(restored.has_quant_spec());
  EXPECT_FALSE(restored.has_score_reference());
  EXPECT_EQ(restored.Score(test), original.Score(test));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, LoadFailsOnMissingPieces) {
  TfmaeDetector detector(SmallConfig());
  EXPECT_FALSE(detector.LoadCheckpoint("/nonexistent/detector.ckpt"));
  EXPECT_FALSE(detector.fitted());

  const data::TimeSeries train = Signal(200, 1, 112);
  TfmaeDetector fitted(SmallConfig());
  fitted.Fit(train);
  const std::vector<float> before = fitted.Score(train);
  const std::string path = ::testing::TempDir() + "/tfmae_partial.ckpt";
  const std::vector<char> garbage = {'x', 'x'};
  util::ByteWriter zero_std;  // SetStatistics would CHECK-fail on it
  zero_std.FloatArray({0.0f});
  zero_std.FloatArray({0.0f});
  const std::vector<char> zero_std_norm = zero_std.Take();

  // A missing required section, or any section present but undecodable,
  // fails the whole load: the optional ones do not degrade to "none".
  const std::vector<std::pair<std::string, const std::vector<char>*>> cases = {
      {"config", nullptr},
      {"norm", nullptr},
      {"config", &garbage},
      {nn::kParametersSection, nullptr},
      {"norm", &garbage},
      {"norm", &zero_std_norm},
      {nn::kParametersSection, &garbage},
      {kQuantSpecSection, &garbage},
      {kScoreRefSection, &garbage}};
  for (const auto& [section, payload] : cases) {
    ASSERT_TRUE(fitted.SaveCheckpoint(path));
    ReplaceSection(path, section, payload);
    const std::string what =
        section + (payload == nullptr ? " missing" : " undecodable");
    TfmaeDetector loader(SmallConfig());
    EXPECT_FALSE(loader.LoadCheckpoint(path)) << what;
    EXPECT_FALSE(loader.fitted()) << what;
    // A failed load leaves a fitted detector as it was: same weights, same
    // scores, bitwise.
    EXPECT_FALSE(fitted.LoadCheckpoint(path)) << what;
    ASSERT_TRUE(fitted.fitted());
    EXPECT_EQ(fitted.Score(train), before) << what;
  }
  std::remove(path.c_str());
}

// The model constructors and PrepareWindow CHECK their arguments, so a
// config that cannot build a model must be refused before one is built:
// num_heads 0 would divide by zero, and 3 does not divide model_dim 16. A
// well-shaped config whose model would not fit the weights on file is
// refused before the model is allocated: model_dim 4194304 would ask for
// ~10^15 bytes, and model_dim 2^40 overflows the parameter count.
TEST(CheckpointTest, LoadRejectsConfigThatCannotBuildAModel) {
  const data::TimeSeries train = Signal(200, 2, 113);
  TfmaeDetector fitted(SmallConfig());
  fitted.Fit(train);
  const std::vector<float> before = fitted.Score(train);
  std::uint64_t held = 0;
  for (const Tensor& p : fitted.model()->Parameters()) {
    held += static_cast<std::uint64_t>(p.numel());
  }
  EXPECT_EQ(TfmaeModel::ParameterCount(2, SmallConfig()), held);
  const std::string path = ::testing::TempDir() + "/tfmae_bad_config.ckpt";
  const std::vector<std::pair<std::string, void (*)(TfmaeConfig*)>> cases = {
      {"num_heads 0", [](TfmaeConfig* c) { c->num_heads = 0; }},
      {"num_heads 3", [](TfmaeConfig* c) { c->num_heads = 3; }},
      {"num_layers 0", [](TfmaeConfig* c) { c->num_layers = 0; }},
      {"window 1", [](TfmaeConfig* c) { c->window = 1; }},
      {"mask ratio 1", [](TfmaeConfig* c) { c->frequency_mask_ratio = 1.0; }},
      {"model_dim 4194304", [](TfmaeConfig* c) { c->model_dim = 4194304; }},
      {"model_dim 2^40", [](TfmaeConfig* c) { c->model_dim = 1LL << 40; }}};
  for (const auto& [what, spoil] : cases) {
    ASSERT_TRUE(fitted.SaveCheckpoint(path));
    TfmaeConfig bad = SmallConfig();
    spoil(&bad);
    const std::string text = ConfigToString(bad);
    const std::vector<char> payload(text.begin(), text.end());
    ReplaceSection(path, "config", &payload);
    TfmaeDetector loader(SmallConfig());
    EXPECT_FALSE(loader.LoadCheckpoint(path)) << what;
    EXPECT_FALSE(loader.fitted()) << what;
    EXPECT_FALSE(fitted.LoadCheckpoint(path)) << what;
    EXPECT_EQ(fitted.config().num_heads, 2) << what;
    EXPECT_EQ(fitted.Score(train), before) << what;
  }
  std::remove(path.c_str());
}

// A save that fails part-way leaves the previous file whole: it loads as
// the previous detector, bitwise.
TEST(CheckpointTest, FailedSaveKeepsThePreviousFile) {
  const data::TimeSeries test = Signal(150, 2, 116);
  TfmaeDetector previous(SmallConfig());
  previous.Fit(Signal(300, 2, 114));
  TfmaeConfig other = SmallConfig();
  other.seed = 7;
  TfmaeDetector next(other);
  next.Fit(Signal(300, 2, 115));
  const std::string path = ::testing::TempDir() + "/tfmae_torn.ckpt";
  ASSERT_TRUE(previous.SaveCheckpoint(path));
  {
    fault::ScopedFaults faults("io.checkpoint_write:#1");
    EXPECT_FALSE(next.SaveCheckpoint(path));
  }
  TfmaeDetector loaded(SmallConfig());
  ASSERT_TRUE(loaded.LoadCheckpoint(path));
  EXPECT_EQ(loaded.config().seed, previous.config().seed);
  EXPECT_EQ(loaded.Score(test), previous.Score(test));
  std::remove(path.c_str());
}

// Saving a detector without an int8 spec or score reference over the file
// of one that had both leaves neither behind.
TEST(CheckpointTest, SaveDropsOptionalSectionsTheDetectorLacks) {
  const data::TimeSeries train = Signal(300, 2, 117);
  TfmaeDetector full(SmallConfig());
  full.Fit(train);
  std::string error;
  ASSERT_TRUE(full.Calibrate(train, &error)) << error;
  full.SetScoreReference(BuildScoreDistribution(full.Score(train)));
  ASSERT_TRUE(full.has_quant_spec());
  ASSERT_TRUE(full.has_score_reference());
  TfmaeDetector bare(SmallConfig());
  bare.Fit(train);

  const std::string path = ::testing::TempDir() + "/tfmae_stale.ckpt";
  ASSERT_TRUE(full.SaveCheckpoint(path));
  TfmaeDetector loaded(SmallConfig());
  ASSERT_TRUE(loaded.LoadCheckpoint(path));
  EXPECT_TRUE(loaded.has_quant_spec());
  EXPECT_TRUE(loaded.has_score_reference());

  ASSERT_TRUE(bare.SaveCheckpoint(path));
  ASSERT_TRUE(loaded.LoadCheckpoint(path));
  EXPECT_FALSE(loaded.has_quant_spec());
  EXPECT_FALSE(loaded.has_score_reference());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveBeforeFitDies) {
  TfmaeDetector detector(SmallConfig());
  EXPECT_DEATH(detector.SaveCheckpoint("/tmp/should_not_exist"), "Fit");
}

// ---------------------------------------------------------------------------
// Crash-safe training checkpoints.

data::TimeSeries TrainSeries() {
  data::BaseSignalConfig signal;
  signal.length = 400;
  signal.num_features = 2;
  signal.seed = 321;
  return data::GenerateBaseSignal(signal);
}

void CorruptByte(const std::string& path, std::size_t offset_from_end) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(file.tellg());
  ASSERT_GT(size, offset_from_end);
  const auto pos =
      static_cast<std::streamoff>(size - 1 - offset_from_end);
  file.seekg(pos);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(pos);
  file.write(&byte, 1);
}

TEST(TrainingCheckpointTest, InterruptedFitWritesValidCheckpoints) {
  const std::string dir = FreshDir("tfmae_tc_write");
  TfmaeDetector detector(SmallConfig());
  FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 4;
  options.max_steps = 10;
  detector.Fit(TrainSeries(), options);
  EXPECT_TRUE(detector.train_stats().interrupted);
  EXPECT_EQ(detector.train_stats().num_steps, 10);
  EXPECT_GE(detector.train_stats().checkpoints_written, 2);
  EXPECT_EQ(detector.train_stats().checkpoint_failures, 0);

  std::string error;
  const auto latest = FindLatestValidCheckpoint(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->second.progress.steps, 8);  // last multiple of 4 <= 10
  EXPECT_EQ(latest->second.num_features, 2);
  std::filesystem::remove_all(dir);
}

TEST(TrainingCheckpointTest, PruneKeepsOnlyNewest) {
  const std::string dir = FreshDir("tfmae_tc_prune");
  TfmaeDetector detector(SmallConfig());
  FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 2;
  options.keep_last = 2;
  options.max_steps = 12;
  detector.Fit(TrainSeries(), options);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_LE(files, 2u);
  std::filesystem::remove_all(dir);
}

// The acceptance bar of the resilience plane: kill training at an arbitrary
// step, resume from disk, and land on EXACTLY the weights and losses of the
// uninterrupted run — at 1, 2, and 4 threads (resume must also not break the
// thread-count invariance contract of DESIGN.md §7).
TEST(TrainingCheckpointTest, KillAndResumeIsBitwiseIdentical) {
  const data::TimeSeries train = TrainSeries();
  const int saved_threads = ThreadPool::Instance().num_threads();
  std::vector<std::string> weights_by_threads;
  for (int threads : {1, 2, 4}) {
    ThreadPool::Instance().SetNumThreads(threads);

    TfmaeDetector reference(SmallConfig());
    reference.Fit(train);
    const std::vector<char> expected =
        nn::EncodeParameters(*reference.model());

    const std::string dir =
        FreshDir("tfmae_tc_resume_" + std::to_string(threads));
    FitOptions interrupt;
    interrupt.checkpoint_dir = dir;
    interrupt.checkpoint_every = 3;
    interrupt.max_steps = 11;
    TfmaeDetector killed(SmallConfig());
    killed.Fit(train, interrupt);
    ASSERT_TRUE(killed.train_stats().interrupted);

    FitOptions resume_options;
    resume_options.checkpoint_dir = dir;
    TfmaeDetector resumed(SmallConfig());
    ASSERT_TRUE(resumed.Resume(train, resume_options));
    EXPECT_EQ(resumed.train_stats().resumed_at_step, 9);
    EXPECT_FALSE(resumed.train_stats().interrupted);

    const std::vector<char> actual = nn::EncodeParameters(*resumed.model());
    EXPECT_TRUE(actual == expected)
        << "resumed weights diverge from the uninterrupted run at "
        << threads << " thread(s)";
    EXPECT_EQ(resumed.train_stats().mean_loss_last_epoch,
              reference.train_stats().mean_loss_last_epoch);
    EXPECT_EQ(resumed.train_stats().mean_loss_first_epoch,
              reference.train_stats().mean_loss_first_epoch);
    EXPECT_EQ(resumed.train_stats().num_steps,
              reference.train_stats().num_steps);
    weights_by_threads.emplace_back(expected.begin(), expected.end());
    std::filesystem::remove_all(dir);
  }
  ThreadPool::Instance().SetNumThreads(saved_threads);
  // And the whole exercise is thread-count invariant.
  EXPECT_EQ(weights_by_threads[0], weights_by_threads[1]);
  EXPECT_EQ(weights_by_threads[0], weights_by_threads[2]);
}

TEST(TrainingCheckpointTest, CorruptNewestFallsBackToPreviousCheckpoint) {
  const data::TimeSeries train = TrainSeries();
  const std::string dir = FreshDir("tfmae_tc_fallback");
  FitOptions interrupt;
  interrupt.checkpoint_dir = dir;
  interrupt.checkpoint_every = 3;
  interrupt.keep_last = 4;
  interrupt.max_steps = 11;
  TfmaeDetector killed(SmallConfig());
  killed.Fit(train, interrupt);

  // A torn write of the newest checkpoint (flip one byte near the CRC
  // trailer) must fall back to the previous one and still land bitwise on
  // the uninterrupted run.
  CorruptByte(TrainingCheckpointPath(dir, 9), 2);
  std::string error;
  const auto latest = FindLatestValidCheckpoint(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->second.progress.steps, 6);

  TfmaeDetector reference(SmallConfig());
  reference.Fit(train);
  FitOptions resume_options;
  resume_options.checkpoint_dir = dir;
  TfmaeDetector resumed(SmallConfig());
  ASSERT_TRUE(resumed.Resume(train, resume_options));
  EXPECT_EQ(resumed.train_stats().resumed_at_step, 6);
  EXPECT_TRUE(nn::EncodeParameters(*resumed.model()) ==
              nn::EncodeParameters(*reference.model()));
  std::filesystem::remove_all(dir);
}

TEST(TrainingCheckpointTest, RejectsTruncationFlipMagicAndVersion) {
  const std::string dir = FreshDir("tfmae_tc_corrupt");
  TfmaeDetector detector(SmallConfig());
  FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 4;
  options.max_steps = 4;
  detector.Fit(TrainSeries(), options);
  const std::string path = TrainingCheckpointPath(dir, 4);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);

  const auto rewrite = [&](std::vector<char> contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  };
  std::string error;

  // Truncated mid-file.
  rewrite({bytes.begin(), bytes.begin() + static_cast<long>(bytes.size()) / 2});
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());

  // Flipped byte inside a section payload.
  std::vector<char> flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 4);
  rewrite(flipped);
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());

  // Wrong magic / wrong version: fix up the trailer CRC after tampering so
  // the header validation itself (not the checksum) is what rejects.
  const auto fix_trailer_crc = [](std::vector<char>* contents) {
    const std::uint32_t crc = util::Crc32(
        contents->data(), contents->size() - sizeof(std::uint32_t));
    std::memcpy(contents->data() + contents->size() - sizeof(crc), &crc,
                sizeof(crc));
  };
  std::vector<char> magic = bytes;
  magic[0] = 'Z';
  fix_trailer_crc(&magic);
  rewrite(magic);
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Unsupported container version (bytes 8..11 hold the version word).
  std::vector<char> version = bytes;
  version[8] = 99;
  fix_trailer_crc(&version);
  rewrite(version);
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  rewrite(bytes);  // pristine copy loads again
  EXPECT_TRUE(LoadTrainingCheckpoint(path, &error).has_value()) << error;
  std::filesystem::remove_all(dir);
}

TEST(TrainingCheckpointTest, ResumeRefusesMismatchedArchitectureOrData) {
  const data::TimeSeries train = TrainSeries();
  const std::string dir = FreshDir("tfmae_tc_mismatch");
  FitOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 4;
  options.max_steps = 8;
  TfmaeDetector killed(SmallConfig());
  killed.Fit(train, options);

  // Different architecture (config CRC differs).
  TfmaeConfig other = SmallConfig();
  other.model_dim = 32;
  TfmaeDetector wrong_arch(other);
  FitOptions resume_options;
  resume_options.checkpoint_dir = dir;
  EXPECT_FALSE(wrong_arch.Resume(train, resume_options));

  // Different data shape (feature count differs).
  data::BaseSignalConfig narrow;
  narrow.length = 400;
  narrow.num_features = 1;
  narrow.seed = 321;
  TfmaeDetector wrong_data(SmallConfig());
  EXPECT_FALSE(
      wrong_data.Resume(data::GenerateBaseSignal(narrow), resume_options));

  // Empty directory: nothing to resume from.
  const std::string empty = FreshDir("tfmae_tc_empty");
  FitOptions empty_options;
  empty_options.checkpoint_dir = empty;
  TfmaeDetector nothing(SmallConfig());
  EXPECT_FALSE(nothing.Resume(train, empty_options));

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(empty);
}

}  // namespace
}  // namespace tfmae::core
