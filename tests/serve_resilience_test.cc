// Serving resilience suite (docs/RESILIENCE.md, "Serving resilience").
//
// The load-bearing claim: a FleetServer killed mid-run, rebuilt from its
// newest valid snapshot, and re-fed each stream's rows from total_pushed()
// on produces scores BITWISE-identical to an uninterrupted run — at 1/2/4
// threads, including across a corrupted-newest-snapshot fallback, and
// including windows that were queued but unscored when the snapshot was
// cut. Everything else here pins the rest of the resilience plane: typed
// overload shedding (drop-oldest victims are observable, block-deadline
// self-services the backlog), the sticky degraded-mode latch, the drain
// latch under concurrent producers, the scoring watchdog, and the
// serve.push / serve.score / serve.snapshot_write fault points.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/streaming.h"
#include "serve/fleet_server.h"
#include "serve/fleet_snapshot.h"
#include "util/checkpoint_file.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tfmae::serve {
namespace {

constexpr std::int64_t kWindow = 16;
constexpr std::int64_t kFeatures = 2;

core::TfmaeConfig TestConfig() {
  core::TfmaeConfig config;
  config.window = kWindow;
  config.stride = kWindow;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 1;
  config.seed = 11;
  return config;
}

// One fitted detector shared by every test in the suite (training once
// keeps the suite fast; all tests treat it as read-only).
core::TfmaeDetector* SharedDetector() {
  static core::TfmaeDetector* detector = [] {
    auto* d = new core::TfmaeDetector(TestConfig());
    data::TimeSeries train;
    train.length = 256;
    train.num_features = kFeatures;
    train.values.resize(
        static_cast<std::size_t>(train.length * train.num_features));
    for (std::int64_t t = 0; t < train.length; ++t) {
      for (std::int64_t f = 0; f < kFeatures; ++f) {
        train.values[static_cast<std::size_t>(t * kFeatures + f)] =
            std::sin(0.19 * static_cast<double>(t) +
                     0.7 * static_cast<double>(f)) +
            0.05 * std::cos(0.83 * static_cast<double>(t));
      }
    }
    d->Fit(train);
    return d;
  }();
  return detector;
}

std::vector<float> RowFor(std::int64_t stream, std::int64_t t) {
  std::vector<float> row(static_cast<std::size_t>(kFeatures));
  for (std::int64_t f = 0; f < kFeatures; ++f) {
    row[static_cast<std::size_t>(f)] = static_cast<float>(
        std::sin(0.19 * static_cast<double>(t + 3 * stream) +
                 0.7 * static_cast<double>(f)) +
        0.01 * static_cast<double>(stream % 5));
  }
  return row;
}

core::StreamingOptions TestStreaming() {
  core::StreamingOptions options;
  options.window = kWindow;
  options.hop = 3;
  return options;
}

std::uint32_t BitsOf(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// (stream, seq) -> float32 score bits. The unit of the union-of-runs
// equality: a window's identity is the push that triggered it, its value
// the exact bits the model emitted.
using ScoreMap = std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t>;

// Folds a TakeResults batch into `map`. Duplicate keys (a window scored in
// both the crashed and the resumed run) are legal but must agree bitwise.
void MergeResults(const std::vector<ScoredWindow>& results, ScoreMap* map) {
  for (const ScoredWindow& r : results) {
    if (r.shed) continue;
    const auto key = std::make_pair(r.stream, r.seq);
    const std::uint32_t bits = BitsOf(r.score);
    auto [it, inserted] = map->insert({key, bits});
    if (!inserted) {
      EXPECT_EQ(it->second, bits)
          << "stream " << r.stream << " seq " << r.seq
          << " scored differently in two runs";
    }
  }
}

// Reference: the per-(stream, seq) score bits a sequential per-stream
// StreamingDetector emits over `rows` pushes — exactly the windows the
// fleet server enqueues (same cadence rule as StreamState).
ScoreMap SequentialReferenceMap(std::int64_t streams, std::int64_t rows) {
  ScoreMap reference;
  for (std::int64_t s = 0; s < streams; ++s) {
    core::StreamingDetector stream(SharedDetector(), TestStreaming());
    std::int64_t since = 0;
    bool scored_once = false;
    for (std::int64_t t = 0; t < rows; ++t) {
      const auto r = stream.Push(RowFor(s, t));
      if (!r.has_value()) continue;
      ++since;
      if (since >= TestStreaming().hop || !scored_once) {
        reference[{s, t}] = BitsOf(r->score);
        scored_once = true;
        since = 0;
      }
    }
  }
  return reference;
}

// Feeds ticks [from, to) across all streams (tick-major, matching how the
// soak driver replays), folding results into `map` after every tick.
void FeedTicks(FleetServer* server, const std::vector<std::int64_t>& ids,
               std::int64_t from, std::int64_t to, ScoreMap* map) {
  for (std::int64_t t = from; t < to; ++t) {
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(ids.size()); ++s) {
      AdmitStatus status =
          server->Push(ids[static_cast<std::size_t>(s)], RowFor(s, t));
      int guard = 0;
      while (status == AdmitStatus::kOverloaded && ++guard < 64) {
        server->Flush();
        status = server->Push(ids[static_cast<std::size_t>(s)], RowFor(s, t));
      }
      ASSERT_NE(status, AdmitStatus::kOverloaded);
      ASSERT_NE(status, AdmitStatus::kRejectedRow);
    }
    if (map != nullptr) MergeResults(server->TakeResults(), map);
  }
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Flips one byte in the middle of a file — the torn/bit-rotted newest
// snapshot the fallback walk must reject as a unit.
void CorruptFile(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 32);
  const std::streamoff at = size / 2;
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(at);
  f.write(&byte, 1);
}

// ---- Tentpole: kill / restore / re-feed == uninterrupted, bitwise --------

TEST(FleetSnapshotRestoreTest, RestoredRunBitwiseEqualsUninterruptedAt124) {
  const std::int64_t kStreams = 5;
  const std::int64_t kRows = 60;
  const std::int64_t kCut = 33;   // mid-hop, so pending windows exist
  const std::int64_t kLost = 7;   // post-snapshot work the "crash" loses
  const ScoreMap reference = SequentialReferenceMap(kStreams, kRows);
  ASSERT_FALSE(reference.empty());

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::Instance().SetNumThreads(threads);
    const std::string dir =
        FreshDir("tfmae_resilience_t" + std::to_string(threads));

    FleetOptions options;
    options.streaming = TestStreaming();
    options.batch_max = 4;
    options.snapshot_dir = dir;

    // Run 1: ingest to the cut, snapshot, then keep going — and "crash"
    // before any of the post-snapshot results are taken. Everything after
    // the snapshot must be regenerated by the resumed run.
    ScoreMap crash_map;
    {
      FleetServer server(SharedDetector(), options);
      std::vector<std::int64_t> ids;
      for (std::int64_t s = 0; s < kStreams; ++s) {
        ids.push_back(server.OpenStream());
      }
      FeedTicks(&server, ids, 0, kCut, &crash_map);
      std::string error;
      ASSERT_TRUE(server.SnapshotNow(&error)) << error;
      EXPECT_EQ(server.snapshot_index(), 1);
      FeedTicks(&server, ids, kCut, kCut + kLost, nullptr);
      // Destructor drains; its results are never observed — the crash.
    }

    // Run 2: fresh server, newest valid snapshot, re-feed the tail from
    // each stream's recorded position.
    std::string error;
    auto found = FindLatestValidFleetSnapshot(dir, &error);
    ASSERT_TRUE(found.has_value()) << error;
    FleetServer resumed(SharedDetector(), options);
    ASSERT_TRUE(resumed.Restore(found->second, &error)) << error;
    ASSERT_EQ(resumed.num_streams(), kStreams);
    EXPECT_EQ(resumed.stats().rows_pushed, kStreams * kCut);
    std::vector<std::int64_t> ids;
    for (std::int64_t s = 0; s < kStreams; ++s) {
      ids.push_back(s);
      ASSERT_EQ(resumed.total_pushed(s), kCut) << "stream " << s;
    }
    ScoreMap resume_map;
    FeedTicks(&resumed, ids, kCut, kRows, &resume_map);
    resumed.Drain();
    MergeResults(resumed.TakeResults(), &resume_map);

    // union(crashed, resumed) == uninterrupted reference, key for key and
    // bit for bit. MergeResults already pinned duplicate agreement.
    ScoreMap combined = crash_map;
    for (const auto& [key, bits] : resume_map) {
      auto [it, inserted] = combined.insert({key, bits});
      if (!inserted) {
        EXPECT_EQ(it->second, bits)
            << "stream " << key.first << " seq " << key.second
            << " disagrees between crashed and resumed runs";
      }
    }
    EXPECT_EQ(combined, reference);
  }
  ThreadPool::Instance().SetNumThreads(1);
}

TEST(FleetSnapshotRestoreTest, FallsBackPastCorruptedNewestSnapshot) {
  ThreadPool::Instance().SetNumThreads(1);
  const std::int64_t kStreams = 3;
  const std::int64_t kRows = 60;
  const ScoreMap reference = SequentialReferenceMap(kStreams, kRows);
  const std::string dir = FreshDir("tfmae_resilience_corrupt");

  FleetOptions options;
  options.streaming = TestStreaming();
  options.batch_max = 4;
  options.snapshot_dir = dir;

  ScoreMap crash_map;
  {
    FleetServer server(SharedDetector(), options);
    std::vector<std::int64_t> ids;
    for (std::int64_t s = 0; s < kStreams; ++s) {
      ids.push_back(server.OpenStream());
    }
    FeedTicks(&server, ids, 0, 20, &crash_map);
    std::string error;
    ASSERT_TRUE(server.SnapshotNow(&error)) << error;
    FeedTicks(&server, ids, 20, 40, &crash_map);
    ASSERT_TRUE(server.SnapshotNow(&error)) << error;
  }

  // Corrupt the newest snapshot: the walk must reject it (CRC) and fall
  // back to index 1, and the resumed run must still match bitwise.
  CorruptFile(FleetSnapshotPath(dir, 2));
  std::string error;
  EXPECT_FALSE(ReadFleetSnapshot(FleetSnapshotPath(dir, 2), &error).has_value());
  auto found = FindLatestValidFleetSnapshot(dir, &error);
  ASSERT_TRUE(found.has_value()) << error;
  EXPECT_EQ(found->first, FleetSnapshotPath(dir, 1));
  EXPECT_EQ(found->second.index, 1u);

  FleetServer resumed(SharedDetector(), options);
  ASSERT_TRUE(resumed.Restore(found->second, &error)) << error;
  std::vector<std::int64_t> ids;
  for (std::int64_t s = 0; s < kStreams; ++s) {
    ids.push_back(s);
    ASSERT_EQ(resumed.total_pushed(s), 20);
  }
  ScoreMap resume_map;
  FeedTicks(&resumed, ids, 20, kRows, &resume_map);
  resumed.Drain();
  MergeResults(resumed.TakeResults(), &resume_map);

  ScoreMap combined = crash_map;
  for (const auto& [key, bits] : resume_map) {
    auto [it, inserted] = combined.insert({key, bits});
    if (!inserted) {
      EXPECT_EQ(it->second, bits);
    }
  }
  EXPECT_EQ(combined, reference);
}

TEST(FleetSnapshotRestoreTest, PendingQueueIsCapturedAndRescoredOnRestore) {
  ThreadPool::Instance().SetNumThreads(1);
  const std::int64_t kStreams = 2;
  const std::int64_t kRows = 25;
  const ScoreMap reference = SequentialReferenceMap(kStreams, kRows);
  const std::string dir = FreshDir("tfmae_resilience_pending");

  FleetOptions options;
  options.streaming = TestStreaming();
  options.auto_flush = false;  // windows accumulate: the snapshot must carry
  options.snapshot_dir = dir;  // the whole unscored backlog

  {
    FleetServer server(SharedDetector(), options);
    std::vector<std::int64_t> ids;
    for (std::int64_t s = 0; s < kStreams; ++s) {
      ids.push_back(server.OpenStream());
    }
    FeedTicks(&server, ids, 0, kRows, nullptr);
    EXPECT_TRUE(server.TakeResults().empty());  // nothing flushed yet
    std::string error;
    ASSERT_TRUE(server.SnapshotNow(&error)) << error;
  }

  std::string error;
  auto data = ReadFleetSnapshot(FleetSnapshotPath(dir, 1), &error);
  ASSERT_TRUE(data.has_value()) << error;
  EXPECT_EQ(data->pending.size(), reference.size());
  for (const PendingWindow& p : data->pending) {
    EXPECT_EQ(p.values.size(),
              static_cast<std::size_t>(kWindow * kFeatures));
    EXPECT_TRUE(reference.count({p.stream, p.seq}))
        << "unexpected pending window stream " << p.stream << " seq "
        << p.seq;
  }

  // Restore and drain WITHOUT pushing anything more: every score must come
  // from the re-enqueued pending windows alone.
  FleetServer resumed(SharedDetector(), options);
  ASSERT_TRUE(resumed.Restore(*data, &error)) << error;
  resumed.Drain();
  ScoreMap scores;
  MergeResults(resumed.TakeResults(), &scores);
  EXPECT_EQ(scores, reference);
}

TEST(FleetSnapshotRestoreTest, RestoreRejectsMismatchedServerOrSnapshot) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = TestStreaming();

  FleetSnapshotData data;
  {
    FleetServer server(SharedDetector(), options);
    const std::int64_t id = server.OpenStream();
    ScoreMap scratch;
    FeedTicks(&server, {id}, 0, 20, &scratch);
    const std::string dir = FreshDir("tfmae_resilience_mismatch");
    FleetOptions with_dir = options;
    with_dir.snapshot_dir = dir;
    FleetServer snap_server(SharedDetector(), with_dir);
    (void)snap_server.OpenStream();
    std::string error;
    ASSERT_TRUE(snap_server.SnapshotNow(&error)) << error;
    auto read = ReadFleetSnapshot(FleetSnapshotPath(dir, 1), &error);
    ASSERT_TRUE(read.has_value()) << error;
    data = *read;
  }

  // Not fresh: a server that already opened streams must refuse.
  {
    FleetServer server(SharedDetector(), options);
    (void)server.OpenStream();
    std::string error;
    EXPECT_FALSE(server.Restore(data, &error));
    EXPECT_FALSE(error.empty());
  }
  // Streaming-options mismatch (hop cadence is part of the state's meaning).
  {
    FleetOptions other = options;
    other.streaming.hop = TestStreaming().hop + 1;
    FleetServer server(SharedDetector(), other);
    std::string error;
    EXPECT_FALSE(server.Restore(data, &error));
    EXPECT_FALSE(error.empty());
  }
  // Config CRC mismatch (wrong model for this snapshot).
  {
    FleetSnapshotData tampered = data;
    tampered.config_crc ^= 0xDEADBEEFu;
    FleetServer server(SharedDetector(), options);
    std::string error;
    EXPECT_FALSE(server.Restore(tampered, &error));
    EXPECT_FALSE(error.empty());
  }
  // A valid restore still works after all those rejections.
  {
    FleetServer server(SharedDetector(), options);
    std::string error;
    EXPECT_TRUE(server.Restore(data, &error)) << error;
  }
}

TEST(FleetSnapshotFileTest, PathFormatPruneAndLatestWalk) {
  EXPECT_EQ(FleetSnapshotPath("/tmp/x", 7), "/tmp/x/fleet_00000007.tfmae");

  const std::string dir = FreshDir("tfmae_resilience_prune");
  std::filesystem::create_directories(dir);
  FleetSnapshotData data;
  data.streaming = TestStreaming();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    data.index = i;
    std::string error;
    ASSERT_TRUE(WriteFleetSnapshot(data, FleetSnapshotPath(dir, i), &error))
        << error;
  }
  PruneFleetSnapshots(dir, 2);
  EXPECT_FALSE(std::filesystem::exists(FleetSnapshotPath(dir, 3)));
  EXPECT_TRUE(std::filesystem::exists(FleetSnapshotPath(dir, 4)));
  EXPECT_TRUE(std::filesystem::exists(FleetSnapshotPath(dir, 5)));

  std::string error;
  auto found = FindLatestValidFleetSnapshot(dir, &error);
  ASSERT_TRUE(found.has_value()) << error;
  EXPECT_EQ(found->second.index, 5u);

  // Empty / missing directory: clean nullopt, not a crash.
  EXPECT_FALSE(
      FindLatestValidFleetSnapshot(dir + "_does_not_exist", &error).has_value());
}

// ---- StreamState codec: a decoded stream continues bitwise-identically ---

TEST(StreamStateCodecTest, DecodedStreamContinuesBitwiseIdentically) {
  core::StreamingOptions options;
  options.window = 8;
  options.hop = 3;
  options.impute_staleness_cap = 2;

  core::StreamState original(options);
  for (std::int64_t t = 0; t < 13; ++t) {
    std::vector<float> row = {static_cast<float>(t) * 0.5f,
                              std::sin(static_cast<float>(t))};
    if (t == 9) row[0] = std::nanf("");  // exercise LOCF repair state
    const auto outcome = original.Absorb(row);
    if (outcome.rescore_due) {
      original.CommitRescore(0.25f * static_cast<float>(t));
    }
  }
  original.set_threshold(1.5f);

  util::ByteWriter writer;
  original.EncodeTo(&writer);
  const std::vector<char> payload = writer.Take();

  core::StreamState decoded(options);
  util::ByteReader reader(payload.data(), payload.size());
  ASSERT_TRUE(decoded.DecodeFrom(&reader));
  ASSERT_TRUE(reader.AtEnd());

  EXPECT_EQ(decoded.total_pushed(), original.total_pushed());
  EXPECT_EQ(decoded.buffered_rows(), original.buffered_rows());
  EXPECT_EQ(decoded.threshold(), original.threshold());
  EXPECT_EQ(BitsOf(decoded.last_tail_score()),
            BitsOf(original.last_tail_score()));

  // Continue both with the same tail (including another repair) — every
  // outcome and the full window contents must stay identical.
  for (std::int64_t t = 13; t < 30; ++t) {
    std::vector<float> row = {static_cast<float>(t) * 0.5f,
                              std::sin(static_cast<float>(t))};
    if (t == 17) row[1] = std::nanf("");
    const auto a = original.Absorb(row);
    const auto b = decoded.Absorb(std::move(row));
    ASSERT_EQ(a.status, b.status) << "t=" << t;
    ASSERT_EQ(a.rescore_due, b.rescore_due) << "t=" << t;
    ASSERT_EQ(a.fresh, b.fresh) << "t=" << t;
    ASSERT_EQ(a.imputed_values, b.imputed_values) << "t=" << t;
    if (a.rescore_due) {
      const float score = 0.25f * static_cast<float>(t);
      original.CommitRescore(score);
      decoded.CommitRescore(score);
    }
  }
  ASSERT_EQ(original.window().size(), decoded.window().size());
  for (std::size_t i = 0; i < original.window().size(); ++i) {
    EXPECT_EQ(BitsOf(original.window()[i]), BitsOf(decoded.window()[i]))
        << "window value " << i;
  }
  EXPECT_EQ(original.health().rows_imputed, decoded.health().rows_imputed);
  EXPECT_EQ(original.health().values_imputed, decoded.health().values_imputed);
  EXPECT_EQ(original.health().rows_scored, decoded.health().rows_scored);

  // Truncated payloads are rejected, not misread.
  for (const std::size_t cut : {payload.size() / 2, payload.size() - 1}) {
    core::StreamState fresh(options);
    util::ByteReader short_reader(payload.data(), cut);
    EXPECT_FALSE(fresh.DecodeFrom(&short_reader)) << "cut=" << cut;
  }
}

// ---- Shedding, degraded mode, drain --------------------------------------

core::StreamingOptions HopOneStreaming() {
  core::StreamingOptions options;
  options.window = kWindow;
  options.hop = 1;  // every warm push is rescore-due: easy queue pressure
  return options;
}

TEST(FleetShedTest, DropOldestEvictsOldestAndPublishesShedMarkers) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = HopOneStreaming();
  options.queue_capacity = 4;
  options.auto_flush = false;
  options.shed_policy = ShedPolicy::kDropOldest;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  // 16 warm-up pushes enqueue the first window (seq 15); 8 more enqueue
  // seqs 16..23. Capacity 4 => the 5 oldest (15..19) are evicted.
  for (std::int64_t t = 0; t < 24; ++t) {
    const AdmitStatus status = server.Push(id, RowFor(0, t));
    ASSERT_NE(status, AdmitStatus::kOverloaded) << "t=" << t;
  }
  EXPECT_EQ(server.stats().shed_dropped, 5);
  EXPECT_EQ(server.stats().rows_pushed, 24);  // drop-oldest consumes the row

  std::vector<ScoredWindow> shed;
  for (const ScoredWindow& r : server.TakeResults()) {
    ASSERT_TRUE(r.shed);  // nothing scored yet: only victims are visible
    shed.push_back(r);
  }
  ASSERT_EQ(shed.size(), 5u);
  for (std::size_t i = 0; i < shed.size(); ++i) {
    EXPECT_EQ(shed[i].stream, id);
    EXPECT_EQ(shed[i].seq, 15 + static_cast<std::int64_t>(i));
  }

  // The survivors (the 4 newest) still score normally.
  EXPECT_EQ(server.Flush(), 4);
  std::vector<std::int64_t> scored_seqs;
  for (const ScoredWindow& r : server.TakeResults()) {
    EXPECT_FALSE(r.shed);
    scored_seqs.push_back(r.seq);
  }
  EXPECT_EQ(scored_seqs, (std::vector<std::int64_t>{20, 21, 22, 23}));
}

TEST(FleetShedTest, BlockDeadlineSelfServicesTheBacklog) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = HopOneStreaming();
  options.queue_capacity = 2;
  options.auto_flush = false;
  options.shed_policy = ShedPolicy::kBlockDeadline;
  options.shed_deadline_ms = 1000;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  // The caller never flushes; admission flushes for it. No push may fail.
  for (std::int64_t t = 0; t < 30; ++t) {
    ASSERT_NE(server.Push(id, RowFor(0, t)), AdmitStatus::kOverloaded)
        << "t=" << t;
  }
  server.Drain();
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.rows_overloaded, 0);
  EXPECT_EQ(stats.shed_deadline_expired, 0);
  EXPECT_EQ(stats.windows_scored, 15);  // seqs 15..29, hop 1
  EXPECT_EQ(stats.windows_enqueued, stats.windows_scored);
}

TEST(FleetShedTest, DegradedModeLatchesAndStaysSticky) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = HopOneStreaming();
  options.queue_capacity = 2;
  options.auto_flush = false;
  options.shed_policy = ShedPolicy::kRejectNew;
  options.degraded_after = 3;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  for (std::int64_t t = 0; t < 17; ++t) {  // fills the queue (seqs 15, 16)
    ASSERT_NE(server.Push(id, RowFor(0, t)), AdmitStatus::kOverloaded);
  }
  EXPECT_FALSE(server.degraded());
  for (int strike = 0; strike < 3; ++strike) {
    EXPECT_EQ(server.Push(id, RowFor(0, 17)), AdmitStatus::kOverloaded);
  }
  EXPECT_TRUE(server.degraded());
  EXPECT_TRUE(server.stats().degraded);

  // Recovery does not clear the latch: it marks "this run saturated once".
  server.Flush();
  EXPECT_NE(server.Push(id, RowFor(0, 17)), AdmitStatus::kOverloaded);
  EXPECT_TRUE(server.degraded());
}

TEST(FleetDrainTest, DrainLatchesAgainstConcurrentProducers) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = TestStreaming();
  options.batch_max = 8;
  FleetServer server(SharedDetector(), options);
  constexpr int kProducers = 4;
  std::vector<std::int64_t> ids;
  for (int s = 0; s < kProducers; ++s) ids.push_back(server.OpenStream());

  std::atomic<int> saw_draining{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int s = 0; s < kProducers; ++s) {
    producers.emplace_back([&, s] {
      for (std::int64_t t = 0; t < 2000000; ++t) {
        const AdmitStatus status =
            server.Push(ids[static_cast<std::size_t>(s)], RowFor(s, t));
        if (status == AdmitStatus::kDraining) {
          saw_draining.fetch_add(1);
          return;  // producer exits: the latch ends ingest, no livelock
        }
        if (status == AdmitStatus::kOverloaded) server.Flush();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Drain();
  for (auto& p : producers) p.join();

  EXPECT_EQ(saw_draining.load(), kProducers);
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.Push(ids[0], RowFor(0, 0)), AdmitStatus::kDraining);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.windows_scored, stats.windows_enqueued);  // nothing dropped
  EXPECT_GT(stats.rows_pushed, 0);
}

// ---- Fault-gated: serve.push / serve.score / serve.snapshot_write --------

TEST(FleetFaultTest, InjectedPushFaultIsRetryable) {
  ThreadPool::Instance().SetNumThreads(1);
  fault::ScopedFaults faults("serve.push:#2");
  FleetOptions options;
  options.streaming = TestStreaming();
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  EXPECT_NE(server.Push(id, RowFor(0, 0)), AdmitStatus::kOverloaded);
  // The second check fires: the row must NOT be consumed...
  EXPECT_EQ(server.Push(id, RowFor(0, 1)), AdmitStatus::kOverloaded);
  EXPECT_EQ(server.total_pushed(id), 1);
  // ...and the same row retried verbatim goes through.
  EXPECT_NE(server.Push(id, RowFor(0, 1)), AdmitStatus::kOverloaded);
  EXPECT_EQ(server.total_pushed(id), 2);
  EXPECT_EQ(server.stats().rows_overloaded, 1);
}

TEST(FleetFaultTest, SnapshotWriteFaultLeavesPreviousSnapshotUsable) {
  ThreadPool::Instance().SetNumThreads(1);
  const std::string dir = FreshDir("tfmae_resilience_snapfault");
  FleetOptions options;
  options.streaming = TestStreaming();
  options.snapshot_dir = dir;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();
  ScoreMap scratch;
  FeedTicks(&server, {id}, 0, 20, &scratch);

  std::string error;
  ASSERT_TRUE(server.SnapshotNow(&error)) << error;
  {
    fault::ScopedFaults faults("serve.snapshot_write:#1");
    EXPECT_FALSE(server.SnapshotNow(&error));
    EXPECT_FALSE(error.empty());
  }
  EXPECT_EQ(server.stats().snapshots_failed, 1);
  EXPECT_EQ(server.stats().snapshots_written, 1);

  // The failed write consumed nothing durable: the previous snapshot is
  // still the newest valid one and still restores.
  auto found = FindLatestValidFleetSnapshot(dir, &error);
  ASSERT_TRUE(found.has_value()) << error;
  EXPECT_EQ(found->second.index, 1u);
  FleetServer resumed(SharedDetector(), options);
  EXPECT_TRUE(resumed.Restore(found->second, &error)) << error;
  EXPECT_EQ(resumed.total_pushed(0), 20);
}

TEST(FleetFaultTest, WatchdogFlagsAStalledBatch) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = HopOneStreaming();
  options.auto_flush = false;
  options.watchdog_stall_ms = 5;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();
  for (std::int64_t t = 0; t < 16; ++t) {
    ASSERT_NE(server.Push(id, RowFor(0, t)), AdmitStatus::kOverloaded);
  }

  {
    // serve.score stretches every batch ~50ms — 10x the stall budget.
    fault::ScopedFaults faults("serve.score:1.0");
    EXPECT_EQ(server.Flush(), 1);
  }
  EXPECT_GE(server.stats().watchdog_stalls, 1);
}

TEST(FleetFaultTest, BlockDeadlineExpiresWhileScoringIsStalled) {
  ThreadPool::Instance().SetNumThreads(1);
  FleetOptions options;
  options.streaming = HopOneStreaming();
  options.queue_capacity = 1;
  options.auto_flush = false;
  options.shed_policy = ShedPolicy::kBlockDeadline;
  options.shed_deadline_ms = 10;
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();
  for (std::int64_t t = 0; t < 16; ++t) {  // enqueues seq 15 (queue 1/1)
    ASSERT_NE(server.Push(id, RowFor(0, t)), AdmitStatus::kOverloaded);
  }

  fault::ScopedFaults faults("serve.score:1.0");
  // A background Flush holds the scorer for ~50ms; the pushing thread
  // cannot self-service past a busy scorer and must give up at the
  // deadline instead of blocking forever.
  std::thread scorer([&server] { server.Flush(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_NE(server.Push(id, RowFor(0, 16)), AdmitStatus::kOverloaded);
  const AdmitStatus status = server.Push(id, RowFor(0, 17));
  scorer.join();
  EXPECT_EQ(status, AdmitStatus::kOverloaded);
  EXPECT_GE(server.stats().shed_deadline_expired, 1);
}

}  // namespace
}  // namespace tfmae::serve
