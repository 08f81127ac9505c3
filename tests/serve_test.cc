// Fleet-server determinism suite (docs/SERVING.md).
//
// The load-bearing claim: batched cross-stream scoring through per-lane
// inference-plan replicas is BITWISE-identical to driving one sequential
// StreamingDetector per stream against the same shared detector — at 1/2/4
// threads, under any push interleaving, flush timing, or concurrent ingest.
// Everything else here (backpressure, drain-loses-nothing, health parity,
// ApproxBytes) pins the serving contracts of docs/SERVING.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/streaming.h"
#include "serve/fleet_server.h"
#include "util/thread_pool.h"

namespace tfmae::serve {
namespace {

constexpr std::int64_t kWindow = 16;
// Not a power of two: its frequency masks run Bluestein's FFT and the
// length caches of src/fft and src/masking.
constexpr std::int64_t kBluesteinWindow = 20;
constexpr std::int64_t kFeatures = 2;

core::TfmaeConfig TestConfig(std::int64_t window = kWindow) {
  core::TfmaeConfig config;
  config.window = window;
  config.stride = window;
  config.model_dim = 16;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ff_hidden = 32;
  config.epochs = 1;
  config.seed = 11;
  return config;
}

// One fitted detector per window length, shared by every test in the suite
// (training once keeps the suite fast; all tests treat it as read-only).
// The map is never destroyed, so the detectors stay reachable at exit and
// LeakSanitizer does not report them.
core::TfmaeDetector* SharedDetector(std::int64_t window = kWindow) {
  static std::mutex mu;
  static auto* const detectors =
      new std::map<std::int64_t, core::TfmaeDetector*>();
  std::lock_guard<std::mutex> lock(mu);
  core::TfmaeDetector*& detector = (*detectors)[window];
  if (detector == nullptr) {
    auto* d = new core::TfmaeDetector(TestConfig(window));
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
    detector = d;
  }
  return detector;
}

// Deterministic per-stream telemetry row.
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

core::StreamingOptions TestStreaming(std::int64_t window = kWindow) {
  core::StreamingOptions options;
  options.window = window;
  options.hop = 3;
  return options;
}

// Reference: per-stream rescore-score sequences from the synchronous
// sequential wrapper (one StreamingDetector per stream, shared detector).
// Returns scores[stream] in push order, rescore pushes only — exactly the
// windows the fleet server enqueues.
std::vector<std::vector<float>> SequentialReference(
    std::int64_t streams, std::int64_t rows, std::int64_t window = kWindow) {
  std::vector<std::vector<float>> scores(
      static_cast<std::size_t>(streams));
  for (std::int64_t s = 0; s < streams; ++s) {
    core::StreamingDetector stream(SharedDetector(window),
                                   TestStreaming(window));
    std::int64_t since = 0;
    bool scored_once = false;
    for (std::int64_t t = 0; t < rows; ++t) {
      const auto r = stream.Push(RowFor(s, t));
      if (!r.has_value()) continue;
      ++since;
      if (since >= TestStreaming().hop || !scored_once) {
        // This push triggered a rescore (same cadence rule as StreamState).
        scores[static_cast<std::size_t>(s)].push_back(r->score);
        scored_once = true;
        since = 0;
      }
    }
  }
  return scores;
}

// Collects the fleet server's async per-stream score sequences.
std::vector<std::vector<float>> CollectScores(FleetServer* server,
                                              std::int64_t streams) {
  std::vector<std::vector<ScoredWindow>> by_stream(
      static_cast<std::size_t>(streams));
  for (const ScoredWindow& r : server->TakeResults()) {
    by_stream[static_cast<std::size_t>(r.stream)].push_back(r);
  }
  std::vector<std::vector<float>> scores(static_cast<std::size_t>(streams));
  for (std::int64_t s = 0; s < streams; ++s) {
    auto& list = by_stream[static_cast<std::size_t>(s)];
    // Per-stream results must already be in push order regardless of batch
    // composition; sort by seq only to make the check independent of it.
    std::vector<std::int64_t> seqs;
    for (const auto& r : list) seqs.push_back(r.seq);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()))
        << "stream " << s << " results out of push order";
    for (const auto& r : list) {
      scores[static_cast<std::size_t>(s)].push_back(r.score);
    }
  }
  return scores;
}

TEST(FleetServeTest, BatchedScoresBitwiseEqualSequentialAt124Threads) {
  const std::int64_t kStreams = 6;
  const std::int64_t kRows = 40;
  for (const std::int64_t window : {kWindow, kBluesteinWindow}) {
    const auto reference = SequentialReference(kStreams, kRows, window);
    for (const int threads : {1, 2, 4}) {
      ThreadPool::Instance().SetNumThreads(threads);
      FleetOptions options;
      options.streaming = TestStreaming(window);
      options.batch_max = 4;
      FleetServer server(SharedDetector(window), options);
      std::vector<std::int64_t> ids;
      for (std::int64_t s = 0; s < kStreams; ++s) {
        ids.push_back(server.OpenStream());
      }
      for (std::int64_t t = 0; t < kRows; ++t) {
        for (std::int64_t s = 0; s < kStreams; ++s) {
          const AdmitStatus status = server.Push(ids[s], RowFor(s, t));
          ASSERT_NE(status, AdmitStatus::kOverloaded);
        }
      }
      server.Drain();
      const auto scores = CollectScores(&server, kStreams);
      for (std::int64_t s = 0; s < kStreams; ++s) {
        ASSERT_EQ(scores[s].size(), reference[s].size())
            << "window=" << window << " threads=" << threads
            << " stream=" << s;
        for (std::size_t i = 0; i < scores[s].size(); ++i) {
          // Bitwise, not approximate: batching must not change a single ULP.
          EXPECT_EQ(scores[s][i], reference[s][i])
              << "window=" << window << " threads=" << threads
              << " stream=" << s << " i=" << i;
        }
      }
      EXPECT_GT(server.stats().batches, 0);
    }
  }
  ThreadPool::Instance().SetNumThreads(1);
}

TEST(FleetServeTest, InterleavedPushOrdersYieldIdenticalScores) {
  const std::int64_t kStreams = 5;
  const std::int64_t kRows = 30;
  const auto reference = SequentialReference(kStreams, kRows);

  // Three interleavings of the same per-stream timelines, with different
  // flush cadences. Per-stream score sequences must be identical in all.
  for (const int ordering : {0, 1, 2}) {
    FleetOptions options;
    options.streaming = TestStreaming();
    options.batch_max = 3;
    options.auto_flush = ordering != 1;  // exercise explicit-flush paths too
    FleetServer server(SharedDetector(), options);
    for (std::int64_t s = 0; s < kStreams; ++s) server.OpenStream();

    if (ordering == 0) {
      // Tick-major, reverse stream order inside a tick.
      for (std::int64_t t = 0; t < kRows; ++t) {
        for (std::int64_t s = kStreams - 1; s >= 0; --s) {
          ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
        }
      }
    } else if (ordering == 1) {
      // Stream-major chunks with mid-stream flushes.
      for (std::int64_t s = 0; s < kStreams; ++s) {
        for (std::int64_t t = 0; t < kRows; ++t) {
          ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
          if (t % 7 == 0) server.Flush();
        }
      }
    } else {
      // Uneven progress: odd streams run ahead, then evens catch up.
      for (std::int64_t t = 0; t < kRows; ++t) {
        for (std::int64_t s = 1; s < kStreams; s += 2) {
          ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
        }
      }
      for (std::int64_t t = 0; t < kRows; ++t) {
        for (std::int64_t s = 0; s < kStreams; s += 2) {
          ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
        }
      }
    }
    server.Drain();
    const auto scores = CollectScores(&server, kStreams);
    for (std::int64_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(scores[s].size(), reference[s].size())
          << "ordering=" << ordering << " stream=" << s;
      for (std::size_t i = 0; i < scores[s].size(); ++i) {
        EXPECT_EQ(scores[s][i], reference[s][i])
            << "ordering=" << ordering << " stream=" << s << " i=" << i;
      }
    }
  }
}

TEST(FleetServeTest, ConcurrentIngestIsDeterministic) {
  const std::int64_t kStreams = 12;
  const std::int64_t kRows = 30;
  const int kProducers = 4;
  const auto reference = SequentialReference(kStreams, kRows);

  ThreadPool::Instance().SetNumThreads(2);
  FleetOptions options;
  options.streaming = TestStreaming();
  options.batch_max = 4;
  options.queue_capacity = 8;  // small, to exercise overload-retry under load
  FleetServer server(SharedDetector(), options);
  for (std::int64_t s = 0; s < kStreams; ++s) server.OpenStream();

  // Each producer owns a disjoint set of streams (per-stream push order is
  // the caller's contract); producers run concurrently with auto-flush
  // batches and retry overloads by flushing themselves.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t t = 0; t < kRows; ++t) {
        for (std::int64_t s = p; s < kStreams; s += kProducers) {
          for (;;) {
            const AdmitStatus status = server.Push(s, RowFor(s, t));
            if (status != AdmitStatus::kOverloaded) break;
            server.Flush();
          }
        }
      }
    });
  }
  for (auto& thread : producers) thread.join();
  server.Drain();

  const auto scores = CollectScores(&server, kStreams);
  for (std::int64_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(scores[s].size(), reference[s].size()) << "stream=" << s;
    for (std::size_t i = 0; i < scores[s].size(); ++i) {
      EXPECT_EQ(scores[s][i], reference[s][i])
          << "stream=" << s << " i=" << i;
    }
  }
  ThreadPool::Instance().SetNumThreads(1);
}

TEST(FleetServeTest, BackpressureRefusesWithoutConsuming) {
  FleetOptions options;
  options.streaming = TestStreaming();
  options.queue_capacity = 2;
  options.batch_max = 2;
  options.auto_flush = false;  // let the queue actually fill
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  // Fill the first window, then keep pushing until admission refuses.
  std::int64_t t = 0;
  std::int64_t overload_at = -1;
  for (; t < 200; ++t) {
    const AdmitStatus status = server.Push(id, RowFor(0, t));
    if (status == AdmitStatus::kOverloaded) {
      overload_at = t;
      break;
    }
  }
  ASSERT_GE(overload_at, 0) << "queue never filled";
  const std::int64_t consumed = server.total_pushed(id);
  EXPECT_EQ(server.stats().rows_overloaded, 1);

  // The refused row was NOT consumed: re-pushing the SAME row after a flush
  // continues the stream exactly where it left off.
  EXPECT_GT(server.Flush(), 0);
  EXPECT_NE(server.Push(id, RowFor(0, overload_at)),
            AdmitStatus::kOverloaded);
  EXPECT_EQ(server.total_pushed(id), consumed + 1);

  // And the overall score sequence equals an overload-free run.
  for (t = overload_at + 1; t < 60; ++t) {
    for (;;) {
      if (server.Push(id, RowFor(0, t)) != AdmitStatus::kOverloaded) break;
      server.Flush();
    }
  }
  server.Drain();
  const auto reference = SequentialReference(1, 60);
  const auto scores = CollectScores(&server, 1);
  ASSERT_EQ(scores[0].size(), reference[0].size());
  for (std::size_t i = 0; i < scores[0].size(); ++i) {
    EXPECT_EQ(scores[0][i], reference[0][i]) << "i=" << i;
  }
}

TEST(FleetServeTest, DrainLosesNoAdmittedWindow) {
  FleetOptions options;
  options.streaming = TestStreaming();
  options.auto_flush = false;
  options.queue_capacity = 1024;
  options.batch_max = 5;  // deliberately not a divisor of the window count
  FleetServer server(SharedDetector(), options);
  const std::int64_t kStreams = 4;
  for (std::int64_t s = 0; s < kStreams; ++s) server.OpenStream();
  for (std::int64_t t = 0; t < 40; ++t) {
    for (std::int64_t s = 0; s < kStreams; ++s) {
      ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
    }
  }
  const std::int64_t enqueued = server.stats().windows_enqueued;
  ASSERT_GT(enqueued, 0);
  EXPECT_EQ(server.stats().windows_scored, 0);
  EXPECT_EQ(server.Drain(), enqueued);
  EXPECT_EQ(server.stats().windows_scored, enqueued);
  EXPECT_EQ(static_cast<std::int64_t>(server.TakeResults().size()), enqueued);
}

TEST(FleetServeTest, EagerModeMatchesSequentialToo) {
  // Plan disabled: the batcher's serial-eager fallback path must preserve
  // the same bitwise guarantee (eager == planned by the PR 6 contract).
  const auto reference = SequentialReference(3, 30);
  core::TfmaeDetector* detector = SharedDetector();
  const bool was_enabled = detector->inference_plan_enabled();
  detector->SetInferencePlanEnabled(false);
  FleetOptions options;
  options.streaming = TestStreaming();
  FleetServer server(detector, options);
  for (std::int64_t s = 0; s < 3; ++s) server.OpenStream();
  for (std::int64_t t = 0; t < 30; ++t) {
    for (std::int64_t s = 0; s < 3; ++s) {
      ASSERT_NE(server.Push(s, RowFor(s, t)), AdmitStatus::kOverloaded);
    }
  }
  server.Drain();
  detector->SetInferencePlanEnabled(was_enabled);
  const auto scores = CollectScores(&server, 3);
  EXPECT_GT(server.stats().eager_windows, 0);
  EXPECT_EQ(server.stats().plan_lanes, 0);
  for (std::int64_t s = 0; s < 3; ++s) {
    ASSERT_EQ(scores[s].size(), reference[s].size());
    for (std::size_t i = 0; i < scores[s].size(); ++i) {
      EXPECT_EQ(scores[s][i], reference[s][i]) << "s=" << s << " i=" << i;
    }
  }
}

TEST(FleetServeTest, HealthAndSyncResultsMatchSequentialInLockstep) {
  // Degraded rows (NaN holes + a wrong-arity record) flow through the same
  // StreamState the sequential wrapper uses: health counters and the
  // synchronous in-between-hop results must match under tick-lockstep
  // driving (Flush between ticks keeps committed scores current).
  core::StreamingDetector sequential(SharedDetector(), TestStreaming());
  FleetOptions options;
  options.streaming = TestStreaming();
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();

  for (std::int64_t t = 0; t < 50; ++t) {
    std::vector<float> row = RowFor(0, t);
    if (t > 0 && t % 11 == 0) {
      row[0] = std::numeric_limits<float>::quiet_NaN();  // imputed by LOCF
    }
    const auto expect = sequential.Push(row);
    core::StreamingResult got;
    const AdmitStatus status = server.Push(id, row, &got);
    ASSERT_NE(status, AdmitStatus::kOverloaded);
    server.Flush();
    if (status == AdmitStatus::kAccepted && expect.has_value()) {
      EXPECT_EQ(got.score, expect->score) << "t=" << t;
      EXPECT_EQ(got.degraded, expect->degraded) << "t=" << t;
      EXPECT_EQ(got.imputed_values, expect->imputed_values) << "t=" << t;
    }
  }
  // A wrong-arity record is refused by both.
  sequential.Push({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(server.Push(id, {1.0f, 2.0f, 3.0f}), AdmitStatus::kRejectedRow);

  const core::StreamHealth& a = sequential.health();
  const core::StreamHealth& b = server.health(id);
  EXPECT_EQ(a.rows_scored, b.rows_scored);
  EXPECT_EQ(a.rows_warmup, b.rows_warmup);
  EXPECT_EQ(a.rows_imputed, b.rows_imputed);
  EXPECT_EQ(a.rows_quarantined, b.rows_quarantined);
  EXPECT_EQ(a.rows_rejected, b.rows_rejected);
  EXPECT_EQ(a.values_imputed, b.values_imputed);
}

TEST(FleetServeTest, ApproxBytesAccountsPerStreamFootprint) {
  FleetOptions options;
  options.streaming = TestStreaming();
  FleetServer server(SharedDetector(), options);
  const std::int64_t id = server.OpenStream();
  for (std::int64_t t = 0; t < kWindow + 4; ++t) {
    server.Push(id, RowFor(0, t));
  }
  server.Drain();
  const std::int64_t bytes = server.ApproxBytesPerStream();
  EXPECT_GT(bytes, kWindow * kFeatures * 4)  // at least the window buffer
      << "per-stream footprint unreported";
  EXPECT_LT(bytes, 1 << 20) << "per-stream footprint implausibly large";
  EXPECT_EQ(server.stats().bytes_per_stream, bytes);

  // The sequential wrapper reports the same accounting.
  core::StreamingDetector sequential(SharedDetector(), TestStreaming());
  for (std::int64_t t = 0; t < kWindow + 4; ++t) {
    sequential.Push(RowFor(0, t));
  }
  EXPECT_EQ(sequential.ApproxBytes(), bytes);
}

TEST(FleetServeTest, UnknownStreamAndStreamCapAreTyped) {
  FleetOptions options;
  options.streaming = TestStreaming();
  options.max_streams = 2;
  FleetServer server(SharedDetector(), options);
  EXPECT_EQ(server.Push(0, RowFor(0, 0)), AdmitStatus::kUnknownStream);
  EXPECT_EQ(server.OpenStream(), 0);
  EXPECT_EQ(server.OpenStream(), 1);
  EXPECT_EQ(server.OpenStream(), -1);  // capacity reached: typed, no abort
  EXPECT_EQ(server.Push(7, RowFor(0, 0)), AdmitStatus::kUnknownStream);
}

}  // namespace
}  // namespace tfmae::serve
