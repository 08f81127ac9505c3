// tfmae_serve — fleet-serving replay driver (docs/SERVING.md).
//
// Drives a serve::FleetServer with N concurrent streams from one process:
// trains (or loads) one shared detector, opens --streams streams, replays
// synthetic telemetry (or a CSV) through them with per-stream phase offsets,
// and prints the serving statistics: rows/sec, batched windows/sec, score
// latency quantiles, bytes/stream, and degraded-input health totals.
//
//   tfmae_serve --streams=1024 --threads=2 --batch_max=64 --rows=200
//   tfmae_serve --streams=256 --seconds=30       # run for a wall budget
//   tfmae_serve --csv=telemetry.csv --streams=64 # replay a CSV fleet
//   tfmae_serve --checkpoint=PATH ...            # reuse a saved detector
//   tfmae_serve --verify ...                     # also check batched ==
//                                                # sequential (exit 1 on drift)
//
//   tfmae_serve --quant=int8 ...                 # int8 scoring lanes
//                                                # (calibrates on train when
//                                                # the checkpoint has no
//                                                # quant spec)
//
// Crash safety (docs/RESILIENCE.md, "Serving resilience"):
//
//   tfmae_serve --snapshot_dir=DIR --snapshot_every=K   # snapshot the whole
//                                                # fleet every K ticks
//   tfmae_serve --snapshot_dir=DIR --restore     # resume from the newest
//                                                # valid snapshot and re-feed
//                                                # each stream's tail
//   tfmae_serve --score_log=PATH                 # append "stream seq bits"
//                                                # per scored window (bits =
//                                                # the float32 score, hex) —
//                                                # what the chaos soak diffs
//
// Snapshots are cut at tick boundaries only, AFTER the tick's results are
// flushed to the score log, so everything a snapshot's stream states count
// as scored is durably logged; everything later is regenerated when the
// restored run re-feeds from total_pushed(stream). The union of a killed
// run's log and its resumed run's log therefore covers exactly the
// uninterrupted run's log, score bits included (the re-feed protocol
// assumes rows are never rejected, which holds for the clean synthetic
// replay the soak uses).
//
// Live observability (docs/OBSERVABILITY.md, "Live endpoints & SLOs"):
//
//   tfmae_serve --metrics_port=9464             # HTTP endpoints while serving:
//                                               #   /metrics  Prometheus text
//                                               #   /healthz  ok|degraded, 503
//                                               #             once draining
//                                               #   /statusz  ServeStats JSON
//                                               # (port 0 picks an ephemeral
//                                               # port, printed on stdout)
//   tfmae_serve --stats_every=100               # one-line JSON stats every
//                                               # N ticks on stdout
//   tfmae_serve --trace_sample=64 --obs_trace=F # sampled per-window stage
//                                               # timelines in the chrome trace
//   tfmae_serve --slo_latency_ms=50 --slo_staleness_rows=64
//                                               # per-stream SLO error budgets
//   tfmae_serve --drift_every=256               # online score-drift monitor
//                                               # vs the calibration reference
//
// Flags: --streams=N --threads=T --batch_max=B --rows=R --seconds=S
//        --window=W --hop=H --queue_capacity=Q --anomaly_fraction=F
//        --csv=PATH --checkpoint=PATH --save_checkpoint=PATH
//        --quant=int8|off --verify --quiet
//        --snapshot_dir=DIR --snapshot_every=K (default from env
//        TFMAE_SERVE_SNAPSHOT_EVERY) --restore --score_log=PATH
//        --shed_policy=reject|drop_oldest|block (default from env
//        TFMAE_SERVE_SHED_POLICY) --watchdog_ms=MS
//        --metrics_port=P --stats_every=N --trace_sample=N
//        --slo_latency_ms=MS --slo_staleness_rows=N
//        --drift_every=N --drift_threshold=F --drain_linger_ms=MS
// plus the shared observability flags of MaybeProfileFromArgs
// (--obs_json/--obs_trace/--obs_text/--ledger/--flight_recorder).
//
// Graceful drain: SIGTERM/SIGINT stop ingest at the next row; every admitted
// window is then scored (Drain), the stats are printed, and the process
// exits 0 — no admitted work is ever dropped on shutdown.
//
// Overload handling: a kOverloaded push self-services one Flush, then backs
// off exponentially (1 ms doubling to 64 ms) for up to 24 attempts before
// the row is dropped; every retry, nap, and drop is counted in the stats
// block ("backoff" line) instead of the old unbounded busy-spin.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/detector.h"
#include "core/drift.h"
#include "core/streaming.h"
#include "data/generator.h"
#include "data/io.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/prom_export.h"
#include "serve/fleet_server.h"
#include "serve/fleet_snapshot.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

const char* FlagValue(int argc, char** argv, const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// `text` parsed whole as one T. Anything else ("8x", "", "abc", out of
// range, and for floating types nan/inf) exits 1 naming `what`, the flag or
// environment variable the text came from.
template <typename T>
T NumberOrExit(std::string_view what, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "tfmae_serve: %.*s must be a number (got '%s')\n",
                 static_cast<int>(what.size()), what.data(), text);
    std::exit(1);
  }
  return value;
}

// Value of the numeric flag `prefix` ("--name="), or `fallback` when absent.
template <typename T = std::int64_t>
T NumberFlag(int argc, char** argv, const char* prefix,
             std::type_identity_t<T> fallback) {
  const char* v = FlagValue(argc, argv, prefix);
  if (v == nullptr) return fallback;
  return NumberOrExit<T>({prefix, std::strlen(prefix) - 1}, v);
}

// One deterministic replay row: stream `s` reads the shared series at a
// per-stream phase offset, so streams are decorrelated but reproducible.
std::vector<float> ReplayRow(const tfmae::data::TimeSeries& series,
                             std::int64_t stream, std::int64_t t) {
  const std::int64_t row =
      (t + 17 * stream) % series.length;
  std::vector<float> values(
      static_cast<std::size_t>(series.num_features));
  for (std::int64_t f = 0; f < series.num_features; ++f) {
    values[static_cast<std::size_t>(f)] = series.at(row, f);
  }
  return values;
}

// Appends every freshly scored window to the score log as
// "stream seq bits\n" (bits = the raw float32 score, zero-padded hex), the
// bitwise-comparable record the chaos soak diffs. Shed markers are skipped:
// they carry no score.
void LogResults(std::FILE* log, const std::vector<tfmae::serve::ScoredWindow>& results,
                std::int64_t* anomalies) {
  for (const auto& r : results) {
    if (r.is_anomaly) ++*anomalies;
    if (log == nullptr || r.shed) continue;
    std::uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.score));
    std::memcpy(&bits, &r.score, sizeof(bits));
    std::fprintf(log, "%lld %lld %08x\n", static_cast<long long>(r.stream),
                 static_cast<long long>(r.seq),
                 static_cast<unsigned>(bits));
  }
}

}  // namespace

int main(int argc, char** argv) {
  tfmae::obs::MaybeProfileFromArgs(&argc, argv);

  const std::int64_t streams = NumberFlag(argc, argv, "--streams=", 1024);
  const std::int64_t threads = NumberFlag(argc, argv, "--threads=", 1);
  const std::int64_t batch_max = NumberFlag(argc, argv, "--batch_max=", 64);
  const std::int64_t rows = NumberFlag(argc, argv, "--rows=", 200);
  const std::int64_t seconds = NumberFlag(argc, argv, "--seconds=", 0);
  const std::int64_t window = NumberFlag(argc, argv, "--window=", 32);
  const std::int64_t hop = NumberFlag(argc, argv, "--hop=", 8);
  const std::int64_t queue_capacity =
      NumberFlag(argc, argv, "--queue_capacity=", 4096);
  const char* csv_path = FlagValue(argc, argv, "--csv=");
  const char* checkpoint = FlagValue(argc, argv, "--checkpoint=");
  const char* save_checkpoint = FlagValue(argc, argv, "--save_checkpoint=");
  const double anomaly_fraction =
      NumberFlag<double>(argc, argv, "--anomaly_fraction=", 0.02);
  const char* quant_flag = FlagValue(argc, argv, "--quant=");
  const bool verify = HasFlag(argc, argv, "--verify");
  const bool quiet = HasFlag(argc, argv, "--quiet");
  const char* snapshot_dir = FlagValue(argc, argv, "--snapshot_dir=");
  const std::int64_t snapshot_every = [&]() -> std::int64_t {
    // Flag wins; TFMAE_SERVE_SNAPSHOT_EVERY supplies the fleet-wide default.
    if (const char* v = FlagValue(argc, argv, "--snapshot_every=")) {
      return NumberOrExit<std::int64_t>("--snapshot_every", v);
    }
    const char* env = std::getenv("TFMAE_SERVE_SNAPSHOT_EVERY");
    return env != nullptr
               ? NumberOrExit<std::int64_t>("TFMAE_SERVE_SNAPSHOT_EVERY", env)
               : 0;
  }();
  const bool restore = HasFlag(argc, argv, "--restore");
  const char* score_log_path = FlagValue(argc, argv, "--score_log=");
  const char* shed_policy_name = [&]() -> const char* {
    const char* v = FlagValue(argc, argv, "--shed_policy=");
    if (v != nullptr) return v;
    return std::getenv("TFMAE_SERVE_SHED_POLICY");
  }();
  const std::int64_t watchdog_ms = NumberFlag(argc, argv, "--watchdog_ms=", 0);
  // Live observability flags. --metrics_port is present/absent (0 is a valid
  // value: bind an ephemeral port and print it); HttpEndpoint::Start rejects
  // a port outside [0, 65535].
  const char* metrics_port_flag = FlagValue(argc, argv, "--metrics_port=");
  const int metrics_port =
      metrics_port_flag != nullptr
          ? NumberOrExit<int>("--metrics_port", metrics_port_flag)
          : 0;
  const std::int64_t stats_every = NumberFlag(argc, argv, "--stats_every=", 0);
  const std::int64_t trace_sample =
      NumberFlag(argc, argv, "--trace_sample=", 0);
  const std::int64_t slo_latency_ms =
      NumberFlag(argc, argv, "--slo_latency_ms=", 0);
  const std::int64_t slo_staleness_rows =
      NumberFlag(argc, argv, "--slo_staleness_rows=", 0);
  const std::int64_t drift_every = NumberFlag(argc, argv, "--drift_every=", 0);
  const double drift_threshold =
      NumberFlag<double>(argc, argv, "--drift_threshold=", 0.35);
  const std::int64_t drain_linger_ms =
      NumberFlag(argc, argv, "--drain_linger_ms=", 0);
  if (quant_flag != nullptr && std::strcmp(quant_flag, "int8") != 0 &&
      std::strcmp(quant_flag, "off") != 0) {
    std::fprintf(stderr, "tfmae_serve: --quant must be int8 or off\n");
    return 1;
  }
  if (anomaly_fraction <= 0.0 || anomaly_fraction >= 1.0) {
    std::fprintf(stderr,
                 "tfmae_serve: --anomaly_fraction must be in (0, 1) "
                 "(got %g)\n",
                 anomaly_fraction);
    return 1;
  }
  tfmae::serve::ShedPolicy shed_policy = tfmae::serve::ShedPolicy::kRejectNew;
  if (shed_policy_name != nullptr && shed_policy_name[0] != '\0') {
    const auto parsed = tfmae::serve::ParseShedPolicy(shed_policy_name);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "tfmae_serve: --shed_policy must be reject, drop_oldest, "
                   "or block (got %s)\n",
                   shed_policy_name);
      return 1;
    }
    shed_policy = *parsed;
  }
  if (streams < 1 || threads < 1 || window < 2 || hop < 1) {
    std::fprintf(stderr, "tfmae_serve: invalid flag value\n");
    return 1;
  }
  if (restore && snapshot_dir == nullptr) {
    std::fprintf(stderr, "tfmae_serve: --restore requires --snapshot_dir\n");
    return 1;
  }

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  tfmae::ThreadPool::Instance().SetNumThreads(static_cast<int>(threads));

  // Replay data: a CSV fleet (missing cells LOCF-repaired for training; the
  // streams still see the raw rows, exercising the degraded-input path) or
  // a synthetic multivariate signal.
  tfmae::data::TimeSeries series;
  if (csv_path != nullptr) {
    tfmae::data::CsvDiagnostic diagnostic;
    auto loaded = tfmae::data::LoadCsv(csv_path, &diagnostic);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "tfmae_serve: %s\n", diagnostic.message.c_str());
      return 1;
    }
    series = std::move(*loaded);
  } else {
    tfmae::data::BaseSignalConfig signal;
    signal.length = 2048;
    signal.num_features = 4;
    signal.seed = 20240605;
    series = tfmae::data::GenerateBaseSignal(signal);
  }
  tfmae::data::TimeSeries train = series;
  tfmae::data::ImputeMissingLocf(&train);

  // One shared read-only detector for the whole fleet.
  tfmae::core::TfmaeConfig config;
  config.window = window;
  config.stride = window;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ff_hidden = 64;
  config.epochs = 1;
  config.seed = 17;
  tfmae::core::TfmaeDetector detector(config);
  tfmae::Stopwatch fit_watch;
  if (checkpoint != nullptr) {
    if (!detector.LoadCheckpoint(checkpoint)) {
      std::fprintf(stderr, "tfmae_serve: cannot load checkpoint %s\n",
                   checkpoint);
      return 1;
    }
  } else {
    detector.Fit(train);
  }
  // --quant overrides the TFMAE_QUANT default the detector started with.
  // Int8 without a spec (fresh fit, or a checkpoint saved before
  // calibration) calibrates on the training replay here, so the serving
  // lanes and the threshold calibration below share one precision.
  if (quant_flag != nullptr) {
    detector.SetQuantMode(std::strcmp(quant_flag, "int8") == 0
                              ? tfmae::core::TfmaeDetector::QuantMode::kInt8
                              : tfmae::core::TfmaeDetector::QuantMode::kOff);
  }
  if (detector.quant_mode() == tfmae::core::TfmaeDetector::QuantMode::kInt8 &&
      !detector.has_quant_spec()) {
    std::string quant_error;
    if (!detector.Calibrate(train, &quant_error) && !quiet) {
      std::fprintf(stderr, "tfmae_serve: int8 calibration failed (%s); "
                           "serving falls back to fp32\n",
                   quant_error.c_str());
    }
  }
  const std::vector<float> calibration = detector.Score(train);
  // Drift-monitor reference: a loaded checkpoint may carry one; otherwise
  // the calibration scores just computed become it.
  if (!detector.has_score_reference()) {
    detector.SetScoreReference(tfmae::core::BuildScoreDistribution(calibration));
  }
  // --save_checkpoint: persist the detector, with its int8 spec and drift
  // reference, so later runs (the chaos soak's kill/restore/reference
  // triple) share one identical model without re-fitting or recalibrating.
  if (save_checkpoint != nullptr && !detector.SaveCheckpoint(save_checkpoint)) {
    std::fprintf(stderr, "tfmae_serve: cannot save checkpoint %s\n",
                 save_checkpoint);
    return 1;
  }
  if (!quiet) {
    std::printf("model ready in %.1fs (%s)\n", fit_watch.ElapsedSeconds(),
                checkpoint != nullptr ? "checkpoint" : "fitted");
  }

  tfmae::serve::FleetOptions options;
  options.streaming.window = window;
  options.streaming.hop = hop;
  options.max_streams = streams;
  options.queue_capacity = queue_capacity;
  options.batch_max = batch_max;
  options.shed_policy = shed_policy;
  options.watchdog_stall_ms = watchdog_ms;
  options.trace_sample = trace_sample;
  options.slo_latency_ns = slo_latency_ms * 1000000;
  options.slo_staleness_rows = slo_staleness_rows;
  options.drift_check_every = drift_every;
  options.drift_threshold = drift_threshold;
  if (snapshot_dir != nullptr) options.snapshot_dir = snapshot_dir;
  tfmae::serve::FleetServer server(&detector, options);
  server.CalibrateThreshold(calibration, anomaly_fraction);

  // Live endpoints. Declared after the server so it stops serving BEFORE
  // the server is destroyed — a late scrape can never race a dying server.
  tfmae::obs::HttpEndpoint endpoint;
  if (metrics_port_flag != nullptr) {
    endpoint.Handle("/metrics", [&server] {
      // The registry's families plus the server's, spliced in from one
      // stats() read.
      tfmae::obs::MetricsSnapshot snap = tfmae::obs::SnapshotWithFaults();
      tfmae::serve::AppendServeMetrics(server.stats(), &snap);
      tfmae::obs::HttpResponse response;
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = tfmae::obs::RenderPrometheusText(snap);
      return response;
    });
    endpoint.Handle("/healthz", [&server] {
      tfmae::obs::HttpResponse response;
      if (server.draining()) {
        response.status = 503;
        response.body = "draining\n";
      } else if (server.degraded()) {
        // Alive but shedding: stays 200 so the fleet does not flap, the
        // body carries the latch for anyone who looks.
        response.body = "degraded\n";
      } else {
        response.body = "ok\n";
      }
      return response;
    });
    endpoint.Handle("/statusz", [&server] {
      tfmae::obs::HttpResponse response;
      response.content_type = "application/json";
      response.body = tfmae::serve::ServeStatsJson(server.stats()) + "\n";
      return response;
    });
    std::string endpoint_error;
    if (!endpoint.Start(metrics_port, &endpoint_error)) {
      std::fprintf(stderr, "tfmae_serve: metrics endpoint failed: %s\n",
                   endpoint_error.c_str());
      return 1;
    }
    // Printed even under --quiet: an ephemeral port is unknowable otherwise.
    std::printf("metrics endpoint on port %d\n", endpoint.port());
    std::fflush(stdout);
  }

  // Per-stream re-feed start: 0 for a fresh run; total_pushed(stream) after
  // a restore, so the replay skips exactly the rows the snapshot already
  // holds and the continuation is bitwise-identical to an uninterrupted run.
  std::vector<std::int64_t> start_tick(static_cast<std::size_t>(streams), 0);
  std::int64_t restored_rows = 0;
  if (restore) {
    std::string restore_error;
    auto found =
        tfmae::serve::FindLatestValidFleetSnapshot(snapshot_dir, &restore_error);
    if (!found.has_value()) {
      std::fprintf(stderr, "tfmae_serve: no valid snapshot in %s (%s)\n",
                   snapshot_dir, restore_error.c_str());
      return 1;
    }
    if (static_cast<std::int64_t>(found->second.stream_states.size()) !=
        streams) {
      std::fprintf(stderr,
                   "tfmae_serve: snapshot holds %lld streams, --streams=%lld\n",
                   static_cast<long long>(found->second.stream_states.size()),
                   static_cast<long long>(streams));
      return 1;
    }
    if (!server.Restore(found->second, &restore_error)) {
      std::fprintf(stderr, "tfmae_serve: restore failed (%s)\n",
                   restore_error.c_str());
      return 1;
    }
    for (std::int64_t s = 0; s < streams; ++s) {
      start_tick[static_cast<std::size_t>(s)] = server.total_pushed(s);
      restored_rows += server.total_pushed(s);
    }
    if (!quiet) {
      std::printf("restored %lld streams (%lld rows) from %s (snapshot %lld)\n",
                  static_cast<long long>(streams),
                  static_cast<long long>(restored_rows), found->first.c_str(),
                  static_cast<long long>(server.snapshot_index()));
    }
  } else {
    for (std::int64_t s = 0; s < streams; ++s) {
      if (server.OpenStream() < 0) {
        std::fprintf(stderr, "tfmae_serve: stream capacity exhausted\n");
        return 1;
      }
    }
  }

  std::FILE* score_log = nullptr;
  if (score_log_path != nullptr) {
    score_log = std::fopen(score_log_path, "a");
    if (score_log == nullptr) {
      std::fprintf(stderr, "tfmae_serve: cannot open score log %s\n",
                   score_log_path);
      return 1;
    }
  }

  // Ingest loop: tick-major over the fleet. Overloads retry with bounded
  // exponential backoff (one self-service Flush, then 1 ms doubling to
  // 64 ms, at most kMaxAttempts per row) instead of an unbounded busy-spin;
  // exhausted rows are dropped and counted. Stops after --rows ticks, at
  // the --seconds wall budget, on SIGTERM/SIGINT, or on kDraining.
  constexpr int kMaxAttempts = 24;
  tfmae::Stopwatch watch;
  std::int64_t ticks = 0;
  std::int64_t pushed = 0;
  std::int64_t anomalies = 0;
  std::int64_t overload_retries = 0;
  std::int64_t backoff_naps = 0;
  std::int64_t retry_gave_up = 0;
  // --seconds without --rows (or with --rows=0) is a wall budget alone.
  const bool rows_given = FlagValue(argc, argv, "--rows=") != nullptr;
  const std::int64_t max_ticks =
      seconds > 0 && (!rows_given || rows <= 0) ? -1 : rows;
  while (!g_stop) {
    if (max_ticks >= 0 && ticks >= max_ticks) break;
    if (seconds > 0 && watch.ElapsedSeconds() >= static_cast<double>(seconds)) break;
    for (std::int64_t s = 0; s < streams && !g_stop; ++s) {
      if (ticks < start_tick[static_cast<std::size_t>(s)]) continue;
      const std::vector<float> row = ReplayRow(series, s, ticks);
      std::int64_t backoff_ms = 1;
      for (int attempt = 1;; ++attempt) {
        const tfmae::serve::AdmitStatus status = server.Push(s, row);
        if (status == tfmae::serve::AdmitStatus::kDraining) {
          g_stop = 1;  // the server is shutting down; stop ingest
          break;
        }
        if (status != tfmae::serve::AdmitStatus::kOverloaded) {
          ++pushed;
          break;
        }
        ++overload_retries;
        if (attempt >= kMaxAttempts) {
          ++retry_gave_up;  // budget exhausted: drop this row, keep serving
          break;
        }
        server.Flush();  // self-service first; nap only if still saturated
        if (attempt > 1) {
          ++backoff_naps;
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 64);
        }
      }
    }
    ++ticks;
    LogResults(score_log, server.TakeResults(), &anomalies);
    if (stats_every > 0 && ticks % stats_every == 0) {
      // One-line JSON heartbeat: same payload as /statusz, with the tick
      // spliced in as the first key so log scrapers can align the series.
      const std::string line = tfmae::serve::ServeStatsJson(server.stats());
      std::printf("stats {\"tick\":%lld,%s\n", static_cast<long long>(ticks),
                  line.c_str() + 1);
      std::fflush(stdout);
    }
    // Snapshot at tick boundaries, AFTER the tick's scores are durably in
    // the log: Flush + log + fflush + snapshot, so nothing the snapshot
    // counts as scored can be missing from the killed run's log.
    if (snapshot_dir != nullptr && snapshot_every > 0 && ticks > 0 &&
        ticks % snapshot_every == 0) {
      server.Flush();
      LogResults(score_log, server.TakeResults(), &anomalies);
      if (score_log != nullptr) std::fflush(score_log);
      std::string snapshot_error;
      if (!server.SnapshotNow(&snapshot_error) && !quiet) {
        std::fprintf(stderr, "tfmae_serve: snapshot failed (%s)\n",
                     snapshot_error.c_str());
      }
    }
  }
  const bool interrupted = g_stop != 0;

  // Graceful drain: every admitted window is scored before reporting.
  server.Drain();
  LogResults(score_log, server.TakeResults(), &anomalies);
  if (score_log != nullptr) {
    std::fflush(score_log);
    std::fclose(score_log);
  }
  const double elapsed = watch.ElapsedSeconds();

  const tfmae::serve::ServeStats stats = server.stats();
  std::printf("tfmae_serve: %lld streams x %lld ticks%s\n",
              static_cast<long long>(streams), static_cast<long long>(ticks),
              interrupted ? " (interrupted; drained cleanly)" : "");
  std::printf("  rows        %lld pushed, %.0f rows/sec\n",
              static_cast<long long>(pushed),
              elapsed > 0.0 ? static_cast<double>(pushed) / elapsed : 0.0);
  std::printf(
      "  windows     %lld scored in %lld batches (max batch %lld), "
      "%.0f windows/sec\n",
      static_cast<long long>(stats.windows_scored),
      static_cast<long long>(stats.batches),
      static_cast<long long>(stats.max_batch),
      elapsed > 0.0 ? static_cast<double>(stats.windows_scored) / elapsed
                    : 0.0);
  std::printf("  latency     p50 %.0f us  p95 %.0f us  p99 %.0f us per window\n",
              stats.p50_window_ns / 1e3, stats.p95_window_ns / 1e3,
              stats.p99_window_ns / 1e3);
  std::printf("  memory      %lld bytes/stream (%lld streams)\n",
              static_cast<long long>(stats.bytes_per_stream),
              static_cast<long long>(stats.streams));
  std::printf(
      "  admission   %lld overloaded, peak queue depth %lld, "
      "%lld plan lanes, %lld eager windows\n",
      static_cast<long long>(stats.rows_overloaded),
      static_cast<long long>(stats.peak_queue_depth),
      static_cast<long long>(stats.plan_lanes),
      static_cast<long long>(stats.eager_windows));
  std::printf(
      "  backoff     %lld overload retries, %lld naps, %lld rows dropped "
      "(budget %d attempts)\n",
      static_cast<long long>(overload_retries),
      static_cast<long long>(backoff_naps),
      static_cast<long long>(retry_gave_up), kMaxAttempts);
  std::printf(
      "  resilience  policy=%s, %lld shed, %lld deadline-expired, "
      "degraded=%s, %lld snapshots (%lld failed), %lld watchdog stalls%s\n",
      tfmae::serve::ShedPolicyName(options.shed_policy),
      static_cast<long long>(stats.shed_dropped),
      static_cast<long long>(stats.shed_deadline_expired),
      stats.degraded ? "yes" : "no",
      static_cast<long long>(stats.snapshots_written),
      static_cast<long long>(stats.snapshots_failed),
      static_cast<long long>(stats.watchdog_stalls),
      restore ? " (restored run)" : "");
  if (stats.quant_lanes > 0) {
    std::printf(
        "  precision   int8 (%lld lanes), %lld fp32 fallbacks, arena "
        "%lld B fp32 + %lld B packed u8 per lane\n",
        static_cast<long long>(stats.quant_lanes),
        static_cast<long long>(stats.quant_fallbacks),
        static_cast<long long>(stats.plan_arena_bytes),
        static_cast<long long>(stats.quant_arena_bytes));
  } else {
    std::printf("  precision   fp32, %lld fp32 fallbacks, arena %lld B per "
                "lane\n",
                static_cast<long long>(stats.quant_fallbacks),
                static_cast<long long>(stats.plan_arena_bytes));
  }
  std::printf(
      "  health      %lld alerts, %lld quarantined, %lld rejected, "
      "%lld warmup rows\n",
      static_cast<long long>(anomalies),
      static_cast<long long>(stats.rows_quarantined),
      static_cast<long long>(stats.rows_rejected),
      static_cast<long long>(stats.rows_warmup));
  if (slo_latency_ms > 0 || slo_staleness_rows > 0) {
    std::printf(
        "  slo         %lld latency breaches, %lld staleness breaches, "
        "%lld streams exhausted (%lld episodes)\n",
        static_cast<long long>(stats.slo_latency_breaches),
        static_cast<long long>(stats.slo_staleness_breaches),
        static_cast<long long>(stats.slo_exhausted_streams),
        static_cast<long long>(stats.slo_exhausted_episodes));
  }
  if (drift_every > 0) {
    std::printf("  drift       %lld checks, %lld alarms, last ks %.4f "
                "(threshold %.2f)\n",
                static_cast<long long>(stats.drift_checks),
                static_cast<long long>(stats.drift_alarms), stats.drift_ks,
                drift_threshold);
  }
  std::fflush(stdout);

  // Keep the live endpoints up briefly after drain so an external prober
  // can observe the drained /healthz (503) before the process exits.
  if (drain_linger_ms > 0 && endpoint.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_linger_ms));
  }

  if (verify) {
    // Batched-equals-sequential spot check: replay a few streams through
    // the synchronous wrapper and compare every rescore score bitwise.
    const std::int64_t check_streams = std::min<std::int64_t>(streams, 4);
    const std::int64_t check_ticks = std::min<std::int64_t>(
        ticks > 0 ? ticks : 1, 3 * window);
    tfmae::serve::FleetServer check_server(&detector, options);
    for (std::int64_t s = 0; s < check_streams; ++s) {
      check_server.OpenStream();
    }
    for (std::int64_t t = 0; t < check_ticks; ++t) {
      for (std::int64_t s = 0; s < check_streams; ++s) {
        check_server.Push(s, ReplayRow(series, s, t));
      }
    }
    check_server.Drain();
    std::vector<std::vector<float>> batched(
        static_cast<std::size_t>(check_streams));
    for (const auto& r : check_server.TakeResults()) {
      batched[static_cast<std::size_t>(r.stream)].push_back(r.score);
    }
    bool identical = true;
    for (std::int64_t s = 0; s < check_streams; ++s) {
      tfmae::core::StreamingDetector sequential(&detector, options.streaming);
      std::vector<float> reference;
      std::int64_t since = 0;
      bool scored_once = false;
      for (std::int64_t t = 0; t < check_ticks; ++t) {
        const auto r = sequential.Push(ReplayRow(series, s, t));
        if (!r.has_value()) continue;
        if (++since >= options.streaming.hop || !scored_once) {
          reference.push_back(r->score);
          scored_once = true;
          since = 0;
        }
      }
      const auto& got = batched[static_cast<std::size_t>(s)];
      if (got.size() != reference.size() ||
          !std::equal(got.begin(), got.end(), reference.begin())) {
        identical = false;
      }
    }
    std::printf("  verify      batched == sequential: %s\n",
                identical ? "PASS (bitwise)" : "FAIL");
    if (!identical) return 1;
  }
  return 0;
}
