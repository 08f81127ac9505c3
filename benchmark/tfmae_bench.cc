// tfmae_bench — the end-to-end benchmark binary (benchmark/README.md).
//
// One process runs one workload:
//
//   tfmae_bench --workload=fleet_fp32 --seed=1 --seconds=16 [--trace=1]
//               [--trace_out=PATH] [--repeats=K] [--git_rev=REV]
//
// Every workload runs the same pipeline; the workloads differ only in their
// inputs (dataset profile, fleet size, hop, precision, missing cells):
//
//   setup x K         MakeDataset -> Fit -> [Calibrate] -> Score(val) ->
//                     FleetServer + OpenStream x N -> first batch (lanes)
//   warm-up           every stream fills its window and scores once; hop
//                     cadences are staggered across streams; then a fixed
//                     number of rows served closed-loop (untimed)
//   4 rounds of       offline: TfmaeDetector::Score(test) in a closed loop
//                     low, high: open loop at two fixed row rates, in whole
//                       batches; each window is timed from the due time of
//                       the row that completed it
//                     saturation: closed loop, then Flush (the last: Drain)
//   gates             batched == sequential, counters, precision, repeats
//   layers (--trace)  timed calls into each layer's public functions
//
// The ingest thread is the thread-pool caller: it pushes rows, and every
// batch runs inline inside the Push that filled it, exactly as
// tools/tfmae_serve drives a server. Threads are placed by the scheduler, as
// they are under tfmae_serve. The last stdout line is "RESULT {json}", which
// benchmark/run.py turns into the reported metrics.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "core/detector.h"
#include "core/inference_plan.h"
#include "core/streaming.h"
#include "data/profiles.h"
#include "eval/detection.h"
#include "fft/fft.h"
#include "masking/frequency_mask.h"
#include "masking/temporal_mask.h"
#include "nn/adam.h"
#include "nn/numeric_guard.h"
#include "obs/export.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "serve/fleet_server.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef TFMAE_BENCH_BUILD_FLAGS
#define TFMAE_BENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using tfmae::core::TfmaeDetector;
using tfmae::obs::TraceSite;
using tfmae::serve::AdmitStatus;

// One clock for schedules, latencies and spans: obs's, so span starts land
// on the chrome trace's timeline.
std::int64_t NowNs() { return static_cast<std::int64_t>(tfmae::obs::NowNs()); }

// CPU time of every thread of the process. On a shared host a thread's wall
// time includes the stretches it waits for a CPU; its CPU time does not.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[idx - 1];
}

// The median of an ascending-sorted latency sample, estimated as the mean
// of its middle tenth (the 45th to the 55th percentile). A window's wait for
// its batch to fill comes in steps of one arrival interval, and with an even
// batch_max the exact median sits on the edge of a step, among the slowest
// batches of one side of it; averaging across the step follows the typical
// batch. On fit_msl (steps of 57-114 ms) it halved the spread between runs.
double MiddleTenthMean(const std::vector<double>& sorted) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const std::size_t lo = static_cast<std::size_t>(std::floor(0.45 * n));
  const std::size_t hi = std::max(
      lo + 1, std::min(sorted.size(),
                       static_cast<std::size_t>(std::ceil(0.55 * n))));
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo);
}

// Adds one sample to a local log2 histogram in obs's bucket layout, read
// back with HistogramSnapshot::Quantile.
void AddSample(tfmae::obs::HistogramSnapshot* h, std::int64_t value) {
  const std::uint64_t v =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, value));
  ++h->buckets[tfmae::obs::HistogramBucket(v)];
  h->min = h->count == 0 ? v : std::min(h->min, v);
  h->max = std::max(h->max, v);
  ++h->count;
  h->sum += v;
}

// ---------------------------------------------------------------------------
// Spans of the traced run, recorded through src/obs while obs::Enabled():
// every call lands in its site's log2 histogram `<site>.time_ns` and its
// `.calls`/`.total_ns` counters in the obs Registry, and one call in 64 per
// site (every scope) is kept as a trace event for obs::WriteChromeTrace.
// obs knows no parent span, so self time (a span minus the time its child
// spans cover) is kept here.
class Spans {
 public:
  static bool active() { return tfmae::obs::Enabled(); }

  void Leaf(TraceSite* site, std::int64_t start, std::int64_t end) {
    Record(site, start, end - start, end - start, false);
  }
  void Open(TraceSite* site) { stack_.push_back({site, NowNs(), 0}); }
  void Close() {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = NowNs() - frame.start;
    Record(frame.site, frame.start, dur, dur - frame.child_ns, true);
  }

  // Calls, total and self time per site, largest self time first.
  void PrintSelfTimes(const std::string& workload) const {
    const tfmae::obs::MetricsSnapshot snap =
        tfmae::obs::Registry::Instance().Snapshot();
    std::vector<std::pair<std::int64_t, const TraceSite*>> order;
    for (const Self& self : self_) {
      if (self.site != nullptr) order.emplace_back(self.ns, self.site);
    }
    std::sort(order.rbegin(), order.rend());
    std::printf("self time by layer (%s):\n", workload.c_str());
    std::printf("  %-24s %10s %12s %12s %12s\n", "layer", "calls", "total_ms",
                "self_ms", "p50_us");
    for (const auto& [self_ns, site] : order) {
      const std::string name = site->name;
      const tfmae::obs::HistogramSnapshot* h =
          snap.Histogram(name + ".time_ns");
      const std::uint64_t calls = snap.Counter(name + ".calls");
      std::printf("  %-24s %10llu %12.2f %12.2f %12.2f\n", site->name,
                  static_cast<unsigned long long>(calls),
                  static_cast<double>(snap.Counter(name + ".total_ns")) / 1e6,
                  static_cast<double>(self_ns) / 1e6,
                  h == nullptr ? 0.0 : h->Quantile(0.5) / 1e3);
    }
  }

 private:
  void Record(TraceSite* site, std::int64_t start, std::int64_t dur,
              std::int64_t self_ns, bool keep) {
    tfmae::obs::Registry& reg = tfmae::obs::Registry::Instance();
    const std::uint64_t d = static_cast<std::uint64_t>(dur);  // steady clock
    reg.HistogramRecord(site->hist_time_ns, d);
    reg.CounterAdd(site->counter_calls, 1);
    reg.CounterAdd(site->counter_total, d);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    // Indexed by the site's histogram id, which the Registry caps.
    Self& self = self_.at(static_cast<std::size_t>(site->hist_time_ns));
    self.site = site;
    self.ns += self_ns;
    if (keep || self.calls++ % 64 == 0) {
      tfmae::obs::AppendTraceEvent(site, static_cast<std::uint64_t>(start), d);
    }
  }

  struct Frame {
    TraceSite* site;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Self {
    const TraceSite* site = nullptr;
    std::int64_t ns = 0;
    std::int64_t calls = 0;
  };
  std::vector<Frame> stack_;
  std::array<Self, tfmae::obs::kMaxHistograms> self_{};
};

TraceSite* Site(const char* name) { return tfmae::obs::GetTraceSite(name); }

// RAII phase scope; a no-op when tracing was off as it opened.
class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_(Spans::active() ? &spans : nullptr) {
    if (spans_ != nullptr) spans_->Open(Site(name));
  }
  ~Scope() {
    if (spans_ != nullptr) spans_->Close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
};

// Runs fn() and files it as a leaf span of `site` when tracing.
template <typename Fn>
decltype(auto) Timed(Spans& spans, TraceSite* site, Fn&& fn) {
  if (!Spans::active()) return fn();
  const std::int64_t start = NowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    spans.Leaf(site, start, NowNs());
  } else {
    decltype(auto) result = fn();
    spans.Leaf(site, start, NowNs());
    return result;
  }
}

// ---------------------------------------------------------------------------
// Workloads.
struct WorkloadSpec {
  std::string name;
  bool msl = false;          // MSL profile (55 features) vs the 4-feature fleet
  bool int8 = false;         // int8 scoring lanes
  std::int64_t streams = 0;
  std::int64_t hop = 0;
  std::int64_t batch_max = 0;
  double missing_frac = 0.0;  // NaN cells, LOCF-imputed by the streams
  double low_rate = 0.0;      // rows/s
  double high_rate = 0.0;     // rows/s
  int repeats = 0;            // set-ups per run
};

// Shares of --seconds: each open-loop phase (`low` gets twice the time at
// half the rate, so both phases collect the same number of windows),
// saturation, offline scoring.
constexpr double kLowShare = 0.5;
constexpr double kHighShare = 0.25;
constexpr double kSaturationShare = 0.17;
constexpr double kOfflineShare = 0.08;
constexpr int kRounds = 4;
// Untimed closed-loop serving before the first round, as many rows as the
// `high` phase offers in this many seconds (1-2 s of saturation). Without it
// the first round's batches ran up to twice as slow in wall time as the
// later ones at the same CPU time: its saturation slice used one CPU's
// worth of time per second of wall time, the later ones about 2.5. A fixed
// row count keeps the rows that follow, and their scores, the same in every
// run of a seed.
constexpr double kSettleHighSeconds = 20.0;

// The open-loop rates. A window's latency is about half a batch-fill time,
// which the rate fixes, plus one batch's run time, which follows the host's
// speed; at r windows/s and c s of scoring per window the run time is about
// 2rc / (1 + 2rc) of it. The rates keep that share near 7% (`low`) and 13%
// (`high`; 8% and 15% on fit_msl), and the busiest phase at about a tenth
// of capacity or less, so a slow stretch of a shared host moves a latency by a few
// percent and never builds a backlog. They still give the fleet workloads
// 1024 windows per phase at --seconds 16. Every fleet size is a multiple of
// its hop, so a window completes every `hop` rows (see NextStream).
std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  const std::vector<WorkloadSpec> all = {
      {"fleet_fp32", false, false, 1024, 8, 64, 0.0, 1000.0, 2000.0, 7},
      {"fleet_int8", false, true, 1024, 8, 64, 0.0, 1000.0, 2000.0, 7},
      {"fleet_wide", false, false, 16384, 1024, 64, 0.01, 102400.0, 204800.0,
       7},
      // An MSL window costs ~5 ms to prepare and score, most of it masking
      // on the ingest thread, so a batch runs for about batch_max x 5 ms
      // while the generator waits.
      {"fit_msl", true, false, 64, 8, 8, 0.0, 70.0, 140.0, 3},
  };
  for (const auto& w : all) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

// The fitted datasets are fixed (each profile's own seed), so fit time and
// the point-adjusted F1 compare like for like across seeds and commits;
// --seed generates the traffic the fitted model serves.
constexpr std::uint64_t kFleetDataSeed = 7;

// The 4-feature telemetry fleet: same generator family as the paper
// profiles, labelled test split for the offline F1.
tfmae::data::DatasetProfile FleetProfile() {
  tfmae::data::DatasetProfile p;
  p.name = "FLEET";
  p.base.num_features = 4;
  p.train_length = 2048;
  p.val_length = 512;
  p.test_length = 4096;
  p.test_anomaly_ratio = 0.05;
  p.train_contamination = 0.01;
  p.mix = {.global_point = 1, .contextual = 1, .seasonal = 1, .trend = 0.5,
           .shapelet = 1};
  p.seed = kFleetDataSeed;
  return p;
}

tfmae::data::DatasetProfile ProfileFor(const WorkloadSpec& spec) {
  if (!spec.msl) return FleetProfile();
  return tfmae::data::GetProfile(tfmae::data::BenchmarkDataset::kMsl);
}

tfmae::core::TfmaeConfig ConfigFor(const WorkloadSpec& spec) {
  if (spec.msl) {
    tfmae::core::TfmaeConfig config =
        tfmae::bench::TfmaeConfigFor(tfmae::data::BenchmarkDataset::kMsl);
    config.epochs = 8;
    return config;
  }
  // tools/tfmae_serve's fleet model.
  tfmae::core::TfmaeConfig config;
  config.window = 32;
  config.stride = 32;
  config.model_dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ff_hidden = 64;
  config.epochs = 1;
  config.seed = 17;
  return config;
}

constexpr double kServeAnomalyFraction = 0.02;  // as tools/tfmae_serve
constexpr double kEvalAnomalyFraction = 0.05;   // bench::AnomalyFractionFor
constexpr int kMaxAttempts = 24;                // tools/tfmae_serve's budget
// Latency recorded for a refused or dropped row: one hour, i.e. "missed".
constexpr double kMissedMs = 3.6e6;

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Deterministic replay: stream s reads the test split from a seeded phase
// offset, with a seeded share of cells blanked to NaN.
class Replay {
 public:
  Replay(const tfmae::data::TimeSeries* series, std::int64_t streams,
         double missing_frac, std::uint64_t seed)
      : series_(series), missing_frac_(missing_frac), seed_(seed) {
    for (std::int64_t s = 0; s < streams; ++s) {
      offset_.push_back(static_cast<std::int64_t>(
          Mix(seed ^ Mix(static_cast<std::uint64_t>(s))) %
          static_cast<std::uint64_t>(series->length)));
    }
  }

  void Fill(std::int64_t stream, std::int64_t t,
            std::vector<float>* row) const {
    const std::int64_t f_count = series_->num_features;
    row->resize(static_cast<std::size_t>(f_count));
    const std::int64_t r =
        (t + offset_[static_cast<std::size_t>(stream)]) % series_->length;
    for (std::int64_t f = 0; f < f_count; ++f) {
      (*row)[static_cast<std::size_t>(f)] = series_->at(r, f);
    }
    // Never blank a stream's first row: LOCF needs one observed value.
    if (missing_frac_ <= 0.0 || t == 0) return;
    std::uint64_t h = Mix(
        seed_ ^ Mix(static_cast<std::uint64_t>(stream) * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(t)));
    for (std::int64_t f = 0; f < f_count; ++f) {
      h = Mix(h);
      if (static_cast<double>(h >> 11) * 0x1.0p-53 < missing_frac_) {
        (*row)[static_cast<std::size_t>(f)] = std::nanf("");
      }
    }
  }

 private:
  const tfmae::data::TimeSeries* series_;
  double missing_frac_;
  std::uint64_t seed_;
  std::vector<std::int64_t> offset_;
};

// ---------------------------------------------------------------------------
// Result of the run, rendered as the RESULT line.
struct Report {
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates;
  std::map<std::string, std::int64_t> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    gates.push_back({name, ok, detail});
    std::printf("  gate %-28s %s  %s\n", name.c_str(), ok ? "PASS" : "FAIL",
                detail.c_str());
  }
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// One fitted detector and the fleet server serving it.
enum Phase : int { kSetup, kWarmup, kLow, kHigh, kSaturation, kNumPhases };
const char* const kPhaseNames[kNumPhases] = {"setup", "warmup", "low", "high",
                                             "saturation"};

struct Pending {
  int phase;
  int round;
  std::int64_t due_ns;  // 0 outside the open-loop phases
};

struct Instance {
  tfmae::data::LabeledDataset dataset;
  std::unique_ptr<TfmaeDetector> detector;
  std::vector<float> val_scores;
  // Declared after the detector it points to, so it is destroyed first.
  std::unique_ptr<tfmae::serve::FleetServer> server;
  std::vector<std::int64_t> next_tick;  // replay position per stream
  std::vector<std::int64_t> consumed;   // rows the stream has absorbed
  std::unordered_map<std::uint64_t, Pending> pending;
};

std::uint64_t Key(std::int64_t stream, std::int64_t seq) {
  return (static_cast<std::uint64_t>(stream) << 40) ^
         static_cast<std::uint64_t>(seq);
}

struct PhaseStats {
  std::int64_t rows = 0;
  std::int64_t failed = 0;
  std::int64_t windows = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;  // one per window (+ kMissedMs per failure)
  std::vector<double> round_latency_ms[kRounds];  // the same, by round
  // Generator lateness per row, ns, in the phase's first and second half.
  tfmae::obs::HistogramSnapshot lag_ns[2];
  double LagP99Ms(int half) const { return lag_ns[half].Quantile(0.99) / 1e6; }

  void AddLatency(int round, double ms) {
    latency_ms.push_back(ms);
    round_latency_ms[round].push_back(ms);
  }
};

class Bench {
 public:
  Bench(WorkloadSpec spec, std::uint64_t seed, double seconds, int repeats,
        bool trace)
      : spec_(std::move(spec)),
        seed_(seed),
        seconds_(seconds),
        repeats_(repeats),
        trace_(trace),
        config_(ConfigFor(spec_)),
        push_site_(Site("serve.push")),
        batch_push_site_(Site("serve.batch_push")),
        take_site_(Site("serve.take_results")),
        flush_site_(Site("serve.flush")),
        drain_site_(Site("serve.drain")) {}

  void Run(Report* report);
  void PrintSelfTimes() const { spans_.PrintSelfTimes(spec_.name); }

 private:
  void SetupOnce(Report* report);
  AdmitStatus PushRow(std::int64_t stream, int phase, std::int64_t due_ns);
  std::size_t Poll();
  void WarmUp();
  std::int64_t NextStream();
  void Settle();
  void OfflineScore(double seconds);
  void OpenLoop(int phase, double rate, double seconds);
  void Saturate(double seconds, bool last);
  void Gates(Report* report);
  bool VerifyBatchedEqualsSequential(std::string* detail);
  void LayerMicro(Report* report);
  void ReportMetrics(Report* report);
  tfmae::serve::FleetOptions ServeOptions() const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  double seconds_;
  int repeats_;
  bool trace_;
  Spans spans_;
  tfmae::core::TfmaeConfig config_;
  std::unique_ptr<Instance> inst_;
  std::unique_ptr<Replay> replay_;
  std::vector<float> row_;
  std::int64_t cursor_ = 0;  // rows the generator has sent since warm-up

  TraceSite* push_site_;
  TraceSite* batch_push_site_;
  TraceSite* take_site_;
  TraceSite* flush_site_;
  TraceSite* drain_site_;

  // Setup repeats.
  std::vector<double> setup_s_, fit_s_;
  std::vector<double> f1_;
  std::vector<std::uint32_t> test_crc_;
  bool scores_finite_ = true;
  std::int64_t steps_per_fit_ = 0;

  // Serving.
  PhaseStats phases_[kNumPhases];
  int round_ = 0;
  // The first low slice's scores as (stream, seq, bits): its rows do not
  // depend on timing, so its CRC is the same in every run of a seed.
  std::vector<std::array<std::uint32_t, 3>> low_scores_;
  std::int64_t overload_retries_ = 0;
  std::int64_t naps_ = 0;
  std::int64_t unmatched_results_ = 0;
  std::int64_t nonfinite_results_ = 0;
  std::int64_t shed_results_ = 0;
  tfmae::serve::ServeStats stats_start_;
  // Traced runs: saturation rows and time, untraced [0] and traced [1], and
  // the CPU time of the untraced halves.
  double rows_by_half_[2] = {0.0, 0.0};
  double ns_by_half_[2] = {0.0, 0.0};
  double cpu_s_untraced_ = 0.0;
  double sat_cpu_s_ = 0.0;  // CPU time of the saturation slices

  // Offline scoring.
  std::vector<double> score_call_ms_;
  std::int64_t windows_per_score_ = 0;
  bool offline_int8_ = true;  // fleet_int8: every offline call ran int8
};

tfmae::serve::FleetOptions Bench::ServeOptions() const {
  tfmae::serve::FleetOptions options;
  options.streaming.window = config_.window;
  options.streaming.hop = spec_.hop;
  options.max_streams = spec_.streams;
  options.queue_capacity = 4096;
  options.batch_max = spec_.batch_max;
  options.shed_policy = tfmae::serve::ShedPolicy::kRejectNew;
  return options;
}

// Sleeps while the next row is far away, spins through the last stretch so
// rows leave on time.
void WaitUntil(std::int64_t due_ns) {
  for (;;) {
    const std::int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150000));
    } else if (left > 20000) {
      std::this_thread::yield();
    }
  }
}

void Bench::SetupOnce(Report* report) {
  replay_.reset();
  inst_.reset();  // the previous server first, then its detector
  Scope scope(spans_, "bench.setup");
  const std::int64_t t0 = NowNs();
  auto inst = std::make_unique<Instance>();

  inst->dataset = Timed(spans_, Site("data.make_dataset"), [&] {
    return tfmae::data::MakeDataset(ProfileFor(spec_));
  });

  inst->detector = std::make_unique<TfmaeDetector>(config_);
  TfmaeDetector& detector = *inst->detector;
  const std::int64_t t = NowNs();
  Timed(spans_, Site("core.fit"), [&] { detector.Fit(inst->dataset.train); });
  fit_s_.push_back(static_cast<double>(NowNs() - t) / 1e9);
  steps_per_fit_ = detector.train_stats().num_steps;

  if (spec_.int8) {
    detector.SetQuantMode(TfmaeDetector::QuantMode::kInt8);
    std::string error;
    const bool ok = Timed(spans_, Site("core.calibrate"), [&] {
      return detector.Calibrate(inst->dataset.train, &error);
    });
    if (!ok) report->Check("int8_calibration", false, error);
  }
  inst->val_scores = Timed(spans_, Site("core.detector_score"),
                           [&] { return detector.Score(inst->dataset.val); });

  inst->server = std::make_unique<tfmae::serve::FleetServer>(&detector,
                                                             ServeOptions());
  for (std::int64_t s = 0; s < spec_.streams; ++s) inst->server->OpenStream();
  inst->server->CalibrateThreshold(inst->val_scores, kServeAnomalyFraction);
  inst->next_tick.assign(static_cast<std::size_t>(spec_.streams), 0);
  inst->consumed.assign(static_cast<std::size_t>(spec_.streams), 0);
  inst_ = std::move(inst);
  replay_ = std::make_unique<Replay>(&inst_->dataset.test, spec_.streams,
                                     spec_.missing_frac, seed_);

  // Lazy set-up belongs to set-up: fill the first batch_max streams so the
  // first batch runs and every scoring lane captures its plan.
  const std::int64_t prime =
      std::min<std::int64_t>(ServeOptions().batch_max, spec_.streams);
  for (std::int64_t s = 0; s < prime; ++s) {
    for (std::int64_t i = 0; i < config_.window; ++i) PushRow(s, kSetup, 0);
  }
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  // Untimed: the offline answer of this repeat (F1 and score fingerprint).
  const std::vector<float> test_scores =
      Timed(spans_, Site("core.detector_score"),
            [&] { return detector.Score(inst_->dataset.test); });
  for (float v : test_scores) {
    scores_finite_ = scores_finite_ && std::isfinite(v);
  }
  test_crc_.push_back(tfmae::util::Crc32(test_scores.data(),
                                         test_scores.size() * sizeof(float)));
  const tfmae::eval::DetectionReport eval =
      Timed(spans_, Site("eval.evaluate"), [&] {
        return tfmae::eval::EvaluateDetection(inst_->val_scores, test_scores,
                                              inst_->dataset.test.labels,
                                              kEvalAnomalyFraction);
      });
  f1_.push_back(eval.adjusted.f1);
}

// One row through the tools/tfmae_serve protocol: Push; on kOverloaded one
// Flush and a retry, backing off 1 ms doubling to 64 ms, at most
// kMaxAttempts attempts before the row is dropped.
AdmitStatus Bench::PushRow(std::int64_t stream, int phase,
                           std::int64_t due_ns) {
  Instance& in = *inst_;
  const std::size_t si = static_cast<std::size_t>(stream);
  replay_->Fill(stream, in.next_tick[si]++, &row_);
  PhaseStats& ps = phases_[phase];
  ++ps.rows;
  AdmitStatus status = AdmitStatus::kOverloaded;
  std::int64_t backoff_ms = 1;
  for (int attempt = 1;; ++attempt) {
    const bool traced = Spans::active();
    const std::int64_t start = traced ? NowNs() : 0;
    status = in.server->Push(stream, row_);
    const std::int64_t end = traced ? NowNs() : 0;
    if (status == AdmitStatus::kQueued) {
      in.pending[Key(stream, in.consumed[si])] = {phase, round_, due_ns};
      const bool batch_ran = Poll() > 0;
      if (traced) {
        spans_.Leaf(batch_ran ? batch_push_site_ : push_site_, start, end);
      }
    } else if (traced) {
      spans_.Leaf(push_site_, start, end);
    }
    if (status != AdmitStatus::kOverloaded) break;
    ++overload_retries_;
    if (attempt >= kMaxAttempts) break;  // dropped
    Timed(spans_, flush_site_, [&] { in.server->Flush(); });
    Poll();
    if (attempt > 1) {
      ++naps_;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<std::int64_t>(backoff_ms * 2, 64);
    }
  }
  const bool consumed = status == AdmitStatus::kAccepted ||
                        status == AdmitStatus::kQueued ||
                        status == AdmitStatus::kWarmup ||
                        status == AdmitStatus::kQuarantined;
  if (consumed) {
    ++in.consumed[si];
  } else {
    ++ps.failed;
    if (phase == kLow || phase == kHigh) ps.AddLatency(round_, kMissedMs);
  }
  return status;
}

// Collects finished windows; returns how many arrived.
std::size_t Bench::Poll() {
  Instance& in = *inst_;
  const std::vector<tfmae::serve::ScoredWindow> results =
      Timed(spans_, take_site_, [&] { return in.server->TakeResults(); });
  if (results.empty()) return 0;
  const std::int64_t now = NowNs();
  for (const auto& r : results) {
    if (r.shed) ++shed_results_;
    if (!std::isfinite(r.score)) ++nonfinite_results_;
    auto it = in.pending.find(Key(r.stream, r.seq));
    if (it == in.pending.end()) {
      ++unmatched_results_;
      continue;
    }
    const Pending p = it->second;
    in.pending.erase(it);
    PhaseStats& ps = phases_[p.phase];
    ++ps.windows;
    if (p.phase == kLow || p.phase == kHigh) {
      ps.AddLatency(p.round, static_cast<double>(now - p.due_ns) / 1e6);
    }
    if (p.phase == kLow && p.round == 0) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &r.score, sizeof(bits));
      low_scores_.push_back({static_cast<std::uint32_t>(r.stream),
                             static_cast<std::uint32_t>(r.seq), bits});
    }
  }
  return results.size();
}

// Every stream fills its window and scores once. Stream s takes
// window + (s % hop) rows, so rescores are spread evenly over the hop
// instead of arriving as one fleet-wide burst.
void Bench::WarmUp() {
  Scope scope(spans_, "bench.warmup");
  Instance& in = *inst_;
  const std::int64_t rounds = config_.window + spec_.hop - 1;
  for (std::int64_t round = 0; round < rounds; ++round) {
    for (std::int64_t s = 0; s < spec_.streams; ++s) {
      const std::int64_t target = config_.window + s % spec_.hop;
      if (in.next_tick[static_cast<std::size_t>(s)] < target) {
        PushRow(s, kWarmup, 0);
      }
    }
  }
  Timed(spans_, flush_site_, [&] { in.server->Flush(); });
  Poll();
}

// The stream the generator's next row goes to. Every stream gets one row per
// tick; tick t starts at stream (-(t + 1)) mod hop and wraps. After warm-up
// stream s holds window + s % hop rows, so in tick t the streams with
// s % hop == (-(t + 1)) mod hop complete a window, and they sit at every
// hop-th place of the tick: a window completes on every hop-th row, across
// tick ends too (streams is a multiple of hop). Batches then fill in the
// same number of rows wherever a slice starts. In plain tick-major order the
// gap was 7 or 15 rows at tick ends, and on fit_msl a batch's slowest window
// waited one arrival more or less from run to run.
std::int64_t Bench::NextStream() {
  const std::int64_t tick = cursor_ / spec_.streams;
  const std::int64_t place = cursor_ % spec_.streams;
  ++cursor_;
  const std::int64_t first = spec_.hop - 1 - tick % spec_.hop;
  return (first + place) % spec_.streams;
}

void Bench::Settle() {
  Scope scope(spans_, "bench.settle");
  const std::int64_t rows = std::llround(kSettleHighSeconds * spec_.high_rate);
  for (std::int64_t i = 0; i < rows; ++i) {
    PushRow(NextStream(), kWarmup, 0);
  }
  Timed(spans_, flush_site_, [&] { inst_->server->Flush(); });
  Poll();
}

// One slice of offline scoring: Score(test) in a closed loop for `seconds`
// (at least one call).
void Bench::OfflineScore(double seconds) {
  Scope scope(spans_, "bench.offline_score");
  TfmaeDetector& detector = *inst_->detector;
  const tfmae::data::TimeSeries& test = inst_->dataset.test;
  const std::int64_t window = std::min(config_.window, test.length);
  windows_per_score_ = static_cast<std::int64_t>(
      tfmae::data::WindowStarts(test.length, window, window).size());
  const std::int64_t fallbacks = detector.quant_fallbacks();
  const std::int64_t t0 = NowNs();
  const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::int64_t t = NowNs();
    Timed(spans_, Site("core.detector_score"),
          [&] { return detector.Score(test); });
    score_call_ms_.push_back(static_cast<double>(NowNs() - t) / 1e6);
  } while (NowNs() - t0 < budget);
  offline_int8_ = offline_int8_ && detector.quant_fallbacks() == fallbacks &&
                  detector.inference_plan() != nullptr &&
                  detector.inference_plan()->stats().quantized;
}

// One slice of an open-loop phase: row i is due at t0 + i / rate. The slice
// starts with an empty queue and runs on past `seconds` until the batch its
// last window joined has run, so every batch is full and holds windows of
// one slice: a window's place in its batch, hence its wait for the batch to
// fill, is the same in every run, and only the batch's run time varies.
void Bench::OpenLoop(int phase, double rate, double seconds) {
  Scope scope(spans_, phase == kLow ? "phase.low" : "phase.high");
  PhaseStats& ps = phases_[phase];
  const std::int64_t rows = std::llround(rate * seconds);
  const double interval_ns = 1e9 / rate;
  const std::int64_t t0 = NowNs() + 1000000;
  for (std::int64_t i = 0; i < rows || !inst_->pending.empty(); ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    WaitUntil(due);
    AddSample(&ps.lag_ns[2 * i < rows ? 0 : 1], NowNs() - due);
    PushRow(NextStream(), phase, due);
  }
  ps.seconds += static_cast<double>(NowNs() - t0) / 1e9;
}

// One slice of the closed-loop saturation phase. It ends by scoring every
// queued window, which the slice's time includes: with Flush, so the next
// open-loop slice starts from an empty queue, or, in the last slice, with
// the run's final Drain. A traced run traces the second half of each slice
// and reports the rate the traced halves lost against the untraced ones.
void Bench::Saturate(double seconds, bool last) {
  Scope scope(spans_, "phase.saturation");
  PhaseStats& ps = phases_[kSaturation];
  const std::int64_t t0 = NowNs();
  const std::int64_t half = t0 + static_cast<std::int64_t>(seconds * 0.5e9);
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t rows0 = ps.rows;
  const double cpu0 = ProcessCpuSeconds();
  std::int64_t t_half = 0;
  std::int64_t rows_half = 0;
  double cpu_half = 0.0;
  if (trace_) tfmae::obs::SetEnabled(false);
  std::int64_t now = t0;
  while (now < end) {
    for (int i = 0; i < 64; ++i) {
      PushRow(NextStream(), kSaturation, 0);
    }
    now = NowNs();
    if (t_half == 0 && now >= half) {
      t_half = now;
      rows_half = ps.rows;
      cpu_half = ProcessCpuSeconds();
      if (trace_) tfmae::obs::SetEnabled(true);
    }
  }
  if (trace_) {
    rows_by_half_[0] += static_cast<double>(rows_half - rows0);
    ns_by_half_[0] += static_cast<double>(t_half - t0);
    cpu_s_untraced_ += cpu_half - cpu0;
    rows_by_half_[1] += static_cast<double>(ps.rows - rows_half);
    ns_by_half_[1] += static_cast<double>(now - t_half);
  }
  Instance& in = *inst_;
  if (last) {
    Timed(spans_, drain_site_, [&] { in.server->Drain(); });
  } else {
    Timed(spans_, flush_site_, [&] { in.server->Flush(); });
  }
  Poll();
  ps.seconds += static_cast<double>(NowNs() - t0) / 1e9;
  sat_cpu_s_ += ProcessCpuSeconds() - cpu0;
}

// tools/tfmae_serve --verify: replay 4 streams through a fresh server and
// through sequential StreamingDetectors; every score must match bitwise.
bool Bench::VerifyBatchedEqualsSequential(std::string* detail) {
  TfmaeDetector& detector = *inst_->detector;
  tfmae::serve::FleetOptions options = ServeOptions();
  options.max_streams = 4;
  std::vector<std::int64_t> picks;
  tfmae::Rng rng(seed_ ^ 0x5EEDULL);
  while (picks.size() < 4 &&
         static_cast<std::int64_t>(picks.size()) < spec_.streams) {
    const std::int64_t s = static_cast<std::int64_t>(
        rng.NextU64() % static_cast<std::uint64_t>(spec_.streams));
    if (std::find(picks.begin(), picks.end(), s) == picks.end()) {
      picks.push_back(s);
    }
  }
  const std::int64_t ticks = config_.window + 8 * spec_.hop;  // 9 windows
  std::vector<float> row;
  tfmae::serve::FleetServer check(&detector, options);
  for (std::size_t i = 0; i < picks.size(); ++i) check.OpenStream();
  for (std::int64_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < picks.size(); ++i) {
      replay_->Fill(picks[i], t, &row);
      check.Push(static_cast<std::int64_t>(i), row);
    }
  }
  check.Drain();
  std::vector<std::vector<float>> batched(picks.size());
  for (const auto& r : check.TakeResults()) {
    batched[static_cast<std::size_t>(r.stream)].push_back(r.score);
  }
  std::int64_t compared = 0;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    tfmae::core::StreamingDetector sequential(&detector, options.streaming);
    std::vector<float> reference;
    std::int64_t since = 0;
    bool scored_once = false;
    for (std::int64_t t = 0; t < ticks; ++t) {
      replay_->Fill(picks[i], t, &row);
      const auto r = sequential.Push(row);
      if (!r.has_value()) continue;
      if (++since >= options.streaming.hop || !scored_once) {
        reference.push_back(r->score);
        scored_once = true;
        since = 0;
      }
    }
    const std::vector<float>& got = batched[i];
    if (got.size() != reference.size() || got.empty() ||
        std::memcmp(got.data(), reference.data(),
                    got.size() * sizeof(float)) != 0) {
      *detail = "stream " + std::to_string(picks[i]) + " differs";
      return false;
    }
    compared += static_cast<std::int64_t>(got.size());
  }
  *detail = std::to_string(compared) + " windows on " +
            std::to_string(picks.size()) + " streams, bitwise";
  return true;
}

std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

void Bench::Gates(Report* report) {
  Instance& in = *inst_;
  const tfmae::serve::ServeStats s = in.server->stats();
  report->Check("windows_scored==enqueued",
                s.windows_scored == s.windows_enqueued,
                std::to_string(s.windows_scored) + " of " +
                    std::to_string(s.windows_enqueued));
  report->Check("eager_windows==0", s.eager_windows == 0,
                std::to_string(s.eager_windows) + " eager");
  report->Check("results_matched",
                in.pending.empty() && unmatched_results_ == 0 &&
                    shed_results_ == 0,
                std::to_string(in.pending.size()) + " outstanding, " +
                    std::to_string(unmatched_results_) + " unmatched, " +
                    std::to_string(shed_results_) + " shed");
  report->Check("scores_finite", nonfinite_results_ == 0 && scores_finite_,
                std::to_string(nonfinite_results_) + " non-finite served");
  if (spec_.int8) {
    // ServeStats::quant_fallbacks adds the detector's own fallbacks: a
    // Score() whose int8 capture missed the self-check envelope on its first
    // window runs fp32 once (the threshold scores of set-up may). Those
    // leave the served and the offline measurements int8; the lanes' and
    // the offline phase's own fallbacks do not.
    const std::int64_t detector_fallbacks = in.detector->quant_fallbacks();
    const std::int64_t lane_fallbacks = s.quant_fallbacks - detector_fallbacks;
    report->Check("int8_lanes",
                  s.plan_lanes > 0 && s.quant_lanes == s.plan_lanes &&
                      lane_fallbacks == 0,
                  std::to_string(s.quant_lanes) + "/" +
                      std::to_string(s.plan_lanes) + " lanes int8, " +
                      std::to_string(lane_fallbacks) + " lane fallbacks, " +
                      std::to_string(detector_fallbacks) +
                      " in set-up Score()");
    report->Check("int8_offline", offline_int8_,
                  offline_int8_ ? "every offline Score() ran int8"
                                : "an offline Score() ran fp32");
  }
  bool same = true;
  for (std::size_t k = 1; k < f1_.size(); ++k) {
    same = same && f1_[k] == f1_[0] && test_crc_[k] == test_crc_[0];
  }
  char detail[128];
  std::snprintf(detail, sizeof(detail), "%zu repeats, f1_pa %.4f, test crc %s",
                f1_.size(), f1_.empty() ? 0.0 : f1_[0],
                test_crc_.empty() ? "-" : Hex(test_crc_[0]).c_str());
  report->Check("repeats_identical", same && !f1_.empty(), detail);
  std::string verify_detail;
  const bool verified = VerifyBatchedEqualsSequential(&verify_detail);
  report->Check("batched==sequential", verified, verify_detail);

  std::sort(low_scores_.begin(), low_scores_.end());
  const std::uint32_t low_crc = tfmae::util::Crc32(
      low_scores_.data(), low_scores_.size() * sizeof(low_scores_[0]));
  std::printf("  low-phase score crc %s over the first slice's %zu windows\n",
              Hex(low_crc).c_str(), low_scores_.size());
  report->samples["low_crc"] = low_crc;
}

// The traced run's per-layer calls: each public function timed from outside
// on the windows this workload scores, plus a replica of Fit's step loop on
// a fresh model. Each reconciliation times its whole and its parts back to
// back, so both see the same host conditions.
void Bench::LayerMicro(Report* report) {
  Scope scope(spans_, "bench.layers");
  TfmaeDetector& detector = *inst_->detector;
  const tfmae::core::TfmaeModel& model = *detector.model();
  const std::int64_t n_feat = model.num_features();
  // Windows exactly as TfmaeDetector::Score forms them.
  const auto windows_of = [&](const tfmae::data::TimeSeries& series,
                              std::int64_t stride) {
    const tfmae::data::TimeSeries norm = detector.normalizer().Apply(series);
    const std::int64_t w = std::min(config_.window, norm.length);
    std::vector<std::vector<float>> out;
    for (std::int64_t start :
         tfmae::data::WindowStarts(norm.length, w, stride)) {
      const auto first =
          norm.values.begin() + static_cast<std::ptrdiff_t>(start * n_feat);
      std::vector<float> values(
          first, first + static_cast<std::ptrdiff_t>(w * n_feat));
      if (config_.per_window_normalization) {
        tfmae::core::PerWindowNormalize(&values, w, n_feat);
      }
      out.push_back(std::move(values));
    }
    return out;
  };
  const tfmae::data::TimeSeries& test = inst_->dataset.test;
  const auto test_windows = windows_of(test, config_.window);
  const std::int64_t w =
      static_cast<std::int64_t>(test_windows[0].size()) / n_feat;

  tfmae::Rng rng(config_.seed);
  std::vector<tfmae::core::MaskedWindow> masked;
  for (const auto& values : test_windows) {
    masked.push_back(model.PrepareWindow(values, &rng));
  }
  std::vector<float> out;
  std::string error;
  auto plan = Timed(spans_, Site("core.plan_capture"), [&] {
    return tfmae::core::InferencePlan::Capture(model, masked[0], &out, &error);
  });
  report->Check("fp32_plan_capture", plan != nullptr, error);
  if (!detector.has_quant_spec()) {
    const bool ok = Timed(spans_, Site("core.calibrate"), [&] {
      return detector.Calibrate(inst_->dataset.train, &error);
    });
    report->Check("int8_calibration", ok, error);
  }
  auto quant_plan = Timed(spans_, Site("core.plan_capture_int8"), [&] {
    return tfmae::core::InferencePlan::Capture(model, masked[0], &out, &error,
                                               &detector.quant_spec());
  });
  report->Check("int8_plan_capture", quant_plan != nullptr, error);
  if (plan == nullptr || quant_plan == nullptr) return;
  for (std::size_t i = 0; i < std::min<std::size_t>(16, masked.size()); ++i) {
    Timed(spans_, Site("core.eager_score"),
          [&] { return model.ScoreWindow(masked[i]); });
  }

  // Score reconciliation: one Score(test) call against the same windows'
  // PrepareWindow + replay calls at the precision Score() serves, in five
  // interleaved rounds. The other precision's replay is timed after each
  // round and left out of the sum.
  detector.Score(test);  // re-captures the detector's plan after Calibrate
  tfmae::core::InferencePlan& served = spec_.int8 ? *quant_plan : *plan;
  tfmae::core::InferencePlan& other = spec_.int8 ? *plan : *quant_plan;
  TraceSite* served_site =
      Site(spec_.int8 ? "core.replay_int8" : "core.replay_fp32");
  TraceSite* other_site =
      Site(spec_.int8 ? "core.replay_fp32" : "core.replay_int8");
  TraceSite* prepare_site = Site("core.prepare");
  std::vector<double> whole_ms, parts_ms;
  for (int round = 0; round < 5; ++round) {
    std::int64_t t = NowNs();
    Timed(spans_, Site("core.detector_score"),
          [&] { return detector.Score(test); });
    whole_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    t = NowNs();
    for (std::size_t i = 0; i < test_windows.size(); ++i) {
      masked[i] = Timed(spans_, prepare_site, [&] {
        return model.PrepareWindow(test_windows[i], &rng);
      });
    }
    for (const auto& m : masked) {
      Timed(spans_, served_site, [&] { served.Score(m, &out); });
    }
    parts_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    for (const auto& m : masked) {
      Timed(spans_, other_site, [&] { other.Score(m, &out); });
    }
  }
  const double score_ratio = Median(parts_ms) / Median(whole_ms);

  // Masking and FFT at this workload's window, one column at a time.
  std::vector<float> column(static_cast<std::size_t>(w));
  std::vector<tfmae::fft::Complex> spectrum_in(static_cast<std::size_t>(w));
  TraceSite* temporal_site = Site("masking.temporal");
  TraceSite* frequency_site = Site("masking.frequency");
  TraceSite* fft_site = Site("fft.fft");
  for (std::size_t i = 0; i < std::min<std::size_t>(32, test_windows.size());
       ++i) {
    const auto& values = test_windows[i];
    Timed(spans_, temporal_site, [&] {
      return tfmae::masking::ComputeTemporalMask(
          values, w, n_feat, config_.cv_window, config_.temporal_mask_ratio,
          config_.temporal_mask, config_.cv_method, &rng);
    });
    for (std::int64_t f = 0; f < n_feat; ++f) {
      for (std::int64_t t = 0; t < w; ++t) {
        column[static_cast<std::size_t>(t)] =
            values[static_cast<std::size_t>(t * n_feat + f)];
        spectrum_in[static_cast<std::size_t>(t)] =
            tfmae::fft::Complex(column[static_cast<std::size_t>(t)], 0.0);
      }
      Timed(spans_, frequency_site, [&] {
        return tfmae::masking::MaskFrequencyColumn(
            column, config_.frequency_mask_ratio, config_.frequency_mask, &rng);
      });
      Timed(spans_, fft_site, [&] { return tfmae::fft::Fft(spectrum_in); });
    }
  }

  // Fit reconciliation: one more Fit against its parts, the mask precompute
  // and a replica of its step loop (Forward, Loss, Backward, guard, Adam) on
  // a fresh model. The Fit runs between the replica's two halves, so whole
  // and parts see the same stretch of the host.
  const tfmae::data::TimeSeries& train = inst_->dataset.train;
  const auto train_windows =
      windows_of(train, config_.stride > 0 ? config_.stride : config_.window);
  std::vector<tfmae::core::MaskedWindow> train_masked;
  std::int64_t t = NowNs();
  Timed(spans_, Site("core.mask_precompute"), [&] {
    for (const auto& values : train_windows) {
      train_masked.push_back(model.PrepareWindow(values, &rng));
    }
  });
  const double mask_s = static_cast<double>(NowNs() - t) / 1e9;
  constexpr int kReplicaSteps = 64;
  tfmae::Rng init_rng(config_.seed);
  tfmae::core::TfmaeModel fresh(n_feat, config_, &init_rng);
  tfmae::nn::AdamOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_options.clip_grad_norm = config_.clip_grad_norm;
  tfmae::nn::Adam adam(fresh.Parameters(), adam_options);
  tfmae::nn::NumericGuard guard(&adam);
  const float inv_batch =
      1.0f / static_cast<float>(std::max<std::int64_t>(1, config_.batch_size));
  TraceSite* forward_site = Site("core.forward");
  TraceSite* loss_site = Site("core.loss");
  TraceSite* backward_site = Site("tensor.backward");
  TraceSite* guard_site = Site("nn.numeric_guard");
  TraceSite* adam_site = Site("nn.adam_step");
  TfmaeDetector refit(config_);
  double fit_whole_s = 0.0;
  std::vector<double> step_ms;
  // Pool traffic of the replica's steps only (the Fit's is taken out).
  std::int64_t hits = -tfmae::pool::Stats().hits;
  std::int64_t heap = -tfmae::pool::Stats().HeapAllocs();
  for (int step = 0; step < kReplicaSteps; ++step) {
    if (step == kReplicaSteps / 2) {
      hits += tfmae::pool::Stats().hits;
      heap += tfmae::pool::Stats().HeapAllocs();
      t = NowNs();
      Timed(spans_, Site("core.fit"), [&] { refit.Fit(train); });
      fit_whole_s = static_cast<double>(NowNs() - t) / 1e9;
      hits -= tfmae::pool::Stats().hits;
      heap -= tfmae::pool::Stats().HeapAllocs();
    }
    const auto& window =
        train_masked[static_cast<std::size_t>(step) % train_masked.size()];
    t = NowNs();
    const auto views =
        Timed(spans_, forward_site, [&] { return fresh.Forward(window); });
    const tfmae::Tensor loss = Timed(spans_, loss_site, [&] {
      return tfmae::ops::Scale(fresh.Loss(views), inv_batch);
    });
    Timed(spans_, backward_site, [&] { loss.Backward(); });
    const bool healthy = Timed(spans_, guard_site,
                               [&] { return guard.PreStep(loss.item()); });
    Timed(spans_, adam_site, [&] {
      if (healthy) adam.Step();
      fresh.ZeroGrad();
    });
    Timed(spans_, guard_site, [&] { guard.CommitGoodStep(); });
    step_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
  }
  hits += tfmae::pool::Stats().hits;
  heap += tfmae::pool::Stats().HeapAllocs();
  report->Set("tensor.pool_hit_rate",
              hits + heap > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(hits + heap)
                              : 1.0,
              "fraction");
  report->Set("tensor.allocs_per_step",
              static_cast<double>(heap) / kReplicaSteps, "count");

  const std::int64_t steps = refit.train_stats().num_steps;
  double step_mean_ms = 0.0;
  for (double ms : step_ms) step_mean_ms += ms / kReplicaSteps;
  const double fit_parts_s =
      mask_s + static_cast<double>(steps) * step_mean_ms / 1e3;
  const double fit_ratio = fit_parts_s / fit_whole_s;
  const auto verdict = [](double ratio) {
    return std::abs(ratio - 1.0) <= 0.15 ? "within 15%" : "NOT within 15%";
  };
  std::printf("reconcile fit:   mask precompute %.3f s + %lld steps x %.3f ms "
              "= %.3f s vs Fit %.3f s: ratio %.3f (%s)\n",
              mask_s, static_cast<long long>(steps), step_mean_ms,
              fit_parts_s, fit_whole_s, fit_ratio, verdict(fit_ratio));
  std::printf("reconcile score: %zu x (PrepareWindow + replay) = %.2f ms vs "
              "Score %.2f ms: ratio %.3f (%s)\n",
              test_windows.size(), Median(parts_ms), Median(whole_ms),
              score_ratio, verdict(score_ratio));
  report->Set("recon.fit_ratio", fit_ratio, "fraction");
  report->Set("recon.score_ratio", score_ratio, "fraction");
}

void Bench::ReportMetrics(Report* report) {
  const tfmae::serve::ServeStats s = inst_->server->stats();
  // End-to-end.
  // p99 is the median of the rounds' own p99s: on fit_msl a round holds
  // ~24 windows, so its p99 is its slowest batch, and one host stall in one
  // round moved a pooled p99 by a tenth.
  for (int phase : {kLow, kHigh}) {
    PhaseStats& ps = phases_[phase];
    std::sort(ps.latency_ms.begin(), ps.latency_ms.end());
    std::vector<double> round_p99;
    for (std::vector<double>& lat : ps.round_latency_ms) {
      if (lat.empty()) continue;
      std::sort(lat.begin(), lat.end());
      round_p99.push_back(Percentile(lat, 0.99));
    }
    const std::string suffix = phase == kLow ? "_low" : "_high";
    report->Set("p50_ms" + suffix, MiddleTenthMean(ps.latency_ms), "ms");
    report->Set("p99_ms" + suffix, Median(round_p99), "ms");
  }
  report->Set("setup_s", Median(setup_s_), "s");
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  report->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "MiB");
  report->Set("f1_pa", f1_.empty() ? 0.0 : f1_[0], "fraction");

  // Throughput and fit time follow the host's speed, which drifts by more
  // than a tenth between runs, so they are per-layer metrics; an untraced
  // run reports them too. In a traced run, capacity counts only the
  // untraced halves of the saturation slices.
  const PhaseStats& sat = phases_[kSaturation];
  report->Set("serve.capacity_rows_per_s",
              trace_ ? rows_by_half_[0] * 1e9 / ns_by_half_[0]
                     : static_cast<double>(sat.rows) / sat.seconds,
              "rows/s");
  // The CPU cost of the same rows: wall-time capacity also counts the time
  // the threads wait for a CPU of a shared host, and spread by a third
  // between runs where this spread by a twentieth.
  report->Set("serve.cpu_us_per_row",
              1e6 * (trace_ ? cpu_s_untraced_ / rows_by_half_[0]
                            : sat_cpu_s_ / static_cast<double>(sat.rows)),
              "us");
  report->Set("core.fit_s", Median(fit_s_), "s");
  report->Set("core.detector_score_ms", Median(score_call_ms_), "ms");

  // Failures, reported in every run.
  std::int64_t open_rows = 0;
  std::int64_t open_failed = 0;
  for (int phase : {kLow, kHigh, kSaturation}) {
    report->attempted += phases_[phase].rows;
    report->failed += phases_[phase].failed;
  }
  for (int phase : {kLow, kHigh}) {
    open_rows += phases_[phase].rows;
    open_failed += phases_[phase].failed;
  }
  report->Set("serve.failed_frac",
              open_rows > 0 ? static_cast<double>(open_failed) /
                                  static_cast<double>(open_rows)
                            : 0.0,
              "fraction");

  for (int phase = 0; phase < kNumPhases; ++phase) {
    const PhaseStats& ps = phases_[phase];
    const std::string p = kPhaseNames[phase];
    report->samples[p + ".rows"] = ps.rows;
    report->samples[p + ".windows"] = ps.windows;
    report->samples[p + ".failed"] = ps.failed;
    if (phase == kLow || phase == kHigh) {
      report->samples[p + ".latency_samples"] =
          static_cast<std::int64_t>(ps.latency_ms.size());
    }
  }
  report->samples["setup.repeats"] = static_cast<std::int64_t>(setup_s_.size());
  report->samples["offline.score_calls"] =
      static_cast<std::int64_t>(score_call_ms_.size());
  report->samples["offline.windows_per_call"] = windows_per_score_;

  if (!trace_) return;
  // Per-layer, from the obs Registry's histograms and the server's counters.
  const tfmae::obs::MetricsSnapshot snap =
      tfmae::obs::Registry::Instance().Snapshot();
  const auto hist = [&](const char* site) {
    return snap.Histogram(std::string(site) + ".time_ns");
  };
  const auto q = [&](const char* site, double quantile, double scale) {
    const tfmae::obs::HistogramSnapshot* h = hist(site);
    return h == nullptr ? 0.0 : h->Quantile(quantile) / scale;
  };
  const auto mean = [&](const char* site, double scale) {
    const tfmae::obs::HistogramSnapshot* h = hist(site);
    return h == nullptr ? 0.0 : h->Mean() / scale;
  };
  report->Set("serve.push_us_p50", q("serve.push", 0.50, 1e3), "us");
  report->Set("serve.push_us_p99", q("serve.push", 0.99, 1e3), "us");
  report->Set("serve.batch_push_ms_p50", q("serve.batch_push", 0.50, 1e6),
              "ms");
  report->Set("serve.batch_push_ms_p99", q("serve.batch_push", 0.99, 1e6),
              "ms");
  report->Set("serve.take_results_us_p50", q("serve.take_results", 0.50, 1e3),
              "us");
  // Counter deltas since the end of warm-up, per window scored.
  const tfmae::serve::ServeStats& s0 = stats_start_;
  const double windows =
      static_cast<double>(s.windows_scored - s0.windows_scored);
  const auto per_window = [&](std::int64_t delta, double scale) {
    return windows > 0 ? static_cast<double>(delta) / windows / scale : 0.0;
  };
  report->Set("serve.windows_per_batch",
              windows / static_cast<double>(
                            std::max<std::int64_t>(1, s.batches - s0.batches)),
              "count");
  report->Set("serve.queue_wait_ms_mean",
              per_window(s.stage_queue_ns - s0.stage_queue_ns, 1e6), "ms");
  report->Set("serve.prep_us_per_window",
              per_window(s.stage_batch_ns - s0.stage_batch_ns, 1e3), "us");
  report->Set("serve.score_us_per_window",
              per_window(s.stage_score_ns - s0.stage_score_ns, 1e3), "us");
  report->Set("serve.result_us_per_window",
              per_window(s.stage_result_ns - s0.stage_result_ns, 1e3), "us");
  report->Set("serve.eager_window_frac",
              per_window(s.eager_windows - s0.eager_windows, 1.0), "fraction");
  report->Set("serve.overloaded_frac",
              static_cast<double>(s.rows_overloaded - s0.rows_overloaded) /
                  static_cast<double>(
                      std::max<std::int64_t>(1, report->attempted)),
              "fraction");
  report->Set("serve.bytes_per_stream",
              static_cast<double>(s.bytes_per_stream), "bytes");
  report->Set("serve.peak_queue_depth",
              static_cast<double>(s.peak_queue_depth), "count");
  report->Set("loadgen.lag_ms_p99",
              std::max({phases_[kLow].LagP99Ms(0), phases_[kLow].LagP99Ms(1),
                        phases_[kHigh].LagP99Ms(0),
                        phases_[kHigh].LagP99Ms(1)}),
              "ms");
  report->Set("core.prepare_us", q("core.prepare", 0.50, 1e3), "us");
  report->Set("core.replay_fp32_us", q("core.replay_fp32", 0.50, 1e3), "us");
  report->Set("core.replay_int8_us", q("core.replay_int8", 0.50, 1e3), "us");
  report->Set("core.eager_score_us", q("core.eager_score", 0.50, 1e3), "us");
  report->Set("core.plan_capture_ms", q("core.plan_capture", 0.50, 1e6), "ms");
  report->Set("core.calibrate_ms", q("core.calibrate", 0.50, 1e6), "ms");
  report->Set("core.mask_precompute_s", q("core.mask_precompute", 0.50, 1e9),
              "s");
  report->Set("core.forward_ms", mean("core.forward", 1e6), "ms");
  report->Set("core.loss_ms", mean("core.loss", 1e6), "ms");
  report->Set("tensor.backward_ms", mean("tensor.backward", 1e6), "ms");
  report->Set("nn.adam_step_ms", mean("nn.adam_step", 1e6), "ms");
  report->Set("nn.numeric_guard_ms", 2.0 * mean("nn.numeric_guard", 1e6),
              "ms");
  report->Set("masking.temporal_us", q("masking.temporal", 0.50, 1e3), "us");
  report->Set("masking.frequency_us", q("masking.frequency", 0.50, 1e3), "us");
  report->Set("fft.fft_us", q("fft.fft", 0.50, 1e3), "us");
  report->Set("eval.evaluate_ms", q("eval.evaluate", 0.50, 1e6), "ms");
  report->Set("data.make_dataset_ms", q("data.make_dataset", 0.50, 1e6), "ms");
  report->Set("trace_overhead_frac",
              1.0 - (rows_by_half_[1] / ns_by_half_[1]) /
                        (rows_by_half_[0] / ns_by_half_[0]),
              "fraction");
}

void Bench::Run(Report* report) {
  Scope scope(spans_, "bench.run");
  for (int k = 0; k < repeats_; ++k) SetupOnce(report);
  std::printf("setup: %d repeats, median %.3f s (fit %.3f s, %lld steps)\n",
              repeats_, Median(setup_s_), Median(fit_s_),
              static_cast<long long>(steps_per_fit_));
  WarmUp();
  Settle();
  stats_start_ = inst_->server->stats();
  // The host's speed drifts over seconds, so each phase is cut into
  // kRounds slices taken in turn; every phase then samples the whole run.
  for (round_ = 0; round_ < kRounds; ++round_) {
    OfflineScore(kOfflineShare * seconds_ / kRounds);
    OpenLoop(kLow, spec_.low_rate, kLowShare * seconds_ / kRounds);
    OpenLoop(kHigh, spec_.high_rate, kHighShare * seconds_ / kRounds);
    Saturate(kSaturationShare * seconds_ / kRounds, round_ == kRounds - 1);
  }
  Gates(report);
  if (trace_) LayerMicro(report);
  ReportMetrics(report);

  for (int phase = 0; phase < kNumPhases; ++phase) {
    PhaseStats& ps = phases_[phase];
    std::printf("phase %-10s %9lld rows %8lld windows %5lld failed",
                kPhaseNames[phase], static_cast<long long>(ps.rows),
                static_cast<long long>(ps.windows),
                static_cast<long long>(ps.failed));
    if (phase == kLow || phase == kHigh) {
      // Every inline batch holds the generator for one batch time, so the
      // lag itself is about a batch time; a phase is sustained when the
      // generator does not fall further behind from its first half to its
      // second.
      const double first = ps.LagP99Ms(0);
      const double second = ps.LagP99Ms(1);
      const std::size_t n = ps.latency_ms.size();
      std::printf("  %.2f s, %zu latency samples (%zu beyond p99), lag p99 "
                  "%.2f ms then %.2f ms (%s)",
                  ps.seconds, n, n - static_cast<std::size_t>(std::ceil(
                                         0.99 * static_cast<double>(n))),
                  first, second,
                  second - first <= 50.0 ? "sustained" : "NOT sustained");
    } else if (phase == kSaturation) {
      std::printf("  %.2f s", ps.seconds);
    }
    std::printf("\n");
  }
  std::printf("offline: %zu Score() calls x %lld windows, median %.1f ms\n",
              score_call_ms_.size(), static_cast<long long>(windows_per_score_),
              Median(score_call_ms_));
  std::printf("overload: %lld retries, %lld naps\n",
              static_cast<long long>(overload_retries_),
              static_cast<long long>(naps_));
}

void PrintResult(const Report& report, const std::string& workload,
                 std::uint64_t seed, bool trace) {
  using tfmae::obs::JsonQuote;
  std::string out = "RESULT {\"workload\":" + JsonQuote(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"trace\":" + (trace ? "1" : "0") +
                    ",\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    out += (first ? "" : ",") + JsonQuote(name) +
           ":{\"value\":" + Num(m.value) + ",\"unit\":" + JsonQuote(m.unit) +
           "}";
    first = false;
  }
  out += "},\"gates\":[";
  first = true;
  for (const auto& g : report.gates) {
    out += std::string(first ? "" : ",") + "{\"name\":" + JsonQuote(g.name) +
           ",\"ok\":" + (g.ok ? "true" : "false") +
           ",\"detail\":" + JsonQuote(g.detail) + "}";
    first = false;
  }
  out += "],\"samples\":{";
  first = true;
  for (const auto& [name, n] : report.samples) {
    out += (first ? "" : ",") + JsonQuote(name) + ":" + std::to_string(n);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string FlagValue(int argc, char** argv, const std::string& prefix,
                      const std::string& fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = FlagValue(argc, argv, "--workload=", "");
  const std::uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "--seed=", "1").c_str(), nullptr, 10);
  const double seconds =
      std::atof(FlagValue(argc, argv, "--seconds=", "16").c_str());
  const bool trace = FlagValue(argc, argv, "--trace=", "0") == "1";
  int repeats = std::atoi(FlagValue(argc, argv, "--repeats=", "0").c_str());
  const std::string trace_out = FlagValue(argc, argv, "--trace_out=", "");
  const std::string git_rev = FlagValue(argc, argv, "--git_rev=", "unknown");

  const std::optional<WorkloadSpec> spec = FindWorkload(workload);
  if (spec.has_value() && repeats == 0) repeats = spec->repeats;
  if (!spec.has_value() || seconds <= 0.0 || repeats < 1) {
    std::fprintf(stderr,
                 "usage: tfmae_bench --workload=fleet_fp32|fleet_int8|"
                 "fleet_wide|fit_msl [--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--repeats=K] [--trace_out=PATH] [--git_rev=REV]\n");
    return 2;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  const int nproc = CPU_COUNT(&allowed);  // what `nproc` reports
  const int threads = tfmae::ThreadPool::Instance().num_threads();
  if (threads > nproc) {
    std::fprintf(stderr,
                 "tfmae_bench: %d pool threads > %d processors; set "
                 "TFMAE_NUM_THREADS <= nproc\n",
                 threads, nproc);
    return 2;
  }
  std::printf(
      "tfmae_bench workload=%s seed=%llu seconds=%g trace=%d repeats=%d\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, repeats);
  std::printf("provenance: nproc=%d cpu=\"%s\" pool_threads=%d build=\"%s\" "
              "git=%s\n",
              nproc, CpuModel().c_str(), threads, TFMAE_BENCH_BUILD_FLAGS,
              git_rev.c_str());
  std::fflush(stdout);

  // The bench build compiles the library's own instrumentation out, so
  // obs::Enabled() switches only the driver's spans.
  tfmae::obs::SetEnabled(trace);
  if (trace) tfmae::obs::StartTracing();
  Bench bench(*spec, seed, seconds, repeats, trace);
  Report report;
  bench.Run(&report);
  tfmae::obs::SetEnabled(false);
  if (trace) {
    tfmae::obs::StopTracing();
    bench.PrintSelfTimes();
    if (!trace_out.empty()) {
      const bool written = tfmae::obs::WriteChromeTrace(trace_out);
      report.Check("trace_written", written, trace_out);
      if (written) {
        std::printf("chrome trace written to %s\n", trace_out.c_str());
      }
    }
  }
  PrintResult(report, workload, seed, trace);
  return 0;
}
