// RAII scoped timers, trace-event capture, and the instrumentation macros.
//
// Hot paths are instrumented with the macros defined at the bottom of this
// header:
//
//   void Gemm(...) {
//     TFMAE_TRACE("tensor.gemm");                  // RAII scope timer
//     TFMAE_COUNTER_ADD("tensor.gemm.flops", 2 * m * k * n);
//     ...
//   }
//
// Each TFMAE_TRACE site feeds three metrics — `<site>.time_ns` (histogram),
// `<site>.calls` and `<site>.total_ns` (counters) — and, while tracing is
// active, appends a complete-event record consumable as a chrome://tracing
// timeline (obs/export.h).
//
// Gating (the instrumentation contract, docs/OBSERVABILITY.md): every site
// is compiled into every build and records only while Enabled() —
// initialized from the TFMAE_OBS environment variable (TFMAE_OBS=1 turns
// collection on) and settable programmatically. A disabled site costs one
// relaxed atomic load and a branch: each macro tests Enabled() before the
// function-local static that registers its metric, so not even the static's
// guard is on the disabled path.
#ifndef TFMAE_OBS_TRACE_H_
#define TFMAE_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace tfmae::obs {

namespace internal {
/// Runtime collection switch. Read on every instrumented call; do not
/// touch directly — use Enabled()/SetEnabled().
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True iff recording is enabled at runtime. Defaults from the TFMAE_OBS
/// environment variable ("1"/"true"/"on" enable).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns runtime recording on or off (overrides the environment default).
void SetEnabled(bool on);

/// Monotonic nanoseconds since an arbitrary process-wide origin (captured
/// on first use). All trace timestamps share this origin.
std::uint64_t NowNs();

/// One TFMAE_TRACE call site: the interned name plus the metric ids it
/// records into. Obtained once per site via a function-local static.
struct TraceSite {
  const char* name;
  int hist_time_ns;    ///< histogram `<name>.time_ns`
  int counter_calls;   ///< counter `<name>.calls`
  int counter_total;   ///< counter `<name>.total_ns`
};

/// Registers (or looks up) the site named `name`. Thread-safe; the returned
/// pointer is valid for the process lifetime.
TraceSite* GetTraceSite(const char* name);

/// Scope timer for one site. If recording is disabled at construction (or
/// `site` is null, as TFMAE_TRACE passes on its disabled path) the destructor
/// does nothing: the scope is not retroactively recorded when recording
/// flips on mid-scope.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSite* site) {
    if (site != nullptr && Enabled()) {
      site_ = site;
      start_ = NowNs();
    }
  }
  ~ScopedTrace() {
    if (site_ != nullptr) Record();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  void Record();  // out of line: histogram + counters + trace event

  TraceSite* site_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Accumulates one autograd backward-node execution into
/// `autograd.<op>.self_ns` / `autograd.<op>.calls`. `op` must be a string
/// with process lifetime (op names are literals); ids are cached by
/// pointer identity.
void AutogradRecord(const char* op, std::uint64_t self_ns);

// ---- Trace-event capture (chrome://tracing timelines) ----------------------

/// A completed TFMAE_TRACE scope captured while tracing was active.
struct TraceEvent {
  const TraceSite* site;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// Starts capturing trace events, up to `max_events_per_thread` per thread
/// (further events are dropped and counted, not resized — capture must not
/// perturb the workload it measures). Implies nothing about Enabled();
/// recording still requires it.
void StartTracing(std::size_t max_events_per_thread = std::size_t{1} << 16);

/// Stops capture. Captured events remain available to CollectTraceEvents.
void StopTracing();

/// True while trace events are being captured.
bool TracingActive();

/// All captured events as (thread index, event), in per-thread capture
/// order; thread indices are assigned in buffer-creation order.
std::vector<std::pair<int, TraceEvent>> CollectTraceEvents();

/// Appends one manually-timed event to the calling thread's capture buffer
/// (no-op unless tracing is active; over-capacity events are dropped and
/// counted like ScopedTrace's). For spans whose begin and end are observed
/// on different threads or reconstructed after the fact — e.g. the serving
/// plane's sampled window timelines, where a window's queue wait starts on
/// the pushing thread and ends on the scoring thread. `start_ns` must come
/// from NowNs() so the span lands on the shared timeline origin.
void AppendTraceEvent(const TraceSite* site, std::uint64_t start_ns,
                      std::uint64_t dur_ns);

/// Discards captured events and resets the dropped-event count.
void ClearTraceEvents();

/// Events dropped because a per-thread buffer was full.
std::uint64_t DroppedTraceEvents();

}  // namespace tfmae::obs

#define TFMAE_OBS_CONCAT_IMPL_(a, b) a##b
#define TFMAE_OBS_CONCAT_(a, b) TFMAE_OBS_CONCAT_IMPL_(a, b)

/// Times the rest of the enclosing scope as site `name` (a string literal):
/// `<name>.time_ns` histogram, `<name>.calls` / `<name>.total_ns` counters,
/// plus a chrome-trace event while tracing is active.
#define TFMAE_TRACE(name)                                                    \
  ::tfmae::obs::ScopedTrace TFMAE_OBS_CONCAT_(tfmae_obs_scope_, __LINE__)(   \
      ::tfmae::obs::Enabled()                                                \
          ? [] {                                                             \
              static ::tfmae::obs::TraceSite* const tfmae_obs_site_ =        \
                  ::tfmae::obs::GetTraceSite(name);                          \
              return tfmae_obs_site_;                                        \
            }()                                                              \
          : nullptr)

/// Adds `delta` (convertible to uint64) to the counter `name`.
#define TFMAE_COUNTER_ADD(name, delta)                                       \
  do {                                                                       \
    if (::tfmae::obs::Enabled()) {                                           \
      static const int tfmae_obs_cid_ =                                      \
          ::tfmae::obs::Registry::Instance().CounterId(name);                \
      ::tfmae::obs::Registry::Instance().CounterAdd(                         \
          tfmae_obs_cid_, static_cast<std::uint64_t>(delta));                \
    }                                                                        \
  } while (0)

/// Records one sample `value` into the histogram `name`.
#define TFMAE_HISTOGRAM_RECORD(name, value)                                  \
  do {                                                                       \
    if (::tfmae::obs::Enabled()) {                                           \
      static const int tfmae_obs_hid_ =                                      \
          ::tfmae::obs::Registry::Instance().HistogramId(name);              \
      ::tfmae::obs::Registry::Instance().HistogramRecord(                    \
          tfmae_obs_hid_, static_cast<std::uint64_t>(value));                \
    }                                                                        \
  } while (0)

/// Sets the gauge `name` to `value` (last write wins).
#define TFMAE_GAUGE_SET(name, value)                                         \
  do {                                                                       \
    if (::tfmae::obs::Enabled()) {                                           \
      static const int tfmae_obs_gid_ =                                      \
          ::tfmae::obs::Registry::Instance().GaugeId(name);                  \
      ::tfmae::obs::Registry::Instance().GaugeSet(                           \
          tfmae_obs_gid_, static_cast<std::int64_t>(value));                 \
    }                                                                        \
  } while (0)

/// Raises the gauge `name` to `value` if larger (high-watermark).
#define TFMAE_GAUGE_MAX(name, value)                                         \
  do {                                                                       \
    if (::tfmae::obs::Enabled()) {                                           \
      static const int tfmae_obs_gid_ =                                      \
          ::tfmae::obs::Registry::Instance().GaugeId(name);                  \
      ::tfmae::obs::Registry::Instance().GaugeMax(                           \
          tfmae_obs_gid_, static_cast<std::int64_t>(value));                 \
    }                                                                        \
  } while (0)

#endif  // TFMAE_OBS_TRACE_H_
