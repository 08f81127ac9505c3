// Crash flight recorder — a fixed-capacity in-memory ring of recent
// observability events plus a black-box postmortem dump
// (docs/OBSERVABILITY.md, "Run ledger & flight recorder").
//
// The run ledger (obs/ledger.h) records everything, durably, while the run
// is healthy. The flight recorder answers the complementary question: what
// were the LAST things that happened before a run died — including deaths
// the ledger cannot observe (SIGSEGV in a kernel, an injected-fault abort,
// the numeric guard giving up). It keeps the newest N events in a
// statically allocated ring of pre-rendered JSON lines and, on request or
// on a fatal signal, writes them out as one postmortem document.
//
// What lands in the ring:
//  * every ledger line as it is written (the ledger tees into the ring), so
//    the postmortem ends with the exact tail of the event stream;
//  * explicit Note() calls from the resilience plane's cold paths: numeric
//    guard trips and give-up, injected-fault interrupts, checkpoint write
//    failures, streaming quarantines/rejections.
//
// Dump paths:
//  * Dump(reason) — normal code: ring entries plus a metrics-counter
//    summary, written with stdio.
//  * fatal signal (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL, opt-in via
//    InstallSignalHandlers) — async-signal-safe: the handler only calls
//    open/write/close on the pre-rendered ring entries (rendering happened
//    at Note() time), then re-raises the signal with default disposition.
//    A Note() racing the handler can leave one torn entry; the dump is
//    best-effort by design and each entry is self-delimiting.
//
// Everything is statically allocated and recording costs one snprintf into
// a ring slot, so the recorder is safe to leave armed for whole training
// runs. Like the ledger's, the emission sites in core/nn are compiled into
// every build, and the recorder records nothing until Arm() provides an
// output path.
#ifndef TFMAE_OBS_FLIGHT_RECORDER_H_
#define TFMAE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace tfmae::obs {

class FlightRecorder {
 public:
  /// Ring geometry: newest kMaxEntries events, each rendered to at most
  /// kEntryBytes - 1 characters (longer details are truncated).
  static constexpr int kMaxEntries = 256;
  static constexpr int kEntryBytes = 256;

  /// Process-wide instance (intentionally leaked; signal handlers may fire
  /// during static destruction).
  static FlightRecorder& Instance();

  /// Arms the recorder: events are recorded from now on and Dump() writes
  /// to `postmortem_path`. Re-arming swaps the path and clears the ring.
  void Arm(const std::string& postmortem_path);

  /// True once Arm() was called (recording and dumping are possible).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Stops recording and forgets the output path (tests).
  void Disarm();

  /// Records one event into the ring. `kind` is a short static tag
  /// ("guard", "fault", "checkpoint", ...); `detail` is free text. No-op
  /// while disarmed.
  void Note(const char* kind, const std::string& detail);

  /// Called by the ledger for every line it writes; `line` is the exact
  /// stored text (trailing newline stripped on entry). No-op while
  /// disarmed.
  void NoteLedgerLine(const char* type, const std::string& line);

  /// Writes the postmortem JSON (reason, ring entries oldest-to-newest, and
  /// a metrics-counter appendix) to the armed path. Returns false while
  /// disarmed or on I/O failure. Normal-path (stdio) version.
  bool Dump(const char* reason);

  /// Installs fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL)
  /// that write an async-signal-safe postmortem to the armed path and then
  /// re-raise. Safe to call more than once; handlers chain to the previous
  /// disposition by restoring defaults (SA_RESETHAND).
  void InstallSignalHandlers();

  /// Events recorded since the last Arm() (monotone; the ring keeps the
  /// newest kMaxEntries of them).
  std::uint64_t notes_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Async-signal-safe dump used by the handlers; exposed for tests.
  /// Writes with raw open/write/close; `signo` < 0 omits the signal field.
  bool DumpSignalSafe(const char* reason, int signo);

 private:
  FlightRecorder() = default;

  struct Entry {
    std::atomic<int> len{0};  ///< 0 = empty/in-flight; published last
    char text[kEntryBytes];
  };

  void Render(const char* kind, const char* detail, std::size_t detail_len);

  Entry entries_[kMaxEntries];
  std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> armed_{false};
  char path_[512] = {};
};

/// Emission-site gate, mirroring LedgerActive(): true iff the recorder is
/// armed.
inline bool FlightRecorderActive() {
  return FlightRecorder::Instance().armed();
}

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_FLIGHT_RECORDER_H_
