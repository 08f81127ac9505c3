// Append-only JSONL run ledger — the durable layer of the observability
// plane (docs/OBSERVABILITY.md, "Run ledger & flight recorder").
//
// The metrics registry (obs/metrics.h) answers "what is this process doing
// right now"; the ledger answers "what did this run do, step by step", so
// loss curves, guard interventions, and score distributions can be compared
// across commits long after the process exited. One ledger file is one run:
//
//   line 0:  manifest  — who produced the run (tool, run id, seed, config
//                        CRC, thread count, build flags)
//   line 1+: events    — typed records: per-step loss/grad-norm/LR, numeric
//                        guard trips, checkpoint writes, per-epoch means,
//                        masking statistics, end-of-run score histograms,
//                        streaming alerts/quarantines
//   last:    footer    — event count + chained CRC over every prior line,
//                        written by Close(), which then atomically renames
//                        the working file over the final path
//
// Integrity discipline (the util/checkpoint_file contract, adapted to an
// append-only stream):
//  * While a run is live, lines are appended (and flushed per line) to
//    "<path>.partial". A killed run therefore leaves a readable prefix.
//  * Every line carries its own CRC-32 ("crc" field, computed over the line
//    text with the crc field removed), so the reader validates each line
//    independently and stops at the first torn or corrupted one: what it
//    returns is always a CRC-valid prefix.
//  * Close() seals the stream with a footer carrying the event count and a
//    chained CRC over all preceding line bytes, then renames the .partial
//    over `path` — a sealed ledger at the final path is complete by
//    construction.
//
// Determinism contract: every event field except the wall-clock timestamp
// "t" — and fields whose keys start with "t_", the convention for other
// wall-clock measurements such as the plan event's t_capture_ms — must be
// bitwise thread-count-invariant, exactly like count-typed metrics
// (DESIGN.md §7). CanonicalEventStream() strips "t" and "t_*" (and the
// per-line CRCs, which cover them); two runs of the same (data, config,
// seed) produce byte-identical canonical streams at any TFMAE_NUM_THREADS.
//
// Gating matches the instrumentation macros: the emission sites inside
// TfmaeDetector::Fit/Score, the streaming loop, and the numeric guard are
// compiled into every build and gated at runtime on a ledger actually
// being open — see LedgerActive().
#ifndef TFMAE_OBS_LEDGER_H_
#define TFMAE_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tfmae::obs {

/// Build configuration baked into this binary, as a stable string for the
/// manifest ("assertions=on" or "assertions=off").
std::string BuildFlagsString();

/// JSON string escaping for event text values. Ledger::Event writes field
/// values verbatim, so every string-typed value must pass through this (or
/// LedgerEvent::Text reads it back as "").
std::string JsonQuote(std::string_view s);

/// Identity of one run, written as the ledger's first line.
struct RunManifest {
  std::string tool;       ///< producing binary or component name
  std::string run_id;     ///< caller-chosen identifier
  std::uint64_t seed = 0; ///< RNG seed of the run (0 = not applicable)
  std::uint32_t config_crc = 0;  ///< CRC-32 of the config text (0 = n/a)
  int num_threads = 0;    ///< resolved TFMAE_NUM_THREADS worker count
  std::string build_flags;       ///< BuildFlagsString() of the producer
  /// Extra key/value pairs (values are written as JSON strings).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// One decoded ledger line. `fields` preserves emission order; values are
/// the raw JSON literal text ("1.5", "\"path\"", "[1,2]").
struct LedgerEvent {
  std::int64_t seq = 0;
  std::uint64_t t_us = 0;  ///< wall-clock microseconds since the Unix epoch
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;
  std::string raw;  ///< the full line as stored (including crc), no '\n'

  /// Raw JSON value of `key` (nullptr when absent).
  const std::string* Field(std::string_view key) const;
  /// Numeric value of `key` (`fallback` when absent or non-numeric).
  double Number(std::string_view key, double fallback = 0.0) const;
  /// Unquoted string value of `key` ("" when absent).
  std::string Text(std::string_view key) const;
  /// Unsigned bucket counts of an array-valued `key` (empty when absent).
  std::vector<std::uint64_t> U64Array(std::string_view key) const;
};

/// A fully validated ledger read back from disk.
struct LedgerFile {
  LedgerEvent manifest;             ///< the manifest line
  std::vector<LedgerEvent> events;  ///< every event line, in order
  bool sealed = false;     ///< footer present, chain CRC and count valid
  std::int64_t dropped_lines = 0;  ///< torn/corrupt tail lines discarded
  std::string path;        ///< file actually read (may be the .partial)

  /// Manifest convenience accessors.
  std::string Tool() const { return manifest.Text("tool"); }
  std::string RunId() const { return manifest.Text("run_id"); }
  int NumThreads() const {
    return static_cast<int>(manifest.Number("num_threads"));
  }
};

/// Opens `path` (falling back to "<path>.partial" so crashed runs stay
/// readable), validates every line CRC, and returns the valid prefix.
/// nullopt (with a reason in *error) only when no line at all can be read —
/// a corrupt tail degrades to a shorter prefix, not a failure.
std::optional<LedgerFile> ReadLedger(const std::string& path,
                                     std::string* error = nullptr);

/// The determinism view: every event line (manifest and footer excluded)
/// with the "t" timestamp and "crc" fields stripped, newline-separated.
/// Byte-identical across thread counts for a deterministic run.
std::string CanonicalEventStream(const LedgerFile& file);

/// The run ledger writer. All emitters are thread-safe and no-ops while the
/// ledger is closed, so instrumented code never checks state first (the
/// compile-time gate lives at the call sites; see LedgerActive()).
class Ledger {
 public:
  Ledger() = default;
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// The process-wide ledger the instrumented call sites emit into.
  /// (Intentionally leaked, like the metrics registry.)
  static Ledger& Instance();

  /// Starts a run: opens "<path>.partial" for writing and emits the
  /// manifest. Returns false (ledger stays closed) on I/O failure or when a
  /// run is already open.
  bool Open(const std::string& path, const RunManifest& manifest);

  /// True between a successful Open() and Close()/Abandon().
  bool IsOpen() const;

  // ---- Typed events (no-ops while closed) ---------------------------------

  /// One optimizer step: Eq. (15) loss, global gradient L2 norm, LR.
  void Step(std::int64_t step, double loss, double grad_norm, double lr);
  /// Numeric-guard intervention (`kind`: "nonfinite_loss"/"nonfinite_grad").
  void GuardTrip(std::int64_t step, const char* kind, double loss,
                 double lr_after);
  /// Numeric guard exhausted its skip budget; training stops.
  void GuardGiveUp(std::int64_t step, std::int64_t consecutive_skips);
  /// Periodic training checkpoint written (or attempted).
  void CheckpointWrite(std::int64_t step, const std::string& file, bool ok);
  /// End-of-epoch summary.
  void EpochEnd(std::int64_t epoch, double mean_loss, std::int64_t steps);
  /// One-time masking statistics of the prepared training windows.
  void MaskingStats(std::int64_t windows, std::int64_t window_len,
                    std::int64_t masked_steps, std::int64_t total_steps,
                    std::int64_t masked_bins);
  /// Fixed-width linear histogram of anomaly scores (the Fig. 9 CDF data).
  void ScoreHistogram(const char* name, double lo, double hi,
                      std::uint64_t count,
                      const std::vector<std::uint64_t>& buckets);
  /// Streaming alert/quarantine/rejection record.
  void StreamEvent(const char* what, std::int64_t index, double score);

  /// Generic escape hatch: `fields` are (key, raw JSON literal) pairs in
  /// emission order. Keys "seq"/"t"/"type"/"crc" are reserved.
  void Event(const char* type,
             const std::vector<std::pair<std::string, std::string>>& fields);

  /// Seals the run: footer (event count + chained CRC), flush, fsync, and
  /// atomic rename of the .partial over the final path. Returns false on
  /// I/O failure (the .partial is left for postmortem reading).
  bool Close();

  /// Drops the run without sealing: closes the stream and leaves the
  /// .partial exactly as written so far (what a crash would leave). Used by
  /// tests and the fatal-signal path.
  void Abandon();

  /// Events emitted since Open() (excluding manifest/footer).
  std::int64_t events_written() const;

 private:
  void WriteLine(const char* type, const std::string& body_fields);

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;  // null while closed
  std::string final_path_;
  std::string partial_path_;
  std::int64_t next_seq_ = 0;
  std::int64_t events_ = 0;
  std::uint32_t chain_crc_ = 0;
  // Mirrors file_ != nullptr; readable without mu_ (IsOpen fast path).
  std::atomic_bool open_{false};
};

/// Runtime gate for the instrumented emission sites: true iff the process
/// ledger is open.
inline bool LedgerActive() { return Ledger::Instance().IsOpen(); }

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_LEDGER_H_
