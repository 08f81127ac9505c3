// Crash-safe fleet snapshots — the serving half of the resilience plane
// (docs/RESILIENCE.md, "Serving resilience").
//
// A long-running FleetServer holds the only copy of N-thousand StreamStates:
// warm-up history, LOCF repair state, hop cadence, quarantine statistics.
// A killed process loses all of it, and re-warming a fleet from cold costs
// `window` rows per stream before the first score. A FleetSnapshot persists
// the whole serving state — every stream, the pending ready-window queue,
// and the server counters — through the same CRC-sectioned
// util/checkpoint_file container the training checkpoints use: atomic
// tmp+rename writes, per-section CRC-32, whole-file CRC, so a torn or
// bit-flipped snapshot is detected and skipped as a unit.
//
// Recovery policy mirrors core/checkpoint.h, on the same numbered-file
// helpers of util/checkpoint_file.h: snapshots are numbered
// "fleet_<index>.tfmae" inside a directory, FindLatestValidFleetSnapshot
// walks from the highest index down past corrupt files, and old snapshots
// are pruned to keep_last. Restore semantics (FleetServer::Restore): the
// restored server, re-fed each stream's rows from its recorded
// total_pushed() on, produces scores bitwise-identical to an uninterrupted
// run at any thread count — the contract tests/serve_resilience_test.cc and
// the chaos soak of `scripts/check.sh address` enforce with a kill -9.
#ifndef TFMAE_SERVE_FLEET_SNAPSHOT_H_
#define TFMAE_SERVE_FLEET_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming.h"

namespace tfmae::serve {

/// Bumped when the snapshot layout changes; readers reject other versions.
constexpr std::uint32_t kFleetSnapshotVersion = 1;

/// One queued-but-unscored ready window, exactly as FleetServer holds it:
/// a value snapshot plus the metadata its eventual result carries. Captured
/// so a snapshot taken between enqueue and Flush loses nothing.
struct PendingWindow {
  std::int64_t stream = -1;
  std::int64_t seq = -1;
  std::int64_t fresh = 0;
  std::int32_t imputed = 0;
  std::vector<float> values;
};

/// Cumulative server counters, persisted so operational accounting survives
/// a restart (a restored server's stats() continue, not reset).
struct FleetCounters {
  std::int64_t rows_pushed = 0;
  std::int64_t rows_overloaded = 0;
  std::int64_t rows_rejected = 0;
  std::int64_t rows_quarantined = 0;
  std::int64_t rows_warmup = 0;
  std::int64_t windows_enqueued = 0;
  std::int64_t windows_scored = 0;
  std::int64_t alerts = 0;
  std::int64_t shed_dropped = 0;
  std::int64_t shed_deadline_expired = 0;
};

/// The complete persisted serving state of one FleetServer.
struct FleetSnapshotData {
  /// Crc32(ConfigToString(detector config)): a snapshot must not be
  /// restored against a different model architecture or training recipe.
  std::uint32_t config_crc = 0;
  /// Monotone snapshot index (the filename's <index>); restore continues
  /// numbering from here.
  std::uint64_t index = 0;
  /// The fleet's per-stream windowing/repair configuration. Restore refuses
  /// a server constructed with different options — the hop cadence and
  /// repair behaviour are part of the state's meaning.
  core::StreamingOptions streaming;
  float threshold = 0.0f;
  FleetCounters counters;
  /// StreamState::EncodeTo payloads, indexed by stream id.
  std::vector<std::vector<char>> stream_states;
  /// The ready-window queue in admission order.
  std::vector<PendingWindow> pending;
};

/// Serializes `data` to `path` atomically (tmp+rename through the
/// checkpoint container). Returns false on I/O failure; any previous file
/// at `path` survives. Fault point: "io.checkpoint_write" (inherited from
/// the container writer).
bool WriteFleetSnapshot(const FleetSnapshotData& data, const std::string& path,
                        std::string* error = nullptr);

/// Opens and fully validates one snapshot; nullopt (reason in `*error`) on
/// corruption, truncation, or a version/layout mismatch.
std::optional<FleetSnapshotData> ReadFleetSnapshot(const std::string& path,
                                                   std::string* error = nullptr);

/// "<dir>/fleet_<index padded to 8>.tfmae".
std::string FleetSnapshotPath(const std::string& dir, std::uint64_t index);

/// Newest fully-valid snapshot in `dir` (highest index first, walking down
/// past corrupt/torn files — the newest-valid fallback the chaos soak
/// exercises by corrupting the newest file). nullopt when none validates.
std::optional<std::pair<std::string, FleetSnapshotData>>
FindLatestValidFleetSnapshot(const std::string& dir,
                             std::string* error = nullptr);

/// Deletes all but the `keep_last` highest-index "fleet_*.tfmae" files.
void PruneFleetSnapshots(const std::string& dir, int keep_last);

}  // namespace tfmae::serve

#endif  // TFMAE_SERVE_FLEET_SNAPSHOT_H_
