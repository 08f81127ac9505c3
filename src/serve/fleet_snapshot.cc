#include "serve/fleet_snapshot.h"

#include "util/checkpoint_file.h"
#include "util/fault.h"
#include "util/logging.h"

namespace tfmae::serve {
namespace {

constexpr char kMetaSection[] = "fleet.meta";
constexpr char kStreamsSection[] = "fleet.streams";
constexpr char kPendingSection[] = "fleet.pending";

constexpr char kFilePrefix[] = "fleet_";

std::vector<char> EncodeMeta(const FleetSnapshotData& d) {
  util::ByteWriter w;
  w.U32(kFleetSnapshotVersion);
  w.U32(d.config_crc);
  w.U64(d.index);
  w.I64(d.streaming.window);
  w.I64(d.streaming.hop);
  w.I64(d.streaming.impute_staleness_cap);
  w.F64(d.streaming.quarantine_sigma);
  w.I64(d.streaming.quarantine_warmup);
  w.F32(d.threshold);
  w.I64(d.counters.rows_pushed);
  w.I64(d.counters.rows_overloaded);
  w.I64(d.counters.rows_rejected);
  w.I64(d.counters.rows_quarantined);
  w.I64(d.counters.rows_warmup);
  w.I64(d.counters.windows_enqueued);
  w.I64(d.counters.windows_scored);
  w.I64(d.counters.alerts);
  w.I64(d.counters.shed_dropped);
  w.I64(d.counters.shed_deadline_expired);
  return w.Take();
}

bool DecodeMeta(const std::vector<char>& payload, FleetSnapshotData* d,
                std::string* error) {
  util::ByteReader r(payload);
  std::uint32_t version = 0;
  if (!r.U32(&version)) {
    *error = "truncated meta section";
    return false;
  }
  if (version != kFleetSnapshotVersion) {
    *error = "unsupported fleet snapshot version " + std::to_string(version);
    return false;
  }
  const bool ok =
      r.U32(&d->config_crc) && r.U64(&d->index) && r.I64(&d->streaming.window) &&
      r.I64(&d->streaming.hop) && r.I64(&d->streaming.impute_staleness_cap) &&
      r.F64(&d->streaming.quarantine_sigma) &&
      r.I64(&d->streaming.quarantine_warmup) && r.F32(&d->threshold) &&
      r.I64(&d->counters.rows_pushed) && r.I64(&d->counters.rows_overloaded) &&
      r.I64(&d->counters.rows_rejected) &&
      r.I64(&d->counters.rows_quarantined) && r.I64(&d->counters.rows_warmup) &&
      r.I64(&d->counters.windows_enqueued) &&
      r.I64(&d->counters.windows_scored) && r.I64(&d->counters.alerts) &&
      r.I64(&d->counters.shed_dropped) &&
      r.I64(&d->counters.shed_deadline_expired) && r.AtEnd();
  if (!ok) *error = "malformed meta section";
  return ok;
}

std::vector<char> EncodeStreams(const FleetSnapshotData& d) {
  util::ByteWriter w;
  w.U64(d.stream_states.size());
  for (const auto& state : d.stream_states) {
    w.U64(state.size());
    w.Raw(state.data(), state.size());
  }
  return w.Take();
}

bool DecodeStreams(const std::vector<char>& payload, FleetSnapshotData* d,
                   std::string* error) {
  util::ByteReader r(payload);
  std::uint64_t count = 0;
  if (!r.U64(&count) || count > (1ull << 24)) {
    *error = "malformed streams section";
    return false;
  }
  d->stream_states.resize(static_cast<std::size_t>(count));
  for (auto& state : d->stream_states) {
    std::uint64_t len = 0;
    if (!r.U64(&len) || len > payload.size()) {
      *error = "malformed streams section";
      return false;
    }
    state.resize(static_cast<std::size_t>(len));
    if (!r.Raw(state.data(), state.size())) {
      *error = "truncated streams section";
      return false;
    }
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes in streams section";
    return false;
  }
  return true;
}

std::vector<char> EncodePending(const FleetSnapshotData& d) {
  util::ByteWriter w;
  w.U64(d.pending.size());
  for (const PendingWindow& p : d.pending) {
    w.I64(p.stream);
    w.I64(p.seq);
    w.I64(p.fresh);
    w.U32(static_cast<std::uint32_t>(p.imputed));
    w.FloatArray(p.values);
  }
  return w.Take();
}

bool DecodePending(const std::vector<char>& payload, FleetSnapshotData* d,
                   std::string* error) {
  util::ByteReader r(payload);
  std::uint64_t count = 0;
  if (!r.U64(&count) || count > (1ull << 24)) {
    *error = "malformed pending section";
    return false;
  }
  d->pending.resize(static_cast<std::size_t>(count));
  for (PendingWindow& p : d->pending) {
    std::uint32_t imputed = 0;
    if (!r.I64(&p.stream) || !r.I64(&p.seq) || !r.I64(&p.fresh) ||
        !r.U32(&imputed) || !r.FloatArray(&p.values)) {
      *error = "truncated pending section";
      return false;
    }
    p.imputed = static_cast<std::int32_t>(imputed);
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes in pending section";
    return false;
  }
  return true;
}

}  // namespace

bool WriteFleetSnapshot(const FleetSnapshotData& data, const std::string& path,
                        std::string* error) {
  if (TFMAE_FAULT("serve.snapshot_write")) {
    if (error != nullptr) *error = "injected fault: serve.snapshot_write";
    return false;
  }
  util::CheckpointFileWriter writer;
  writer.AddSection(kMetaSection, EncodeMeta(data));
  writer.AddSection(kStreamsSection, EncodeStreams(data));
  writer.AddSection(kPendingSection, EncodePending(data));
  if (!writer.WriteAtomic(path)) {
    if (error != nullptr) *error = "snapshot write failed: " + path;
    return false;
  }
  return true;
}

std::optional<FleetSnapshotData> ReadFleetSnapshot(const std::string& path,
                                                   std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  const auto reader = util::CheckpointFileReader::Open(path, err);
  if (!reader.has_value()) return std::nullopt;
  const std::vector<char>* meta = reader->Section(kMetaSection);
  const std::vector<char>* streams = reader->Section(kStreamsSection);
  const std::vector<char>* pending = reader->Section(kPendingSection);
  if (meta == nullptr || streams == nullptr || pending == nullptr) {
    *err = "missing fleet snapshot section";
    return std::nullopt;
  }
  FleetSnapshotData data;
  if (!DecodeMeta(*meta, &data, err)) return std::nullopt;
  if (!DecodeStreams(*streams, &data, err)) return std::nullopt;
  if (!DecodePending(*pending, &data, err)) return std::nullopt;
  return data;
}

std::string FleetSnapshotPath(const std::string& dir, std::uint64_t index) {
  return util::NumberedFilePath(dir, kFilePrefix,
                                static_cast<std::int64_t>(index));
}

std::optional<std::pair<std::string, FleetSnapshotData>>
FindLatestValidFleetSnapshot(const std::string& dir, std::string* error) {
  std::string last_error = "no fleet snapshot files in " + dir;
  for (const auto& [index, path] : util::ListNumberedFiles(dir, kFilePrefix)) {
    std::string open_error;
    if (auto data = ReadFleetSnapshot(path, &open_error)) {
      return std::make_pair(path, std::move(*data));
    }
    Log(LogLevel::kWarning, "fleet snapshot " + path + " rejected (" +
                                open_error +
                                "), falling back to the previous one");
    last_error = open_error;
  }
  if (error != nullptr) *error = last_error;
  return std::nullopt;
}

void PruneFleetSnapshots(const std::string& dir, int keep_last) {
  util::PruneNumberedFiles(dir, kFilePrefix, keep_last);
}

}  // namespace tfmae::serve
