// Crash-safe sectioned checkpoint container.
//
// Every persistent artifact of the resilience plane (network weights,
// TrainingCheckpoint bundles) is one container file:
//
//   magic "TFMAECKP" | u32 container version | u32 section count
//   per section: u32 name_len | name bytes | u64 payload_len |
//                u32 crc32(payload) | payload bytes
//   trailer: u32 crc32(everything before the trailer)
//
// Integrity contract (docs/RESILIENCE.md):
//  * Writes are atomic: the container is written to "<path>.tmp", flushed,
//    and renamed over `path`. Readers therefore never observe a torn file at
//    `path` — a crash mid-write leaves either the old file or a stray .tmp.
//  * Every section carries its own CRC-32 and the file carries a whole-file
//    CRC, so truncation, bit flips, and foreign files are all detected at
//    Open() time; a corrupt container is rejected as a unit.
//
// ByteWriter/ByteReader are the little-endian plain-old-data codec used to
// build section payloads; ByteReader is bounds-checked and never reads past
// the payload (a corrupted length fails the read instead of invoking UB).
#ifndef TFMAE_UTIL_CHECKPOINT_FILE_H_
#define TFMAE_UTIL_CHECKPOINT_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tfmae::util {

/// Bumped when the container layout changes; readers reject other versions.
constexpr std::uint32_t kCheckpointContainerVersion = 1;

/// Appends plain-old-data values to a growing byte buffer.
class ByteWriter {
 public:
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void String(const std::string& s);
  void FloatArray(const std::vector<float>& v);
  void I64Array(const std::vector<std::int64_t>& v);
  void Raw(const void* data, std::size_t size);

  std::vector<char> Take() { return std::move(buffer_); }
  const std::vector<char>& buffer() const { return buffer_; }

 private:
  std::vector<char> buffer_;
};

/// Bounds-checked reader over a byte span. Every accessor returns false once
/// the payload is exhausted or a length prefix is implausible; `ok()` stays
/// false from the first failure on (monadic error handling, no exceptions).
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<char>& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  bool U32(std::uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(std::uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(std::int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool String(std::string* s);
  bool FloatArray(std::vector<float>* v);
  bool I64Array(std::vector<std::int64_t>* v);
  bool Raw(void* out, std::size_t size);

  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage detection).
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Builds a container in memory and commits it atomically.
class CheckpointFileWriter {
 public:
  /// Adds one named section (names must be unique; checked on write).
  void AddSection(std::string name, std::vector<char> payload);

  /// Serializes all sections to "<path>.tmp" and renames it over `path`.
  /// Returns false (leaving any previous file at `path` untouched) on I/O
  /// failure or duplicate section names. Fault point: "io.checkpoint_write".
  bool WriteAtomic(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::vector<char>>> sections_;
};

/// Opens and fully validates a container: magic, version, section CRCs, and
/// the whole-file CRC. Invalid files yield nullopt and a reason in `*error`.
class CheckpointFileReader {
 public:
  static std::optional<CheckpointFileReader> Open(const std::string& path,
                                                  std::string* error = nullptr);

  /// Section payload by name; nullptr when absent.
  const std::vector<char>* Section(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::vector<char>>> sections_;
};

// ---- Numbered containers ----------------------------------------------------
// A directory of containers named "<prefix><n zero-padded to 8>.tfmae", where
// n is a training step ("ckpt_") or a fleet snapshot index ("fleet_").
// Recovery walks them from the highest n down.

/// "<dir>/<prefix><n padded to 8>.tfmae".
std::string NumberedFilePath(const std::string& dir, std::string_view prefix,
                             std::int64_t n);

/// Every regular file "<prefix><digits>.tfmae" in `dir` as (n, path),
/// highest n first; empty when `dir` cannot be read.
std::vector<std::pair<std::int64_t, std::string>> ListNumberedFiles(
    const std::string& dir, std::string_view prefix);

/// Deletes all but the `keep_last` highest-numbered of those files.
void PruneNumberedFiles(const std::string& dir, std::string_view prefix,
                        int keep_last);

}  // namespace tfmae::util

#endif  // TFMAE_UTIL_CHECKPOINT_FILE_H_
