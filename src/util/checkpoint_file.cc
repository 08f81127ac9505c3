#include "util/checkpoint_file.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/logging.h"

namespace tfmae::util {
namespace {

constexpr char kMagic[8] = {'T', 'F', 'M', 'A', 'E', 'C', 'K', 'P'};

// A section name or array longer than this is treated as corruption rather
// than allocated: length prefixes are attacker^W bit-flip controlled.
constexpr std::uint64_t kMaxSectionName = 1 << 10;
constexpr std::uint64_t kMaxPayload = 1ull << 34;  // 16 GiB

constexpr std::string_view kNumberedSuffix = ".tfmae";

/// The n of a "<prefix><digits>.tfmae" file name; -1 for any other name.
std::int64_t NumberFromFilename(const std::string& name,
                                std::string_view prefix) {
  const std::size_t suffix_len = kNumberedSuffix.size();
  if (name.size() <= prefix.size() + suffix_len ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix_len, suffix_len, kNumberedSuffix) !=
          0) {
    return -1;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix_len);
  if (digits.find_first_not_of("0123456789") != std::string::npos) return -1;
  return std::strtoll(digits.c_str(), nullptr, 10);
}

}  // namespace

// ---- ByteWriter -------------------------------------------------------------

void ByteWriter::String(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void ByteWriter::FloatArray(const std::vector<float>& v) {
  U64(static_cast<std::uint64_t>(v.size()));
  Raw(v.data(), v.size() * sizeof(float));
}

void ByteWriter::I64Array(const std::vector<std::int64_t>& v) {
  U64(static_cast<std::uint64_t>(v.size()));
  Raw(v.data(), v.size() * sizeof(std::int64_t));
}

void ByteWriter::Raw(const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

// ---- ByteReader -------------------------------------------------------------

bool ByteReader::String(std::string* s) {
  std::uint32_t len = 0;
  if (!U32(&len) || len > kMaxSectionName || size_ - pos_ < len) {
    ok_ = false;
    return false;
  }
  s->assign(data_ + pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::FloatArray(std::vector<float>* v) {
  std::uint64_t count = 0;
  if (!U64(&count) || count > (size_ - pos_) / sizeof(float)) {
    ok_ = false;
    return false;
  }
  v->resize(static_cast<std::size_t>(count));
  return Raw(v->data(), static_cast<std::size_t>(count) * sizeof(float));
}

bool ByteReader::I64Array(std::vector<std::int64_t>* v) {
  std::uint64_t count = 0;
  if (!U64(&count) || count > (size_ - pos_) / sizeof(std::int64_t)) {
    ok_ = false;
    return false;
  }
  v->resize(static_cast<std::size_t>(count));
  return Raw(v->data(), static_cast<std::size_t>(count) * sizeof(std::int64_t));
}

bool ByteReader::Raw(void* out, std::size_t size) {
  if (!ok_ || size_ - pos_ < size) {
    ok_ = false;
    return false;
  }
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes.
  if (size > 0) std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return true;
}

// ---- CheckpointFileWriter ---------------------------------------------------

void CheckpointFileWriter::AddSection(std::string name,
                                      std::vector<char> payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

bool CheckpointFileWriter::WriteAtomic(const std::string& path) const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    for (std::size_t j = i + 1; j < sections_.size(); ++j) {
      if (sections_[i].first == sections_[j].first) {
        Log(LogLevel::kError,
            "checkpoint: duplicate section '" + sections_[i].first + "'");
        return false;
      }
    }
  }
  if (TFMAE_FAULT("io.checkpoint_write")) {
    Log(LogLevel::kWarning, "checkpoint: injected io_write fault on " + path);
    return false;
  }

  // Serialize the whole container in memory first; the file-level CRC covers
  // every byte before the trailer.
  ByteWriter writer;
  writer.Raw(kMagic, sizeof(kMagic));
  writer.U32(kCheckpointContainerVersion);
  writer.U32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    writer.String(name);
    writer.U64(static_cast<std::uint64_t>(payload.size()));
    writer.U32(Crc32(payload.data(), payload.size()));
    writer.Raw(payload.data(), payload.size());
  }
  const std::vector<char>& body = writer.buffer();
  const std::uint32_t file_crc = Crc32(body.data(), body.size());

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file) return false;
    file.write(body.data(), static_cast<std::streamsize>(body.size()));
    file.write(reinterpret_cast<const char*>(&file_crc), sizeof(file_crc));
    file.flush();
    if (!file) {
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

// ---- CheckpointFileReader ---------------------------------------------------

std::optional<CheckpointFileReader> CheckpointFileReader::Open(
    const std::string& path, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };

  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return fail("cannot open " + path);
  const std::streamsize size = file.tellg();
  if (size < static_cast<std::streamsize>(sizeof(kMagic) + 3 * sizeof(
                                              std::uint32_t))) {
    return fail("file too short");
  }
  std::vector<char> bytes(static_cast<std::size_t>(size));
  file.seekg(0);
  file.read(bytes.data(), size);
  if (!file) return fail("short read");

  // Whole-file CRC first: any torn tail or flipped bit fails here already.
  const std::size_t body_size = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, bytes.data() + body_size,
              sizeof(stored_file_crc));
  if (Crc32(bytes.data(), body_size) != stored_file_crc) {
    return fail("file checksum mismatch");
  }

  ByteReader reader(bytes.data(), body_size);
  char magic[sizeof(kMagic)];
  if (!reader.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic");
  }
  std::uint32_t version = 0;
  if (!reader.U32(&version) || version != kCheckpointContainerVersion) {
    return fail("unsupported container version");
  }
  std::uint32_t count = 0;
  if (!reader.U32(&count)) return fail("truncated header");

  CheckpointFileReader result;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t payload_len = 0;
    std::uint32_t crc = 0;
    if (!reader.String(&name) || !reader.U64(&payload_len) ||
        !reader.U32(&crc) || payload_len > kMaxPayload) {
      return fail("truncated section header");
    }
    std::vector<char> payload(static_cast<std::size_t>(payload_len));
    if (!reader.Raw(payload.data(), payload.size())) {
      return fail("truncated section payload");
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      return fail("section '" + name + "' checksum mismatch");
    }
    result.sections_.emplace_back(std::move(name), std::move(payload));
  }
  if (!reader.AtEnd()) return fail("trailing garbage");
  return result;
}

const std::vector<char>* CheckpointFileReader::Section(
    const std::string& name) const {
  for (const auto& [section_name, payload] : sections_) {
    if (section_name == name) return &payload;
  }
  return nullptr;
}

// ---- Numbered containers ----------------------------------------------------

std::string NumberedFilePath(const std::string& dir, std::string_view prefix,
                             std::int64_t n) {
  char number[24];
  std::snprintf(number, sizeof(number), "%08lld", static_cast<long long>(n));
  return (std::filesystem::path(dir) /
          (std::string(prefix) + number + std::string(kNumberedSuffix)))
      .string();
}

std::vector<std::pair<std::int64_t, std::string>> ListNumberedFiles(
    const std::string& dir, std::string_view prefix) {
  std::vector<std::pair<std::int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::int64_t n =
        NumberFromFilename(entry.path().filename().string(), prefix);
    if (n >= 0) found.emplace_back(n, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

void PruneNumberedFiles(const std::string& dir, std::string_view prefix,
                        int keep_last) {
  const auto files = ListNumberedFiles(dir, prefix);
  std::error_code ec;
  for (std::size_t i = static_cast<std::size_t>(std::max(0, keep_last));
       i < files.size(); ++i) {
    std::filesystem::remove(files[i].second, ec);
  }
}

}  // namespace tfmae::util
