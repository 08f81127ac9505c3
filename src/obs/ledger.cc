#include "obs/ledger.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/flight_recorder.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace tfmae::obs {
namespace {

constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcHexDigits = 8;
// `,"crc":"xxxxxxxx"}` — the fixed-width tail every line ends with.
constexpr std::size_t kCrcTailSize =
    kCrcPrefix.size() + kCrcHexDigits + 2 /* "} */;

std::uint64_t WallClockMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string FormatI64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string FormatU64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

/// Splits a validated line into its tail-CRC and the covered body text
/// (the line with the crc field replaced by the closing brace). Returns
/// false when the line does not end with the fixed-width crc tail.
bool SplitCrcTail(std::string_view line, std::string* body,
                  std::uint32_t* crc) {
  if (line.size() < kCrcTailSize + 1 || line.back() != '}') return false;
  const std::size_t tail_at = line.size() - kCrcTailSize;
  if (line.substr(tail_at, kCrcPrefix.size()) != kCrcPrefix) return false;
  const std::string hex(line.substr(tail_at + kCrcPrefix.size(),
                                    kCrcHexDigits));
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(hex.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *crc = static_cast<std::uint32_t>(parsed);
  body->assign(line.substr(0, tail_at));
  body->push_back('}');
  return true;
}

// ---- line parsing -----------------------------------------------------------

/// Scans one raw JSON value starting at `pos` (first non-space char) and
/// returns one past its end, honouring strings, escapes, and nesting. The
/// writer only emits scalars and flat arrays, but the scanner is general so
/// a hand-edited file degrades to a dropped line, not a misparse.
std::size_t SkipValue(std::string_view s, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    if (in_string) {
      if (c == '\\') {
        ++pos;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return pos + 1;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '[':
      case '{':
        ++depth;
        break;
      case ']':
      case '}':
        if (depth == 0) return pos;  // enclosing object's closer
        if (--depth == 0) return pos + 1;
        break;
      case ',':
        if (depth == 0) return pos;
        break;
      default:
        break;
    }
  }
  return pos;
}

/// Parses the flat `"key":value` members of one object line into `out`.
/// Returns false on malformed syntax.
bool ParseMembers(
    std::string_view body,
    std::vector<std::pair<std::string, std::string>>* out) {
  if (body.size() < 2 || body.front() != '{' || body.back() != '}') {
    return false;
  }
  std::size_t pos = 1;
  const std::size_t end = body.size() - 1;
  while (pos < end) {
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    if (body[pos] != '"') return false;
    const std::size_t key_end = SkipValue(body, pos);
    if (key_end <= pos + 1 || key_end > end || body[key_end] != ':') {
      return false;
    }
    std::string key(body.substr(pos + 1, key_end - pos - 2));
    const std::size_t value_begin = key_end + 1;
    const std::size_t value_end = SkipValue(body, value_begin);
    if (value_end <= value_begin || value_end > end) return false;
    out->emplace_back(std::move(key),
                      std::string(body.substr(value_begin,
                                              value_end - value_begin)));
    pos = value_end;
  }
  return true;
}

/// Validates one line (tail CRC) and decodes it. Returns false on any
/// corruption — the caller treats that as the end of the valid prefix.
bool DecodeLine(const std::string& line, LedgerEvent* event) {
  std::string body;
  std::uint32_t stored_crc = 0;
  if (!SplitCrcTail(line, &body, &stored_crc)) return false;
  if (util::Crc32(body.data(), body.size()) != stored_crc) return false;

  std::vector<std::pair<std::string, std::string>> members;
  if (!ParseMembers(body, &members)) return false;
  event->fields.clear();
  event->raw = line;
  for (auto& [key, value] : members) {
    if (key == "seq") {
      event->seq = static_cast<std::int64_t>(std::strtoll(value.c_str(),
                                                          nullptr, 10));
    } else if (key == "t") {
      event->t_us = static_cast<std::uint64_t>(std::strtoull(value.c_str(),
                                                             nullptr, 10));
    } else if (key == "type") {
      if (value.size() < 2 || value.front() != '"' || value.back() != '"') {
        return false;
      }
      event->type = value.substr(1, value.size() - 2);
    } else {
      event->fields.emplace_back(std::move(key), std::move(value));
    }
  }
  return !event->type.empty();
}

}  // namespace

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string BuildFlagsString() {
#if defined(NDEBUG)
  return "assertions=off";
#else
  return "assertions=on";
#endif
}

// ---- LedgerEvent ------------------------------------------------------------

const std::string* LedgerEvent::Field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double LedgerEvent::Number(std::string_view key, double fallback) const {
  const std::string* raw_value = Field(key);
  if (raw_value == nullptr || raw_value->empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw_value->c_str(), &end);
  return end == raw_value->c_str() ? fallback : v;
}

std::string LedgerEvent::Text(std::string_view key) const {
  const std::string* raw_value = Field(key);
  if (raw_value == nullptr || raw_value->size() < 2 ||
      raw_value->front() != '"' || raw_value->back() != '"') {
    return "";
  }
  // Undo JsonQuote's escapes (\" \\ \u00xx).
  std::string out;
  out.reserve(raw_value->size() - 2);
  for (std::size_t i = 1; i + 1 < raw_value->size(); ++i) {
    char c = (*raw_value)[i];
    if (c == '\\' && i + 2 < raw_value->size()) {
      const char next = (*raw_value)[i + 1];
      if (next == 'u' && i + 6 < raw_value->size()) {
        out.push_back(static_cast<char>(
            std::strtoul(raw_value->substr(i + 2, 4).c_str(), nullptr, 16)));
        i += 5;
        continue;
      }
      c = next;
      ++i;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<std::uint64_t> LedgerEvent::U64Array(std::string_view key) const {
  std::vector<std::uint64_t> out;
  const std::string* raw_value = Field(key);
  if (raw_value == nullptr || raw_value->size() < 2 ||
      raw_value->front() != '[') {
    return out;
  }
  const char* p = raw_value->c_str() + 1;
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    out.push_back(std::strtoull(p, &end, 10));
    if (end == p) break;
    p = end;
    if (*p == ',') ++p;
  }
  return out;
}

// ---- reading ----------------------------------------------------------------

std::optional<LedgerFile> ReadLedger(const std::string& path,
                                     std::string* error) {
  std::string actual = path;
  std::ifstream in(actual, std::ios::binary);
  if (!in) {
    actual = path + ".partial";
    in.open(actual, std::ios::binary);
  }
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path + " (or .partial)";
    return std::nullopt;
  }

  LedgerFile file;
  file.path = actual;
  std::uint32_t chain = 0;
  bool have_manifest = false;
  bool stopped = false;
  std::string line;
  LedgerEvent footer;
  bool have_footer = false;
  std::uint32_t chain_before_footer = 0;
  while (std::getline(in, line)) {
    // getline strips '\n'; a torn final line without one is indistinguishable
    // here, but its CRC tail will be missing or wrong, so it is dropped.
    if (stopped) {
      ++file.dropped_lines;
      continue;
    }
    LedgerEvent event;
    if (!DecodeLine(line, &event)) {
      ++file.dropped_lines;
      stopped = true;  // append-only stream: everything after is suspect
      continue;
    }
    if (!have_manifest) {
      if (event.type != "manifest") {
        if (error != nullptr) *error = actual + ": first line is not a manifest";
        return std::nullopt;
      }
      file.manifest = std::move(event);
      have_manifest = true;
    } else if (event.type == "footer") {
      footer = std::move(event);
      have_footer = true;
      chain_before_footer = chain;
      // A footer should be last; any validated line after it voids the seal.
    } else {
      if (have_footer) have_footer = false;
      file.events.push_back(std::move(event));
    }
    chain = util::Crc32(line.data(), line.size(), chain);
    chain = util::Crc32("\n", 1, chain);
  }
  if (!have_manifest) {
    if (error != nullptr) *error = actual + ": no valid manifest line";
    return std::nullopt;
  }
  if (have_footer) {
    const auto expected_events =
        static_cast<std::int64_t>(footer.Number("events", -1.0));
    std::uint32_t expected_chain = 0;
    const std::string chain_text = footer.Text("chain_crc");
    if (!chain_text.empty()) {
      expected_chain = static_cast<std::uint32_t>(
          std::strtoul(chain_text.c_str(), nullptr, 16));
    }
    file.sealed =
        expected_events == static_cast<std::int64_t>(file.events.size()) &&
        expected_chain == chain_before_footer && file.dropped_lines == 0;
  }
  return file;
}

std::string CanonicalEventStream(const LedgerFile& file) {
  std::string out;
  for (const LedgerEvent& event : file.events) {
    out += "{\"seq\":";
    out += FormatI64(event.seq);
    out += ",\"type\":\"";
    out += event.type;
    out += '"';
    for (const auto& [key, value] : event.fields) {
      // "t_"-prefixed fields are wall-clock measurements (e.g. the plan
      // event's t_capture_ms); like "t", they are excluded from the
      // thread-count-invariant canonical stream.
      if (key.rfind("t_", 0) == 0) continue;
      out += ",\"";
      out += key;
      out += "\":";
      out += value;
    }
    out += "}\n";
  }
  return out;
}

// ---- Ledger (writer) --------------------------------------------------------

Ledger::~Ledger() { Abandon(); }

Ledger& Ledger::Instance() {
  static Ledger* ledger = new Ledger();  // leaked, like the metrics registry
  return *ledger;
}

bool Ledger::IsOpen() const {
  return open_.load(std::memory_order_relaxed);
}

std::int64_t Ledger::events_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

bool Ledger::Open(const std::string& path, const RunManifest& manifest) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    Log(LogLevel::kWarning,
        "ledger: Open(" + path + ") while a run is already open — ignored");
    return false;
  }
  const std::string partial = path + ".partial";
  std::FILE* f = std::fopen(partial.c_str(), "wb");
  if (f == nullptr) {
    Log(LogLevel::kWarning, "ledger: cannot open " + partial);
    return false;
  }
  file_ = f;
  final_path_ = path;
  partial_path_ = partial;
  next_seq_ = 0;
  events_ = 0;
  chain_crc_ = 0;

  std::string body;
  body += "\"tool\":" + JsonQuote(manifest.tool);
  body += ",\"run_id\":" + JsonQuote(manifest.run_id);
  body += ",\"seed\":" + FormatU64(manifest.seed);
  char crc_buf[16];
  std::snprintf(crc_buf, sizeof(crc_buf), "\"0x%08x\"", manifest.config_crc);
  body += ",\"config_crc\":";
  body += crc_buf;
  body += ",\"num_threads\":" + FormatI64(manifest.num_threads);
  body += ",\"build_flags\":" + JsonQuote(manifest.build_flags);
  for (const auto& [key, value] : manifest.extra) {
    body += ",\"" + key + "\":" + JsonQuote(value);
  }
  --events_;  // the manifest line is not an event
  WriteLine("manifest", body);
  open_.store(true, std::memory_order_relaxed);
  return true;
}

void Ledger::WriteLine(const char* type, const std::string& body_fields) {
  // Caller holds mu_ or is Open() itself; file_ is non-null.
  std::string body = "{\"seq\":" + FormatI64(next_seq_) +
                     ",\"t\":" + FormatU64(WallClockMicros()) +
                     ",\"type\":\"" + type + "\"";
  if (!body_fields.empty()) {
    body += ',';
    body += body_fields;
  }
  body += '}';
  const std::uint32_t crc = util::Crc32(body.data(), body.size());
  char tail[24];
  std::snprintf(tail, sizeof(tail), ",\"crc\":\"%08x\"}", crc);
  body.erase(body.size() - 1);  // swap the closing brace for the crc tail
  body += tail;
  body += '\n';
  std::fwrite(body.data(), 1, body.size(), file_);
  std::fflush(file_);  // each line survives a process kill
  chain_crc_ = util::Crc32(body.data(), body.size(), chain_crc_);
  ++next_seq_;
  ++events_;
  FlightRecorder::Instance().NoteLedgerLine(type, body);
}

void Ledger::Event(
    const char* type,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::string body;
  for (const auto& [key, value] : fields) {
    if (!body.empty()) body += ',';
    body += '"' + key + "\":" + value;
  }
  WriteLine(type, body);
}

void Ledger::Step(std::int64_t step, double loss, double grad_norm,
                  double lr) {
  Event("step", {{"step", FormatI64(step)},
                 {"loss", FormatDouble(loss)},
                 {"grad_norm", FormatDouble(grad_norm)},
                 {"lr", FormatDouble(lr)}});
}

void Ledger::GuardTrip(std::int64_t step, const char* kind, double loss,
                       double lr_after) {
  Event("guard_trip", {{"step", FormatI64(step)},
                       {"kind", JsonQuote(kind)},
                       {"loss", FormatDouble(loss)},
                       {"lr_after", FormatDouble(lr_after)}});
}

void Ledger::GuardGiveUp(std::int64_t step, std::int64_t consecutive_skips) {
  Event("guard_give_up",
        {{"step", FormatI64(step)},
         {"consecutive_skips", FormatI64(consecutive_skips)}});
}

void Ledger::CheckpointWrite(std::int64_t step, const std::string& file,
                             bool ok) {
  Event("checkpoint_write", {{"step", FormatI64(step)},
                             {"file", JsonQuote(file)},
                             {"ok", ok ? "true" : "false"}});
}

void Ledger::EpochEnd(std::int64_t epoch, double mean_loss,
                      std::int64_t steps) {
  Event("epoch_end", {{"epoch", FormatI64(epoch)},
                      {"mean_loss", FormatDouble(mean_loss)},
                      {"steps", FormatI64(steps)}});
}

void Ledger::MaskingStats(std::int64_t windows, std::int64_t window_len,
                          std::int64_t masked_steps, std::int64_t total_steps,
                          std::int64_t masked_bins) {
  Event("masking_stats", {{"windows", FormatI64(windows)},
                          {"window_len", FormatI64(window_len)},
                          {"masked_steps", FormatI64(masked_steps)},
                          {"total_steps", FormatI64(total_steps)},
                          {"masked_frequency_bins", FormatI64(masked_bins)}});
}

void Ledger::ScoreHistogram(const char* name, double lo, double hi,
                            std::uint64_t count,
                            const std::vector<std::uint64_t>& buckets) {
  std::string array = "[";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (i > 0) array += ',';
    array += FormatU64(buckets[i]);
  }
  array += ']';
  Event("score_histogram", {{"name", JsonQuote(name)},
                            {"lo", FormatDouble(lo)},
                            {"hi", FormatDouble(hi)},
                            {"count", FormatU64(count)},
                            {"buckets", array}});
}

void Ledger::StreamEvent(const char* what, std::int64_t index, double score) {
  Event("stream", {{"what", JsonQuote(what)},
                   {"index", FormatI64(index)},
                   {"score", FormatDouble(score)}});
}

bool Ledger::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return false;
  char chain_buf[16];
  std::snprintf(chain_buf, sizeof(chain_buf), "\"%08x\"", chain_crc_);
  std::string body = "\"events\":" + FormatI64(events_) +
                     ",\"chain_crc\":" + chain_buf;
  --events_;  // the footer is not an event either
  WriteLine("footer", body);
  bool ok = std::fflush(file_) == 0;
  ok = ::fsync(::fileno(file_)) == 0 && ok;
  ok = std::fclose(file_) == 0 && ok;
  file_ = nullptr;
  open_.store(false, std::memory_order_relaxed);
  if (ok) {
    std::error_code ec;
    std::filesystem::rename(partial_path_, final_path_, ec);
    ok = !ec;
  }
  if (!ok) {
    Log(LogLevel::kWarning,
        "ledger: failed to seal " + final_path_ + " (partial left at " +
            partial_path_ + ")");
  }
  return ok;
}

void Ledger::Abandon() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
  open_.store(false, std::memory_order_relaxed);
}

}  // namespace tfmae::obs
