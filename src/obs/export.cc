#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tfmae::obs {

MetricsSnapshot SnapshotWithFaults() {
  MetricsSnapshot snap = Registry::Instance().Snapshot();
  auto faults = fault::AllCounts();
  if (!faults.empty()) {
    snap.counters.insert(snap.counters.end(),
                         std::make_move_iterator(faults.begin()),
                         std::make_move_iterator(faults.end()));
    std::sort(snap.counters.begin(), snap.counters.end());
  }
  return snap;
}

namespace {

constexpr std::string_view kTotalSuffix = ".total_ns";
constexpr std::string_view kSelfSuffix = ".self_ns";
constexpr std::string_view kAutogradPrefix = "autograd.";

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// (label, time_ns, calls) rows extracted from counter pairs
/// `<base><time_suffix>` / `<base>.calls`, sorted by time descending (ties
/// by name, so the order is deterministic).
std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> TopTable(
    const MetricsSnapshot& snap, std::string_view prefix,
    std::string_view time_suffix) {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> rows;
  for (const auto& [name, value] : snap.counters) {
    if (!EndsWith(name, time_suffix)) continue;
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    std::string base = name.substr(0, name.size() - time_suffix.size());
    const std::uint64_t calls = snap.Counter(base + ".calls");
    rows.emplace_back(std::move(base), value, calls);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (std::get<1>(a) != std::get<1>(b)) {
      return std::get<1>(a) > std::get<1>(b);
    }
    return std::get<0>(a) < std::get<0>(b);
  });
  return rows;
}

/// Minimal JSON string escaping (metric names are [a-z0-9._] by contract,
/// but don't trust that for correctness of the output document).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

}  // namespace

void DumpText(std::ostream& os, int top_k) {
  const MetricsSnapshot snap = SnapshotWithFaults();
  os << "== obs: counters ==\n";
  for (const auto& [name, value] : snap.counters) {
    os << "  " << name << " = " << value << "\n";
  }
  os << "== obs: gauges ==\n";
  for (const auto& [name, value] : snap.gauges) {
    os << "  " << name << " = " << value << "\n";
  }
  os << "== obs: histograms (count / mean / p50 / p95 / p99 / max) ==\n";
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.count == 0) continue;
    os << "  " << h.name << ": " << h.count << " / " << std::fixed
       << std::setprecision(0) << h.Mean() << " / " << h.Quantile(0.5)
       << " / " << h.Quantile(0.95) << " / " << h.Quantile(0.99) << " / "
       << h.max << "\n";
  }

  const auto sites = TopTable(snap, "", kTotalSuffix);
  os << "== obs: top sites by total time ==\n";
  int shown = 0;
  for (const auto& [site, total_ns, calls] : sites) {
    if (shown++ >= top_k) break;
    os << "  " << std::left << std::setw(32) << site << std::right
       << std::setw(12) << std::fixed << std::setprecision(3)
       << static_cast<double>(total_ns) / 1e6 << " ms  " << std::setw(10)
       << calls << " calls\n";
  }

  const auto autograd = TopTable(snap, kAutogradPrefix, kSelfSuffix);
  os << "== obs: top autograd ops by self time ==\n";
  shown = 0;
  for (const auto& [op, self_ns, calls] : autograd) {
    if (shown++ >= top_k) break;
    os << "  " << std::left << std::setw(32)
       << op.substr(kAutogradPrefix.size()) << std::right << std::setw(12)
       << std::fixed << std::setprecision(3)
       << static_cast<double>(self_ns) / 1e6 << " ms  " << std::setw(10)
       << calls << " calls\n";
  }
  os.unsetf(std::ios::fixed);
}

void DumpJsonTo(std::ostream& os) {
  const MetricsSnapshot snap = SnapshotWithFaults();
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << value;
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  const std::streamsize prec = os.precision();
  for (const HistogramSnapshot& h : snap.histograms) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(h.name)
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"mean\": " << std::setprecision(6) << h.Mean()
       << ", \"p50\": " << h.Quantile(0.5)
       << ", \"p95\": " << h.Quantile(0.95)
       << ", \"p99\": " << h.Quantile(0.99) << "}";
    os << std::setprecision(static_cast<int>(prec));
    first = false;
  }
  os << "\n  },\n  \"top_sites\": [";
  first = true;
  for (const auto& [site, total_ns, calls] : TopTable(snap, "", ".total_ns")) {
    os << (first ? "" : ",") << "\n    {\"site\": \"" << JsonEscape(site)
       << "\", \"total_ns\": " << total_ns << ", \"calls\": " << calls << "}";
    first = false;
  }
  os << "\n  ],\n  \"autograd_top\": [";
  first = true;
  for (const auto& [op, self_ns, calls] :
       TopTable(snap, "autograd.", ".self_ns")) {
    os << (first ? "" : ",") << "\n    {\"op\": \""
       << JsonEscape(std::string_view(op).substr(9)) // strip "autograd."
       << "\", \"self_ns\": " << self_ns << ", \"calls\": " << calls << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

bool DumpJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  DumpJsonTo(out);
  return out.good();
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const auto events = CollectTraceEvents();
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [tid, e] : events) {
    // Complete ("X") events; chrome expects microsecond timestamps.
    out << (first ? "" : ",") << "\n  {\"name\": \"" << JsonEscape(e.site->name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << std::fixed << std::setprecision(3)
        << static_cast<double>(e.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1e3 << "}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {"
      << "\"dropped_events\": " << DroppedTraceEvents() << "}}\n";
  return out.good();
}

namespace {

// atexit state for MaybeProfileFromArgs (plain statics: written once during
// argument parsing, read once at exit).
std::string* g_json_path = nullptr;
std::string* g_trace_path = nullptr;
bool g_text_dump = false;
bool g_ledger_open = false;

void AtExitDump() {
  if (g_ledger_open && Ledger::Instance().IsOpen()) {
    if (Ledger::Instance().Close()) {
      std::fprintf(stderr, "obs: sealed run ledger\n");
    } else {
      std::fprintf(stderr, "obs: run ledger seal failed (.partial kept)\n");
    }
  }
  if (g_json_path != nullptr) {
    if (!DumpJson(*g_json_path)) {
      std::fprintf(stderr, "obs: cannot write %s\n", g_json_path->c_str());
    } else {
      std::fprintf(stderr, "obs: wrote metrics to %s\n", g_json_path->c_str());
    }
  }
  if (g_trace_path != nullptr) {
    StopTracing();
    if (!WriteChromeTrace(*g_trace_path)) {
      std::fprintf(stderr, "obs: cannot write %s\n", g_trace_path->c_str());
    } else {
      std::fprintf(stderr, "obs: wrote chrome trace to %s\n",
                   g_trace_path->c_str());
    }
  }
  if (g_text_dump) DumpText(std::cerr);
}

}  // namespace

bool MaybeProfileFromArgs(int* argc, char** argv) {
  // Binaries that use the shared flag glue honour the TFMAE_FAULTS env spec
  // (a no-op when unset).
  fault::ConfigureFromEnv();
  constexpr std::string_view kJson = "--obs_json=";
  constexpr std::string_view kTrace = "--obs_trace=";
  constexpr std::string_view kText = "--obs_text";
  constexpr std::string_view kLedger = "--ledger=";
  constexpr std::string_view kRecorder = "--flight_recorder=";
  std::string ledger_path;
  std::string recorder_path;
  bool any = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(kJson, 0) == 0) {
      g_json_path = new std::string(arg.substr(kJson.size()));
      any = true;
    } else if (arg.rfind(kTrace, 0) == 0) {
      g_trace_path = new std::string(arg.substr(kTrace.size()));
      any = true;
    } else if (arg == kText) {
      g_text_dump = true;
      any = true;
    } else if (arg.rfind(kLedger, 0) == 0) {
      ledger_path = arg.substr(kLedger.size());
      any = true;
    } else if (arg.rfind(kRecorder, 0) == 0) {
      recorder_path = arg.substr(kRecorder.size());
      any = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  if (!any) return false;
  *argc = out;
  argv[out] = nullptr;
  SetEnabled(true);
  if (!recorder_path.empty()) {
    FlightRecorder::Instance().Arm(recorder_path);
    FlightRecorder::Instance().InstallSignalHandlers();
  }
  if (!ledger_path.empty()) {
    RunManifest manifest;
    const std::string_view binary =
        *argc > 0 && argv[0] != nullptr ? argv[0] : "unknown";
    const std::size_t slash = binary.find_last_of('/');
    manifest.tool = std::string(
        slash == std::string_view::npos ? binary : binary.substr(slash + 1));
    manifest.run_id = ledger_path;
    manifest.num_threads = ThreadPool::Instance().num_threads();
    manifest.build_flags = BuildFlagsString();
    if (!Ledger::Instance().Open(ledger_path, manifest)) {
      std::fprintf(stderr, "obs: cannot open run ledger %s\n",
                   ledger_path.c_str());
    } else {
      g_ledger_open = true;
    }
  }
  if (g_trace_path != nullptr) StartTracing();
  std::atexit(AtExitDump);
  return true;
}

}  // namespace tfmae::obs
