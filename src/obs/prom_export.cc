#include "obs/prom_export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

namespace tfmae::obs {
namespace {

constexpr std::string_view kPrefix = "tfmae_";

bool PromNameByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(std::string* out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

/// `# HELP`/`# TYPE` header for one family. The HELP text carries the
/// original dotted registry name (backslash/newline escaped per the format,
/// though registry names never contain either).
void AppendHeader(std::string* out, const std::string& family,
                  const char* type, std::string_view original) {
  out->append("# HELP ").append(family).append(" tfmae ").append(type);
  out->push_back(' ');
  for (char c : original) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\n');
  out->append("# TYPE ").append(family).append(" ").append(type).push_back(
      '\n');
}

void AppendHistogram(std::string* out, const HistogramSnapshot& h) {
  const std::string family = std::string(kPrefix) + PromMetricName(h.name);
  AppendHeader(out, family, "histogram", h.name);
  // Cumulative buckets up to the highest populated one (every higher
  // bucket's cumulative count equals `_count`, which `+Inf` states), so a
  // 64-bucket histogram with all mass under a millisecond does not emit 40
  // empty trailing series per scrape.
  int top = -1;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] != 0) top = b;
  }
  std::uint64_t cumulative = 0;
  for (int b = 0; b <= top; ++b) {
    cumulative += h.buckets[b];
    out->append(family).append("_bucket{le=\"");
    AppendU64(out, HistogramBucketUpperBound(b));
    out->append("\"} ");
    AppendU64(out, cumulative);
    out->push_back('\n');
  }
  out->append(family).append("_bucket{le=\"+Inf\"} ");
  AppendU64(out, h.count);
  out->push_back('\n');
  out->append(family).append("_sum ");
  AppendU64(out, h.sum);
  out->push_back('\n');
  out->append(family).append("_count ");
  AppendU64(out, h.count);
  out->push_back('\n');
}

}  // namespace

std::string PromMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') {
    out.push_back('_');
  }
  for (char c : name) {
    out.push_back(PromNameByte(c) ? c : '_');
  }
  return out;
}

std::string PromEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string RenderPrometheusText(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string family =
        std::string(kPrefix) + PromMetricName(name) + "_total";
    AppendHeader(&out, family, "counter", name);
    out.append(family).push_back(' ');
    AppendU64(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string family = std::string(kPrefix) + PromMetricName(name);
    AppendHeader(&out, family, "gauge", name);
    out.append(family).push_back(' ');
    AppendI64(&out, value);
    out.push_back('\n');
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    AppendHistogram(&out, h);
  }
  return out;
}

}  // namespace tfmae::obs
