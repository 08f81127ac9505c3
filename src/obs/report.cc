#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace tfmae::obs {
namespace {

std::string Format(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string FormatI(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

/// CDF of a linear-bucketed histogram evaluated at `x` (step CDF: each
/// bucket's mass lands at its upper edge).
double StepCdf(double lo, double hi, const std::vector<std::uint64_t>& buckets,
               std::uint64_t total, double x) {
  if (total == 0) return 0.0;
  if (buckets.empty() || hi <= lo) {
    // Degenerate distribution concentrated at lo.
    return x >= lo ? 1.0 : 0.0;
  }
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double edge = lo + width * static_cast<double>(b + 1);
    if (edge > x + 1e-300 && edge > x) break;
    seen += buckets[b];
  }
  return static_cast<double>(seen) / static_cast<double>(total);
}

std::uint64_t Total(const std::vector<std::uint64_t>& buckets) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  return total;
}

/// Quantile of a linear-bucketed histogram (linear interpolation inside the
/// bucket — score buckets are already linear, unlike the registry's log2
/// buckets).
double LinearQuantile(double lo, double hi,
                      const std::vector<std::uint64_t>& buckets, double p) {
  const std::uint64_t total = Total(buckets);
  if (total == 0 || buckets.empty() || hi <= lo) return lo;
  const double target = p * static_cast<double>(total);
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double next = seen + static_cast<double>(buckets[b]);
    if (next >= target && buckets[b] > 0) {
      const double f = (target - seen) / static_cast<double>(buckets[b]);
      return lo + width * (static_cast<double>(b) + std::clamp(f, 0.0, 1.0));
    }
    seen = next;
  }
  return hi;
}

}  // namespace

RunDigest DigestRun(const LedgerFile& file) {
  RunDigest digest;
  digest.tool = file.Tool();
  digest.run_id = file.RunId();
  digest.num_threads = file.NumThreads();
  digest.sealed = file.sealed;
  digest.dropped_lines = file.dropped_lines;
  bool first_step = true;
  for (const LedgerEvent& event : file.events) {
    if (digest.first_t_us == 0) digest.first_t_us = event.t_us;
    digest.last_t_us = event.t_us;
    if (event.type == "step") {
      ++digest.steps;
      digest.last_loss = event.Number("loss");
      if (first_step) {
        digest.first_loss = digest.last_loss;
        first_step = false;
      }
    } else if (event.type == "guard_trip") {
      ++digest.guard_trips;
    } else if (event.type == "guard_give_up") {
      ++digest.guard_give_ups;
    } else if (event.type == "checkpoint_write") {
      const std::string* ok = event.Field("ok");
      if (ok != nullptr && *ok == "true") {
        ++digest.checkpoints_ok;
      } else {
        ++digest.checkpoints_failed;
      }
    } else if (event.type == "epoch_end") {
      digest.epochs.emplace_back(
          static_cast<std::int64_t>(event.Number("epoch")),
          event.Number("mean_loss"));
    } else if (event.type == "score_histogram") {
      digest.histograms.push_back(event);
    } else if (event.type == "stream") {
      ++digest.stream_events;
    } else if (event.type == "plan") {
      ++digest.plan_captures;
      digest.plan_ops = static_cast<std::int64_t>(event.Number("ops"));
      digest.plan_arena_bytes =
          static_cast<std::int64_t>(event.Number("arena_bytes"));
    } else if (event.type == "quant") {
      const std::string verdict = event.Text("verdict");
      if (verdict == "calibrated") {
        ++digest.quant_calibrations;
        digest.quant_sites = static_cast<std::int64_t>(event.Number("sites"));
        digest.quant_amax_min = event.Number("amax_min");
        digest.quant_amax_max = event.Number("amax_max");
      } else if (verdict == "self_verified") {
        ++digest.quant_plans;
        digest.quant_linear_ops =
            static_cast<std::int64_t>(event.Number("quant_linear_ops"));
        digest.quant_elided_pairs =
            static_cast<std::int64_t>(event.Number("elided_quant_pairs"));
        digest.quant_arena_bytes =
            static_cast<std::int64_t>(event.Number("quant_arena_bytes"));
      } else if (verdict == "fallback") {
        ++digest.quant_fallbacks;
        digest.quant_fallback_reason = event.Text("reason");
      }
    }
  }
  return digest;
}

double KsDistance(double lo_a, double hi_a,
                  const std::vector<std::uint64_t>& buckets_a, double lo_b,
                  double hi_b, const std::vector<std::uint64_t>& buckets_b) {
  const std::uint64_t total_a = Total(buckets_a);
  const std::uint64_t total_b = Total(buckets_b);
  if (total_a == 0 || total_b == 0) return 0.0;
  // Evaluate both step CDFs on the union of bucket edges.
  std::set<double> edges;
  const auto add_edges = [&edges](double lo, double hi, std::size_t n) {
    edges.insert(lo);
    if (n == 0 || hi <= lo) return;
    const double width = (hi - lo) / static_cast<double>(n);
    for (std::size_t b = 1; b <= n; ++b) {
      edges.insert(lo + width * static_cast<double>(b));
    }
  };
  add_edges(lo_a, hi_a, buckets_a.size());
  add_edges(lo_b, hi_b, buckets_b.size());
  double ks = 0.0;
  for (double x : edges) {
    const double d = std::abs(StepCdf(lo_a, hi_a, buckets_a, total_a, x) -
                              StepCdf(lo_b, hi_b, buckets_b, total_b, x));
    ks = std::max(ks, d);
  }
  return ks;
}

std::string RenderRunReport(const LedgerFile& file,
                            const ReportOptions& options) {
  const RunDigest d = DigestRun(file);
  std::string out;
  out += "== run: " + d.run_id + " (" + d.tool + ") ==\n";
  out += "  threads: " + FormatI(d.num_threads);
  out += "  integrity: ";
  out += d.sealed ? "sealed" : "UNSEALED prefix";
  if (d.dropped_lines > 0) {
    out += " (" + FormatI(d.dropped_lines) + " corrupt line(s) dropped)";
  }
  out += "\n";
  out += "  events: " + FormatI(static_cast<std::int64_t>(file.events.size()));
  out += "  steps: " + FormatI(d.steps);
  out += "  guard trips: " + FormatI(d.guard_trips);
  if (d.guard_give_ups > 0) {
    out += "  GAVE UP x" + FormatI(d.guard_give_ups);
  }
  out += "  checkpoints: " + FormatI(d.checkpoints_ok);
  if (d.checkpoints_failed > 0) {
    out += " (+" + FormatI(d.checkpoints_failed) + " failed)";
  }
  if (d.stream_events > 0) {
    out += "  stream events: " + FormatI(d.stream_events);
  }
  out += "\n";
  if (d.steps > 0) {
    out += "  loss: first " + Format("%.6g", d.first_loss) + " -> last " +
           Format("%.6g", d.last_loss) + "\n";
  }
  if (d.plan_captures > 0) {
    out += "  inference plan: " + FormatI(d.plan_captures) + " capture(s), " +
           FormatI(d.plan_ops) + " ops, arena " +
           FormatI(d.plan_arena_bytes) + " B\n";
  }
  if (d.quant_calibrations + d.quant_plans + d.quant_fallbacks > 0) {
    out += "  quant:";
    if (d.quant_calibrations > 0) {
      out += " calibrated " + FormatI(d.quant_sites) + " sites (|x| " +
             Format("%.4g", d.quant_amax_min) + ".." +
             Format("%.4g", d.quant_amax_max) + ")";
    }
    if (d.quant_plans > 0) {
      if (d.quant_calibrations > 0) out += ",";
      out += " int8 plan self-verified: " + FormatI(d.quant_linear_ops) +
             " int8 matmuls, " + FormatI(d.quant_elided_pairs) +
             " elided quant pairs, u8 arena " +
             FormatI(d.quant_arena_bytes) + " B";
    }
    if (d.quant_fallbacks > 0) {
      if (d.quant_calibrations + d.quant_plans > 0) out += ",";
      out += " " + FormatI(d.quant_fallbacks) + " fp32 fallback(s)";
      if (!d.quant_fallback_reason.empty()) {
        out += " (" + d.quant_fallback_reason + ")";
      }
    }
    out += "\n";
  }
  if (options.show_timing && d.last_t_us > d.first_t_us) {
    const double sec =
        static_cast<double>(d.last_t_us - d.first_t_us) / 1e6;
    out += "  duration: " + Format("%.2f", sec) + " s";
    if (d.steps > 1) {
      out += "  (" + Format("%.1f", static_cast<double>(d.steps) / sec) +
             " steps/s)";
    }
    out += "\n";
  }
  if (!d.epochs.empty()) {
    out += "  epoch  mean_loss\n";
    std::size_t rows = d.epochs.size();
    if (options.max_epoch_rows > 0) {
      rows = std::min<std::size_t>(
          rows, static_cast<std::size_t>(options.max_epoch_rows));
    }
    for (std::size_t i = 0; i < rows; ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "  %5lld  %.9g\n",
                    static_cast<long long>(d.epochs[i].first),
                    d.epochs[i].second);
      out += buf;
    }
    if (rows < d.epochs.size()) {
      out += "  ... (" + FormatI(static_cast<std::int64_t>(d.epochs.size())) +
             " epochs total)\n";
    }
  }
  for (const LedgerEvent& h : d.histograms) {
    const auto buckets = h.U64Array("buckets");
    const double lo = h.Number("lo");
    const double hi = h.Number("hi");
    out += "  scores '" + h.Text("name") +
           "': n=" + FormatI(static_cast<std::int64_t>(h.Number("count")));
    out += "  p50 " + Format("%.6g", LinearQuantile(lo, hi, buckets, 0.5));
    out += "  p95 " + Format("%.6g", LinearQuantile(lo, hi, buckets, 0.95));
    out += "  p99 " + Format("%.6g", LinearQuantile(lo, hi, buckets, 0.99));
    out += "  max " + Format("%.6g", hi) + "\n";
  }
  return out;
}

std::string RenderRunDiff(const LedgerFile& a, const LedgerFile& b,
                          const ReportOptions& options) {
  const RunDigest da = DigestRun(a);
  const RunDigest db = DigestRun(b);
  std::string out;
  out += "== diff: " + da.run_id + " vs " + db.run_id + " ==\n";
  out += "  steps: " + FormatI(da.steps) + " vs " + FormatI(db.steps);
  if (da.steps != db.steps) out += "  [DIFFERS]";
  out += "\n";
  out += "  guard trips: " + FormatI(da.guard_trips) + " vs " +
         FormatI(db.guard_trips);
  if (da.guard_trips != db.guard_trips) out += "  [DIFFERS]";
  out += "\n";
  out += "  checkpoints: " + FormatI(da.checkpoints_ok) + " vs " +
         FormatI(db.checkpoints_ok) + "\n";
  if (da.steps > 0 && db.steps > 0) {
    const double delta = db.last_loss - da.last_loss;
    out += "  final step loss: " + Format("%.9g", da.last_loss) + " vs " +
           Format("%.9g", db.last_loss) + "  (delta " +
           Format("%+.3g", delta) + ")\n";
  }

  const std::size_t epochs = std::min(da.epochs.size(), db.epochs.size());
  if (epochs > 0) {
    out += "  epoch  mean_loss_a    mean_loss_b    delta\n";
    std::size_t rows = epochs;
    if (options.max_epoch_rows > 0) {
      rows = std::min<std::size_t>(
          rows, static_cast<std::size_t>(options.max_epoch_rows));
    }
    for (std::size_t i = 0; i < rows; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  %5lld  %-13.6g %-13.6g %+.3g\n",
                    static_cast<long long>(da.epochs[i].first),
                    da.epochs[i].second, db.epochs[i].second,
                    db.epochs[i].second - da.epochs[i].second);
      out += buf;
    }
    if (rows < epochs) {
      out += "  ... (" + FormatI(static_cast<std::int64_t>(epochs)) +
             " shared epochs total)\n";
    }
  }
  if (da.epochs.size() != db.epochs.size()) {
    out += "  epoch count differs: " +
           FormatI(static_cast<std::int64_t>(da.epochs.size())) + " vs " +
           FormatI(static_cast<std::int64_t>(db.epochs.size())) + "\n";
  }

  // Score-distribution drift: match histograms by name AND occurrence
  // (a run that calls Score twice records two events with the same name;
  // the n-th of run a compares against the n-th of run b).
  const auto nth_with_name = [](const std::vector<LedgerEvent>& histograms,
                                const std::string& name,
                                std::size_t n) -> const LedgerEvent* {
    for (const LedgerEvent& candidate : histograms) {
      if (candidate.Text("name") != name) continue;
      if (n == 0) return &candidate;
      --n;
    }
    return nullptr;
  };
  std::map<std::string, std::size_t> seen_a;
  for (const LedgerEvent& ha : da.histograms) {
    const std::string name = ha.Text("name");
    const LedgerEvent* hb = nth_with_name(db.histograms, name, seen_a[name]++);
    if (hb == nullptr) {
      out += "  scores '" + name + "': only in run a\n";
      continue;
    }
    const double ks =
        KsDistance(ha.Number("lo"), ha.Number("hi"), ha.U64Array("buckets"),
                   hb->Number("lo"), hb->Number("hi"), hb->U64Array("buckets"));
    out += "  scores '" + name + "': K-S distance " + Format("%.6f", ks);
    if (ks == 0.0) out += "  (identical)";
    out += "\n";
  }
  std::map<std::string, std::size_t> seen_b;
  for (const LedgerEvent& hb : db.histograms) {
    const std::string name = hb.Text("name");
    if (nth_with_name(da.histograms, name, seen_b[name]++) == nullptr) {
      out += "  scores '" + name + "': only in run b\n";
    }
  }
  return out;
}

}  // namespace tfmae::obs
