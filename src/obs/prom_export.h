// Prometheus text-exposition renderer for the metrics registry
// (docs/OBSERVABILITY.md, "Live endpoints & SLOs").
//
// Renders a MetricsSnapshot in the Prometheus text exposition format
// (version 0.0.4): every counter becomes a `# TYPE ... counter` family with
// the conventional `_total` suffix, gauges stay as-is, and every log2
// histogram becomes a cumulative `_bucket{le="..."}` series (inclusive
// upper bounds from HistogramBucketUpperBound) plus `_sum`/`_count` and the
// mandatory `le="+Inf"` bucket, which always equals `_count`.
//
// Name mapping: registry names are `subsystem.op.stat`; Prometheus names
// allow only [a-zA-Z0-9_:], so dots (and any other invalid byte) become
// underscores and the whole family is prefixed `tfmae_`:
//   tensor.gemm.time_ns  ->  tfmae_tensor_gemm_time_ns
// The mapping is mechanical, so a scrape and an --obs_json dump of the same
// registry state describe the same metrics under predictable names. Metrics
// kept outside the registry are spliced into the snapshot before rendering
// (fault counters by SnapshotWithFaults, the fleet server's by
// serve::AppendServeMetrics).
//
// Determinism: the renderer is a pure function of the snapshot (families in
// snapshot order, which Registry::Snapshot and the splices keep sorted by
// name), so two renders of identical metric state are byte-identical.
#ifndef TFMAE_OBS_PROM_EXPORT_H_
#define TFMAE_OBS_PROM_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace tfmae::obs {

/// Registry name -> Prometheus metric name: every byte outside
/// [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_' prepended
/// (Prometheus names must not start with a digit). Does NOT add the
/// `tfmae_` prefix or the counter `_total` suffix; the renderer does.
std::string PromMetricName(std::string_view name);

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline become \\, \", and \n.
std::string PromEscapeLabel(std::string_view value);

/// Renders `snap` as a complete text-exposition document (trailing
/// newline included).
std::string RenderPrometheusText(const MetricsSnapshot& snap);

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_PROM_EXPORT_H_
