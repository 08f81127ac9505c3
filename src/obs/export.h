// Exporters for the metrics registry and the trace-event capture.
//
// Three formats (the exporter contract in docs/OBSERVABILITY.md):
//  * DumpText     — human-readable report: counters, gauges, histogram
//                   percentiles, a "top sites by total time" table, and a
//                   "top autograd ops by self time" table.
//  * DumpJson     — machine-readable snapshot, one JSON object, stable key
//                   order (metrics sorted by name).
//  * WriteChromeTrace — chrome://tracing / Perfetto "traceEvents" JSON from
//                   the captured TFMAE_TRACE scopes.
//
// All exporters read a merged snapshot (shards combined in index order), so
// count-typed output is bitwise identical at any TFMAE_NUM_THREADS; wall
// times naturally vary run to run.
#ifndef TFMAE_OBS_EXPORT_H_
#define TFMAE_OBS_EXPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.h"

namespace tfmae::obs {

/// Registry snapshot with the fault registry's counters spliced in (the
/// fault layer sits below obs and cannot push into the Registry itself —
/// see util/fault.h). Keeps the by-name ordering contract. Shared by the
/// text/JSON exporters and the Prometheus endpoint (obs/prom_export.h).
MetricsSnapshot SnapshotWithFaults();

/// Human-readable dump of the current registry state.
/// `top_k` bounds the two "top ops" tables.
void DumpText(std::ostream& os, int top_k = 10);

/// JSON dump of the current registry state. Returns false on I/O failure.
bool DumpJson(const std::string& path);

/// JSON dump to an open stream (used by DumpJson and tests).
void DumpJsonTo(std::ostream& os);

/// Writes captured trace events as a chrome://tracing "traceEvents" JSON
/// document. Call after StopTracing() once in-flight instrumented work has
/// quiesced (per-thread buffers are read without synchronizing against
/// concurrent recording). Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path);

/// Command-line glue shared by benches and examples: consumes the flags
///   --obs_json=PATH       enable recording; dump JSON metrics at exit
///   --obs_trace=PATH      enable recording + tracing; write a chrome trace
///                         at exit
///   --obs_text            enable recording; dump the text report to stderr
///                         at exit
///   --ledger=PATH         open the process run ledger at PATH (sealed at
///                         exit; see obs/ledger.h)
///   --flight_recorder=PATH  arm the crash flight recorder and install the
///                         fatal-signal postmortem handlers
/// from argv (compacting it and decrementing *argc) and registers the
/// corresponding atexit writers. Returns true if any flag was seen. Also
/// applies the TFMAE_FAULTS / TFMAE_FAULTS_SEED environment spec
/// (fault::ConfigureFromEnv), flags or not.
bool MaybeProfileFromArgs(int* argc, char** argv);

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_EXPORT_H_
