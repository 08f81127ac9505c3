#!/usr/bin/env bash
# Profile the quickstart example through the observability layer.
#
# Builds the quickstart example in the default build directory, runs it with
# --obs_json (and --obs_trace for a chrome://tracing timeline), which switch
# the always-compiled instrumentation on, then sanity-checks the emitted
# JSON profile.
#
# Usage:
#   scripts/profile_quickstart.sh [output.json]
#
# Outputs (defaults under build/):
#   PROFILE_quickstart.json   metrics snapshot (counters/gauges/histograms)
#   PROFILE_quickstart_trace.json   chrome://tracing timeline
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build"
OUT_JSON="${1:-$BUILD_DIR/PROFILE_quickstart.json}"
OUT_TRACE="${OUT_JSON%.json}_trace.json"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target quickstart

"$BUILD_DIR/examples/quickstart" \
  --obs_json="$OUT_JSON" --obs_trace="$OUT_TRACE"

# Sanity-check the profile: it must parse as JSON and contain the hot-path
# metrics the quickstart exercises.
python3 - "$OUT_JSON" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    profile = json.load(f)

counters = profile.get("counters", {})
histograms = profile.get("histograms", {})

for required in ("tensor.gemm.flops", "tensor.gemm.calls",
                 "nn.adam.steps"):
    assert counters.get(required, 0) > 0, f"missing counter {required}"
for required in ("tensor.gemm.time_ns",):
    hist = histograms.get(required)
    assert hist and hist.get("count", 0) > 0, f"missing histogram {required}"

gemm_ms = counters.get("tensor.gemm.total_ns", 0) / 1e6
print(f"profile OK: {path}")
print(f"  gemm: {counters['tensor.gemm.calls']} calls, "
      f"{counters['tensor.gemm.flops']/1e9:.2f} GFLOP, {gemm_ms:.1f} ms")
print(f"  adam steps: {counters['nn.adam.steps']}")
EOF

echo "trace timeline: $OUT_TRACE (load in chrome://tracing or Perfetto)"
