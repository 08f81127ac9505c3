#!/usr/bin/env bash
# Build and run the test suite, optionally under a sanitizer, plus the
# soaks, smokes and bench sweeps that need the same binaries.
#
# Usage:
#   scripts/check.sh [plain|address|thread|undefined|bench] [extra ctest args...]
#
# Examples:
#   scripts/check.sh                 # plain Release build, full suite
#   scripts/check.sh thread          # ThreadSanitizer, full suite twice
#   scripts/check.sh thread -R Gemm  # tsan build, GEMM/thread-pool tests only
#   scripts/check.sh address -j4     # ASan passes in parallel, then soaks
#   scripts/check.sh bench           # bench sweeps gated against baselines
#
# Every build compiles the observability sites and the fault-injection
# points in; TFMAE_OBS=1 and a configured fault spec switch them on at run
# time. So one build per sanitizer covers every suite, and each mode builds
# into its own directory (build-check-<mode>) so sanitized and plain object
# files never mix. Extra arguments go to every ctest run of the mode.
#
# plain: the full tier-1 suite in a Release build, including the run
# ledger / flight recorder / report / registry-cap suites with the
# 1/2/4-thread replay-determinism contract and the injected-fault
# postmortem.
#
# address: the memory-plane soak from DESIGN.md and every soak that wants
# lifetime checking. The full suite runs under AddressSanitizer three
# times — pool on, pool on with the NaN scrub canary, and TFMAE_POOL=0 — so
# buffer recycling, read-before-write of recycled memory, the unpooled
# escape hatch, hand-planned plan arenas, per-lane plan replicas, snapshot
# and socket-buffer lifetimes are all exercised. The live-observability
# suites (exporter, HTTP endpoint, stage timelines, SLOs, drift) run once
# more with TFMAE_OBS=1 so every macro site records. Then, on the ASan
# binaries:
#  * serve smoke (docs/SERVING.md): a 30-second 256-stream tfmae_serve
#    replay with --verify (batched == sequential);
#  * chaos soak (docs/RESILIENCE.md, "Serving resilience"):
#    scripts/chaos_soak.py kill -9s a live tfmae_serve mid-run three times,
#    restores each from its newest valid snapshot, re-feeds the tail, and
#    fails unless the union of the score logs is bitwise-identical to an
#    uninterrupted run;
#  * live smoke (docs/OBSERVABILITY.md, "Live endpoints & SLOs"):
#    scripts/live_smoke.py scrapes /metrics of a 256-stream tfmae_serve
#    mid-load, checks the exposition format and the stage-sum/end-to-end
#    reconciliation, and asserts /healthz flips to 503 during drain;
#  * quant parity smoke (DESIGN.md §12): `bench_micro --quant_json
#    --quant_profiles=3` fails if int8 F1 drifts past tolerance or int8
#    scores diverge across thread counts.
#
# thread: the full suite under ThreadSanitizer twice — as is, and with
# TFMAE_OBS=1 so every instrumented site records while TSan watches the
# registry's lock-free shard path, plan replay's parallel-for chunks, and
# the fleet server's lock-free stream publication and lane claiming.
#
# undefined: the resilience soak from docs/RESILIENCE.md. The full suite
# runs under UndefinedBehaviorSanitizer (injected failures walk error paths
# that rarely run otherwise, and no fault is configured unless a test asks
# for one). Then the fault-injection tests re-run under a sweep of seeds
# (TFMAE_FAULT_SWEEP_SEED), which drive randomized injected I/O failures,
# NaN losses, and interrupts; training and recovery must survive every
# seed.
#
# bench: the performance gate from docs/OBSERVABILITY.md ("Benchmark
# gating"): the bench_micro JSON sweeps in a Release build, failing if any
# tracked relative metric (speedup ratios, allocation reduction,
# bitwise-determinism booleans, the 5-profile int8 F1 parity) regresses
# past the tolerance in scripts/bench_gate.py, plus the gate's smoke run of
# the committed baselines against themselves.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-plain}"
shift || true

case "$MODE" in
  plain|bench) CMAKE_FLAGS=() ;;
  address|thread|undefined) CMAKE_FLAGS=("-DTFMAE_SANITIZE=$MODE") ;;
  *)
    echo "usage: $0 [plain|address|thread|undefined|bench] [ctest args...]" >&2
    exit 2
    ;;
esac

BUILD_DIR="build-check-$MODE"
cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

suite() { ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"; }

case "$MODE" in
  plain)
    suite "$@"
    ;;
  address)
    echo "== full suite: ASan, TFMAE_POOL=1 =="
    TFMAE_POOL=1 suite "$@"
    echo "== full suite: ASan, TFMAE_POOL=1 TFMAE_POOL_SCRUB=1 =="
    TFMAE_POOL=1 TFMAE_POOL_SCRUB=1 suite "$@"
    echo "== full suite: ASan, TFMAE_POOL=0 =="
    TFMAE_POOL=0 suite "$@"
    echo "== live suites: ASan, TFMAE_OBS=1 =="
    TFMAE_OBS=1 suite \
      -R 'PromExport|HttpEndpoint|ServeObs|RegistryOverflow|HistogramQuantile' \
      "$@"
    echo "== serve smoke: 256 streams, 30 seconds, batched == sequential =="
    "$BUILD_DIR/tools/tfmae_serve" \
      --streams=256 --threads=2 --seconds=30 --verify
    echo "== chaos soak: kill -9 mid-run, restore, union-of-logs bitwise =="
    python3 scripts/chaos_soak.py --serve-bin "$BUILD_DIR/tools/tfmae_serve"
    echo "== live smoke: 256 streams, mid-load scrape, /healthz 503 on drain =="
    TFMAE_OBS=1 python3 scripts/live_smoke.py \
      --serve-bin "$BUILD_DIR/tools/tfmae_serve"
    echo "== quant parity smoke: 3 dataset profiles, int8 vs fp32 F1 =="
    "$BUILD_DIR/bench/bench_micro" \
      --quant_json="$BUILD_DIR/quant_smoke.json" --quant_profiles=3
    ;;
  thread)
    echo "== full suite: TSan =="
    suite "$@"
    echo "== full suite: TSan, TFMAE_OBS=1 =="
    TFMAE_OBS=1 suite "$@"
    ;;
  undefined)
    echo "== full suite: UBSan, no fault configured =="
    suite "$@"
    for seed in 1 7 1234; do
      echo "== fault sweep: UBSan, injected failures, seed $seed =="
      TFMAE_FAULT_SWEEP_SEED="$seed" \
        suite -R 'FaultRegistry|FaultInjection|NumericGuard' "$@"
    done
    ;;
  bench)
    OUT_DIR="$BUILD_DIR/bench_sweeps"
    mkdir -p "$OUT_DIR"
    for sweep in tensor_backend memory_plane resilience inference_plan \
                 serving quant; do
      echo "== bench sweep: $sweep =="
      "$BUILD_DIR/bench/bench_micro" "--${sweep}_json=$OUT_DIR/$sweep.json"
    done
    echo "== bench gate: sweeps vs bench_results/baselines =="
    python3 scripts/bench_gate.py --current-dir "$OUT_DIR"
    echo "== bench gate smoke: committed baselines vs themselves =="
    python3 scripts/bench_gate.py --smoke
    ;;
esac
