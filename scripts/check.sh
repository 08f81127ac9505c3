#!/usr/bin/env bash
# Build and run the test suite, optionally under a sanitizer, plus the
# soaks and smokes that need the same binaries, or the benchmarks.
#
# Usage:
#   scripts/check.sh [plain|address|thread|undefined|bench] [extra ctest args...]
#
# Examples:
#   scripts/check.sh                 # plain Release build, full suite
#   scripts/check.sh thread          # ThreadSanitizer, full suite twice
#   scripts/check.sh thread -R Gemm  # tsan build, GEMM/thread-pool tests only
#   scripts/check.sh address -j4     # ASan passes in parallel, then soaks
#   scripts/check.sh bench           # benchmark smoke + complexity suite
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
# postmortem. This build compiles with -Werror, so any compiler warning
# fails the mode.
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
#  * int8 checkpoint round trip: one tfmae_serve run calibrates int8 and
#    saves the detector file, a second serves 64 streams from that file
#    and must report int8 lanes and a bitwise --verify pass;
#  * chaos soak (docs/RESILIENCE.md, "Serving resilience"):
#    scripts/chaos_soak.py kill -9s a live tfmae_serve mid-run three times,
#    restores each from its newest valid snapshot, re-feeds the tail, and
#    fails unless the union of the score logs is bitwise-identical to an
#    uninterrupted run;
#  * live smoke (docs/OBSERVABILITY.md, "Live endpoints & SLOs"):
#    scripts/live_smoke.py scrapes /metrics of a 256-stream tfmae_serve
#    back to back through most of the load and fails unless every scrape
#    is valid exposition with no family twice, its stage and score-window
#    histograms reconcile, and its windows-scored count is at most that of
#    the /statusz read right after it; then it asserts /healthz flips to
#    503 during drain.
#
# thread: the full suite under ThreadSanitizer twice — as is, and with
# TFMAE_OBS=1 so every instrumented site records while TSan watches the
# registry's lock-free shard path, plan replay's parallel-for chunks, and
# the fleet server's lock-free stream publication and lane claiming. Both
# passes always run; the mode fails if either does.
#
# undefined: the resilience soak from docs/RESILIENCE.md. The full suite
# runs under UndefinedBehaviorSanitizer (injected failures walk error paths
# that rarely run otherwise, and no fault is configured unless a test asks
# for one). Then the fault-injection tests re-run under a sweep of seeds
# (TFMAE_FAULT_SWEEP_SEED), which drive randomized injected I/O failures,
# NaN losses, and interrupts; training and recovery must survive every
# seed.
#
# bench: the two benchmarks. First `benchmark/run.py --smoke`, a short run
# of every end-to-end workload that fails on any of the benchmark's
# correctness gates (benchmark/README.md; it builds build-bench/ itself).
# Then bench_micro, the google-benchmark suite behind the paper's
# complexity analysis (Section IV-E), from this mode's Release build. No
# timing is gated here: performance claims come from paired end-to-end runs
# of benchmark/run.py.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-plain}"
shift || true

case "$MODE" in
  plain) CMAKE_FLAGS=("-DCMAKE_CXX_FLAGS=-Werror") ;;
  bench) CMAKE_FLAGS=() ;;
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
    echo "== int8 checkpoint round trip: save after calibration, serve from it =="
    ckpt_dir="$(mktemp -d)"
    "$BUILD_DIR/tools/tfmae_serve" --streams=1 --rows=0 --quant=int8 \
      --save_checkpoint="$ckpt_dir/int8.ckpt"
    out="$("$BUILD_DIR/tools/tfmae_serve" --checkpoint="$ckpt_dir/int8.ckpt" \
      --quant=int8 --streams=64 --seconds=5 --verify)"
    rm -rf "$ckpt_dir"
    echo "$out"
    if ! grep -q "precision   int8" <<<"$out" ||
       ! grep -q "PASS (bitwise)" <<<"$out"; then
      echo "int8 checkpoint round trip: want int8 lanes and PASS (bitwise)" >&2
      exit 1
    fi
    echo "== chaos soak: kill -9 mid-run, restore, union-of-logs bitwise =="
    python3 scripts/chaos_soak.py --serve-bin "$BUILD_DIR/tools/tfmae_serve"
    echo "== live smoke: 256 streams, mid-load scrapes, /healthz 503 on drain =="
    TFMAE_OBS=1 python3 scripts/live_smoke.py \
      --serve-bin "$BUILD_DIR/tools/tfmae_serve"
    ;;
  thread)
    # The second pass runs even when the first fails, so one failing test
    # cannot hide the recording-on paths from TSan; either failure fails
    # the mode.
    status=0
    echo "== full suite: TSan =="
    suite "$@" || status=$?
    echo "== full suite: TSan, TFMAE_OBS=1 =="
    TFMAE_OBS=1 suite "$@" || status=$?
    exit "$status"
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
    echo "== end-to-end benchmark smoke: every correctness gate =="
    python3 benchmark/run.py --smoke
    echo "== complexity suite (Section IV-E): bench_micro =="
    "$BUILD_DIR/bench/bench_micro"
    ;;
esac
