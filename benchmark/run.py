#!/usr/bin/env python3
"""End-to-end benchmark runner (see benchmark/README.md).

    python3 benchmark/run.py                          # every workload
    python3 benchmark/run.py --workload fleet_fp32 --seed 3
    python3 benchmark/run.py --trace                  # untraced + traced pair
    python3 benchmark/run.py --smoke                  # ~2 s per workload
    python3 benchmark/run.py --repeat-check 5         # two sets of 5 seeds

Builds build-bench/ from source when tfmae_bench is missing or stale, runs
each workload in its own process, prints every metric with its unit, and
exits non-zero when a correctness gate fails. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "tfmae_bench"
WORKLOADS = ["fleet_fp32", "fleet_int8", "fleet_wide", "fit_msl"]
RUN_TIMEOUT_S = 170
# Per-layer metrics an untraced run measures too: throughput and fit time
# follow the host's speed too closely for a bound (README, "Bounds").
UNTRACED_PER_LAYER = ["serve.capacity_rows_per_s", "serve.cpu_us_per_row",
                      "core.fit_s", "core.detector_score_ms"]


def nproc():
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def sources():
    """Every file the tfmae_bench build reads."""
    yield from (ROOT / "src").rglob("*")
    yield ROOT / "bench" / "bench_common.h"
    for d in ("", "bench", "docs", "examples", "tests", "tools"):
        yield ROOT / d / "CMakeLists.txt"
    yield BENCH_DIR / "CMakeLists.txt"
    yield from BENCH_DIR.glob("*.cc")


def build():
    """Configures and builds tfmae_bench unless it is newer than every
    source."""
    if BINARY.exists():
        built = BINARY.stat().st_mtime
        if all(p.stat().st_mtime <= built for p in sources() if p.is_file()):
            return
    jobs = str(min(4, nproc()))
    start = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-B", str(BUILD_DIR), "-S", str(BENCH_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "tfmae_bench"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    BINARY.touch()  # up to date even when no input of tfmae_bench changed
    log(f"built {BINARY.relative_to(ROOT)} in "
        f"{time.monotonic() - start:.0f} s")


def thread_env():
    """TFMAE_NUM_THREADS = min(4, nproc) unless set; never above nproc."""
    cpus = nproc()
    env = dict(os.environ)
    threads = int(env.get("TFMAE_NUM_THREADS", min(4, cpus)))
    if threads > cpus:
        raise SystemExit(f"run.py: TFMAE_NUM_THREADS={threads} exceeds "
                         f"nproc={cpus}; refusing to run")
    env["TFMAE_NUM_THREADS"] = str(threads)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "none"


def run_workload(workload, seed, seconds, trace, repeats, env, rev, echo=True):
    """Runs one workload in its own process and returns its RESULT dict."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--repeats={repeats}", f"--git_rev={rev}"]
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace_out={trace_dir / f'{workload}-seed{seed}.json'}")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if proc.returncode != 0 or result is None:
        sys.stdout.write(proc.stderr)
        raise SystemExit(f"run.py: {workload} exited {proc.returncode} "
                         "without a result")
    return result


def check(result, names):
    """Gate verdicts plus a schema check; returns the list of failures."""
    failures = [f"gate {g['name']}: {g['detail']}"
                for g in result["gates"] if not g["ok"]]
    for name in names:
        m = result["metrics"].get(name)
        if m is None or not isinstance(m.get("value"), (int, float)):
            failures.append(f"schema: metric {name} missing")
    if result["attempted"] < 1:
        failures.append("schema: nothing attempted")
    return failures


def print_metrics(workload, result, metric_specs):
    print(f"== {workload} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'})")
    samples = result["samples"]
    print("   samples: " + ", ".join(f"{k}={v}" for k, v in
                                       sorted(samples.items())
                                       if k != "low_crc"))
    print(f"   low-phase score crc {samples['low_crc']:08x}")
    for spec in metric_specs:
        m = result["metrics"][spec["name"]]
        print(f"   {spec['name']:<28} {m['value']:>16.6g} {m['unit']}")
    if not result["trace"]:
        print("   also measured, per-layer (no bound):")
        for name in UNTRACED_PER_LAYER:
            m = result["metrics"][name]
            print(f"   {name:<28} {m['value']:>16.6g} {m['unit']}")


def select(result, metric_specs, prefix=""):
    return {prefix + s["name"]: result["metrics"][s["name"]]
            for s in metric_specs}


def quartile_spread(values):
    """IQR as a share of the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def derived_bound(name, unit, spread):
    """The bound the measured spread supports: max(floor, 3 x the relative
    IQR), so the spread stays below a third of the bound, the floor being 5%
    for a latency, 1% for f1_pa and 3% for the rest, rounded up to the next
    0.005. BENCHMARK.json takes this for the widest spread of any workload
    and set, at most 0.10; a metric whose derived bound is above 0.10 is a
    per-layer metric. setup_s is the exception: its bound is 0.25."""
    floor = 0.05 if unit == "ms" else 0.01 if name == "f1_pa" else 0.03
    return math.ceil(max(floor, 3 * spread) * 200 - 1e-9) / 200


def repeat_check(args, spec, env, rev):
    """Two sets of N runs, every run on its own seed, interleaved A, B, A, ...

    Set A takes seeds S..S+N-1 and set B the next N. Prints each set's
    median and IQR (as a share of the median), how much worse B's median is
    than A's, the IQR over all 2N runs, the bound the widest of the three
    IQRs supports, and the verdict against the bound in BENCHMARK.json.
    """
    n = args.repeat_check
    workloads = [args.workload] if args.workload else WORKLOADS
    per_layer = [s for s in spec["per_layer"]
                 if s["name"] in UNTRACED_PER_LAYER]
    raw = {}
    ok = True
    for workload in workloads:
        sets = {"a": [], "b": []}
        for i in range(n):
            for k, name in enumerate(("a", "b")):
                seed = args.seed + k * n + i
                r = run_workload(workload, seed, args.seconds, False,
                               args.repeats, env, rev, echo=False)
                failures = check(r, [s["name"] for s in spec["end_to_end"]])
                if failures:
                    ok = False
                    print(f"{workload} seed {seed}: " + "; ".join(failures))
                run = {s["name"]: r["metrics"][s["name"]]["value"]
                       for s in spec["end_to_end"] + per_layer}
                run["seed"] = seed
                sets[name].append(run)
        raw[workload] = sets
        print(f"== {workload}: {n} + {n} runs, seeds {args.seed}.."
              f"{args.seed + 2 * n - 1}")
        print(f"   {'metric':<22} {'median A':>12} {'iqr A':>7}"
              f" {'median B':>12} {'iqr B':>7} {'worse':>7} {'iqr all':>7}"
              f" {'derived':>7} {'bound':>6}  verdict")
        for s in spec["end_to_end"] + per_layer:
            a = [run[s["name"]] for run in sets["a"]]
            b = [run[s["name"]] for run in sets["b"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb, sall = (quartile_spread(a), quartile_spread(b),
                            quartile_spread(a + b))
            worse = worse_by(ma, mb, s["better"])
            spread = max(sa, sb, sall)
            derived = derived_bound(s["name"], s["unit"], spread)
            if "bound" not in s:
                print(f"   {s['name']:<22} {ma:>12.5g} {sa:>7.3f} {mb:>12.5g}"
                      f" {sb:>7.3f} {worse:>7.3f} {sall:>7.3f} {derived:>7.3f}"
                      f" {'-':>6}  per-layer")
                continue
            spread_ok = s["name"] == "setup_s" or spread <= s["bound"]
            agree = worse <= s["bound"]
            ok = ok and agree and spread_ok
            verdict = "agree" if agree and spread_ok else "DISAGREE"
            if (agree and spread_ok and s["name"] != "setup_s"
                    and spread > s["bound"] / 3):
                verdict += " (spread above bound/3)"
            print(f"   {s['name']:<22} {ma:>12.5g} {sa:>7.3f} {mb:>12.5g}"
                  f" {sb:>7.3f} {worse:>7.3f} {sall:>7.3f} {derived:>7.3f}"
                  f" {s['bound']:>6.3f}  {verdict}")
    out = BUILD_DIR / "repeat_check.json"
    with open(out, "w") as f:
        json.dump({"date": time.strftime("%Y-%m-%d"), "git": rev,
                   "nproc": nproc(), "cpu": cpu_model(),
                   "threads": env["TFMAE_NUM_THREADS"],
                   "seconds": args.seconds, "runs": raw}, f, indent=1)
    print(f"raw runs written to {out.relative_to(ROOT)}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="pair", default="0",
                        choices=["0", "1", "pair"],
                        help="1: traced run only; bare --trace: untraced and "
                             "traced runs, checking the traced run reproduces "
                             "the low-phase score crc")
    parser.add_argument("--smoke", action="store_true",
                        help="~2 s per workload, every gate, schema check")
    parser.add_argument("--repeat-check", type=int, metavar="N",
                        help="two sets of N runs; medians, IQRs, agreement")
    args = parser.parse_args()
    args.repeats = 2 if args.smoke else 0  # 0: the workload's own count

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the repository sources (CMakeLists.txt, src/) are not "
            f"next to {BENCH_DIR.name}/; nothing to build")
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 2 if args.smoke else spec["run_seconds"]
    env = thread_env()
    build()
    rev = git_rev()

    if args.repeat_check:
        return 0 if repeat_check(args, spec, env, rev) else 1

    workloads = [args.workload] if args.workload else WORKLOADS
    modes = {"0": [False], "1": [True], "pair": [False, True]}[args.trace]
    if args.smoke:
        modes = [False, True]
    traced = modes[-1]
    metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
    failures = []
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        results = {}
        for trace in modes:
            r = run_workload(workload, args.seed, args.seconds, trace,
                           args.repeats, env, rev)
            names = [s["name"] for s in
                     (spec["per_layer"] if trace else spec["end_to_end"])]
            failures += [f"{workload}: {f}" for f in check(r, names)]
            results[trace] = r
        if len(results) == 2:
            plain, traced_run = results[False], results[True]
            crc = plain["samples"]["low_crc"]
            traced_crc = traced_run["samples"]["low_crc"]
            if crc != traced_crc:
                failures.append(f"{workload}: traced low-phase crc "
                                f"{traced_crc:08x} != untraced {crc:08x}")
            in_run = traced_run["metrics"]["trace_overhead_frac"]["value"]
            latency = "p50_ms_high"
            between = (traced_run["metrics"][latency]["value"]
                       / plain["metrics"][latency]["value"] - 1)
            print(f"   trace overhead: saturation rate {in_run:.3f} (in-run), "
                  f"{latency} {between:+.3f} (traced vs untraced run)")
        for trace, r in results.items():
            print_metrics(workload, r,
                          spec["per_layer"] if trace else spec["end_to_end"])
        r = results[traced]
        attempted += r["attempted"]
        failed += r["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        metrics.update(select(r, metric_specs, prefix))
    for f in failures:
        print("FAIL " + f)
    if args.smoke:
        print("smoke: " + ("OK" if not failures else "FAILED"))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
