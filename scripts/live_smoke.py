#!/usr/bin/env python3
"""Live-observability smoke for the serving plane (docs/OBSERVABILITY.md,
"Live endpoints & SLOs").

Drives a multi-stream `tfmae_serve` with `--metrics_port=0` (ephemeral
port, printed on stdout) and validates what an external operator actually
sees:

 1. /healthz answers 200 ("ok" or "degraded") while the server is live.
 2. /statusz is valid JSON carrying the ServeStats payload.
 3. /metrics, scraped back to back through most of the load window, is
    well-formed Prometheus text exposition in every scrape:
    `tfmae_`-prefixed names, HELP/TYPE per family, no `# TYPE` line twice,
    cumulative monotone `_bucket{le=...}` series whose `+Inf` bucket
    equals `_count`.
 4. Every scrape's stage-attributed timelines reconcile: the four
    per-stage histograms count the same windows as the total and as
    `tfmae_serve_score_window_ns`, their sums add up to the total exactly,
    and the batch+score stages account for the scoring latency within a
    10% tolerance. Its `tfmae_serve_windows_scored_total` is at most the
    `windows_scored` of the /statusz read right after it.
 5. On SIGTERM the server drains, /healthz flips to 503 while the
    endpoint lingers (`--drain_linger_ms`), and the process exits 0.

The scrape side is a plain HTTP client (urllib) so the smoke exercises the
listener's real wire framing, not a test double.

Usage:
  TFMAE_OBS=1 scripts/live_smoke.py --serve-bin build/tools/tfmae_serve
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

PORT_RE = re.compile(r"^metrics endpoint on port (\d+)$", re.M)
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
BUCKET_RE = re.compile(r'\{le="([^"]+)"\}')


def fetch(port, path, timeout=5.0):
    """-> (status, body) for GET http://127.0.0.1:port/path."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:  # non-2xx still has a body
        return err.code, err.read().decode("utf-8")


def parse_exposition(text):
    """Validates format line by line -> {family: {(labels or ''): float}}."""
    samples = {}
    helped, typed = set(), set()
    for line in text.splitlines():
        if not line:
            raise SystemExit("live_smoke: blank line in exposition")
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            family = line.split()[2]
            if family in typed:
                raise SystemExit(f"live_smoke: # TYPE {family} appears twice")
            typed.add(family)
            continue
        if line.startswith("#"):
            raise SystemExit(f"live_smoke: unknown comment line: {line!r}")
        m = SAMPLE_RE.match(line)
        if m is None:
            raise SystemExit(f"live_smoke: malformed sample line: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        if not name.startswith("tfmae_"):
            raise SystemExit(f"live_smoke: unprefixed metric: {name}")
        samples.setdefault(name, {})[labels] = float(value)
    for name in samples:
        family = re.sub(r"_(bucket|sum|count|total)$", "", name)
        if not (name in helped or family in helped or
                name + "_total" in helped):
            raise SystemExit(f"live_smoke: {name} has no # HELP header")
    return samples


def histogram(samples, family):
    """-> (sum, count, [(le, cumulative)...]) for one histogram family."""
    total = samples.get(f"{family}_sum", {}).get("", None)
    count = samples.get(f"{family}_count", {}).get("", None)
    if total is None or count is None:
        raise SystemExit(f"live_smoke: histogram {family} missing _sum/_count")
    buckets = []
    for labels, value in samples.get(f"{family}_bucket", {}).items():
        m = BUCKET_RE.match(labels)
        if m is None:
            raise SystemExit(f"live_smoke: bad bucket labels {labels!r}")
        le = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
        buckets.append((le, value))
    buckets.sort(key=lambda b: b[0])
    if not buckets or buckets[-1][0] != float("inf"):
        raise SystemExit(f"live_smoke: {family} lacks a +Inf bucket")
    if buckets[-1][1] != count:
        raise SystemExit(f"live_smoke: {family} +Inf bucket "
                         f"{buckets[-1][1]} != _count {count}")
    for (_, a), (_, b) in zip(buckets, buckets[1:]):
        if b < a:
            raise SystemExit(f"live_smoke: {family} buckets not cumulative")
    return total, count, buckets


def check_stage_reconciliation(samples):
    stages = ["queue", "batch", "score", "result"]
    sums = {}
    counts = {}
    for stage in stages:
        family = f"tfmae_serve_stage_{stage}_ns"
        sums[stage], counts[stage], _ = histogram(samples, family)
    total_sum, total_count, _ = histogram(samples, "tfmae_serve_stage_total_ns")
    for stage in stages:
        if counts[stage] != total_count:
            raise SystemExit(
                f"live_smoke: stage {stage} count {counts[stage]} != total "
                f"count {total_count} — stages must be recorded per window")
    stage_sum = sum(sums.values())
    # Totals are defined as the sum of the four stages, so the histogram
    # _sums agree exactly — no tolerance needed.
    if stage_sum != total_sum:
        raise SystemExit(
            f"live_smoke: stage sums {stage_sum} != total {total_sum}")
    # The scoring-latency histogram covers the pop->scored interval, i.e.
    # the batch-form + score stages; amortized integer division makes this
    # approximate per window, so reconcile within 10%.
    window_sum, window_count, _ = histogram(samples,
                                            "tfmae_serve_score_window_ns")
    if window_count != total_count:
        raise SystemExit(
            f"live_smoke: window_ns count {window_count} != stage count "
            f"{total_count}")
    covered = sums["batch"] + sums["score"]
    if window_sum > 0 and abs(covered - window_sum) > 0.10 * window_sum:
        raise SystemExit(
            f"live_smoke: batch+score stages {covered} vs "
            f"tfmae_serve_score_window_ns {window_sum} — off by more than 10%")
    return total_count, stage_sum


def check_scrape(port):
    """Scrapes /metrics, then /statusz, and checks the pair -> (windows,
    stage ns) of the /metrics scrape."""
    status, body = fetch(port, "/metrics")
    if status != 200:
        raise SystemExit(f"live_smoke: /metrics = {status}")
    samples = parse_exposition(body)
    windows, stage_sum = check_stage_reconciliation(samples)
    scored = samples.get("tfmae_serve_windows_scored_total", {}).get("")
    if scored is None:
        raise SystemExit(
            "live_smoke: /metrics lacks tfmae_serve_windows_scored_total")
    status, body = fetch(port, "/statusz")
    if status != 200:
        raise SystemExit(f"live_smoke: /statusz = {status}")
    statusz_scored = json.loads(body)["windows_scored"]
    if scored > statusz_scored:
        raise SystemExit(
            f"live_smoke: /metrics windows_scored {scored} > the later "
            f"/statusz windows_scored {statusz_scored}")
    return windows, stage_sum


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--serve-bin", required=True)
    parser.add_argument("--streams", type=int, default=256)
    parser.add_argument("--seconds", type=int, default=20,
                        help="load duration before the SIGTERM drain")
    parser.add_argument("--drain-linger-ms", type=int, default=4000)
    opts = parser.parse_args()

    env = dict(os.environ, TFMAE_OBS="1")
    cmd = [
        opts.serve_bin,
        f"--streams={opts.streams}",
        "--rows=0",
        f"--seconds={opts.seconds}",
        "--verify",
        "--metrics_port=0",
        "--stats_every=50",
        "--slo_latency_ms=5000",
        "--drift_every=256",
        f"--drain_linger_ms={opts.drain_linger_ms}",
    ]
    print(f"live_smoke: {' '.join(cmd)}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)

    # Drain stdout on a thread so the server can never block on a full
    # pipe while the smoke is busy scraping or waiting out the drain.
    lines = []
    port_found = threading.Event()

    def pump():
        for line in proc.stdout:
            lines.append(line)
            if PORT_RE.search(line):
                port_found.set()

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        # The port line appears once the model is fitted and serving starts.
        if not port_found.wait(timeout=120.0):
            raise SystemExit("live_smoke: no 'metrics endpoint on port' line")
        port_time = time.monotonic()
        port = int(PORT_RE.search("".join(lines)).group(1))
        print(f"live_smoke: serving on port {port}")

        # Let load accumulate so the scrapes see real stage timelines.
        time.sleep(min(5.0, opts.seconds / 2.0))

        status, body = fetch(port, "/healthz")
        if status != 200 or body.strip() not in ("ok", "degraded"):
            raise SystemExit(
                f"live_smoke: live /healthz = {status} {body!r}")
        print(f"live_smoke: /healthz {status} {body.strip()!r}")

        status, body = fetch(port, "/statusz")
        if status != 200:
            raise SystemExit(f"live_smoke: /statusz = {status}")
        stats = json.loads(body)
        if stats.get("windows_scored", 0) <= 0:
            raise SystemExit("live_smoke: /statusz shows nothing scored yet")
        print(f"live_smoke: /statusz ok — {stats['windows_scored']} windows "
              f"scored, {stats['streams']} streams")

        # Back-to-back scrapes through most of the load window; every one
        # must reconcile.
        scrapes = 0
        scrape_end = port_time + 0.6 * opts.seconds
        while scrapes < 10 or time.monotonic() < scrape_end:
            windows, stage_sum = check_scrape(port)
            scrapes += 1
        print(f"live_smoke: /metrics ok — {scrapes} scrapes each reconcile; "
              f"the last over {int(windows)} windows "
              f"({int(stage_sum)} ns total)")

        status, _ = fetch(port, "/no_such_path")
        if status != 404:
            raise SystemExit(f"live_smoke: unknown path = {status}, want 404")

        # Drain: SIGTERM, then /healthz must flip to 503 while the process
        # lingers with the endpoint still up.
        proc.send_signal(signal.SIGTERM)
        flip_deadline = time.monotonic() + opts.seconds + 60.0
        flipped = False
        while time.monotonic() < flip_deadline:
            try:
                status, body = fetch(port, "/healthz", timeout=2.0)
            except (urllib.error.URLError, OSError):
                break  # linger expired before we caught the 503
            if status == 503:
                flipped = True
                print(f"live_smoke: drained /healthz 503 {body.strip()!r}")
                break
            time.sleep(0.1)
        if not flipped:
            raise SystemExit("live_smoke: /healthz never served 503 during "
                             "drain — raise --drain-linger-ms")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=opts.seconds + 120.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
        reader.join(timeout=10.0)
    if rc != 0:
        sys.stdout.write("".join(lines))
        raise SystemExit(f"live_smoke: tfmae_serve exited {rc}")
    if "stats {" not in "".join(lines):
        raise SystemExit("live_smoke: no --stats_every heartbeat lines")
    print("live_smoke: PASS — every scrape valid and reconciled, "
          "drain flips /healthz, verify green with the endpoint active")
    return 0


if __name__ == "__main__":
    sys.exit(main())
