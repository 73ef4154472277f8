#!/usr/bin/env python3
"""The resident daemon end to end, through its two command-line programs.

    serve_smoke.py <example_pdc_serve> <example_pdc_client> <scenario.scn>

One daemon on a Unix socket and a spool directory, at PDC_QUICK sizing, with a
--cache-bytes budget above 2^31 (an int conversion would wrap it negative and
turn the cache off):
  - the same scenario twice: the client sees a miss, then a byte-identical hit;
  - STATS reports the 3 GB budget, one hit, one miss and at least one trace set
    in the memos;
  - a scenario dropped into the spool is answered in spool/out/;
  - the METRICS answer, and the spool/out/metrics.prom snapshot that
    --metrics-every writes, are Prometheus text carrying the request counter
    and the miss-latency histogram;
  - SIGTERM drains the daemon, which exits 0 and writes its final stats.
"""
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

serve, client, scenario = sys.argv[1:4]
env = dict(os.environ, PDC_QUICK="1")


def wait_for(path, seconds):
    deadline = time.monotonic() + seconds
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            sys.exit(f"{path} did not appear within {seconds} s")
        time.sleep(0.05)


def run_client(sock, *args):
    r = subprocess.run([client, "--unix", sock, *args], env=env, capture_output=True,
                       timeout=120)
    if r.returncode != 0:
        sys.exit(f"pdc_client {' '.join(args)}: exit {r.returncode}: {r.stderr.decode()}")
    return r.stdout


def check(cond, what):
    if not cond:
        sys.exit(f"check failed: {what}")


NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE = re.compile(rf"{NAME}(\{{[^}}]*\}})? (\S+)")


def check_exposition(text, where):
    lines = [line for line in text.splitlines() if line]
    check(lines, f"{where}: empty exposition")
    for line in lines:
        if line.startswith("#"):
            check(re.match(rf"# (HELP|TYPE) {NAME} ", line), f"{where}: bad comment {line!r}")
            continue
        m = SAMPLE.fullmatch(line)
        check(m, f"{where}: bad sample {line!r}")
        try:
            float(m.group(2))
        except ValueError:
            check(False, f"{where}: bad value {line!r}")
    for family in ("pdc_serve_requests_total", "pdc_serve_latency_miss_seconds_bucket"):
        check(family in text, f"{where}: no {family}")


with tempfile.TemporaryDirectory() as tmp:
    sock = os.path.join(tmp, "pdc.sock")
    spool = os.path.join(tmp, "spool")
    final_stats = os.path.join(tmp, "final_stats.json")
    with open(os.path.join(tmp, "serve.log"), "w+") as log:
        daemon = subprocess.Popen(
            [serve, "--unix", sock, "--spool", spool, "--stats", final_stats,
             "--cache-bytes", "3000000000", "--metrics-every", "0.5"],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            wait_for(sock, 10)
            run_client(sock, "ping")
            first = run_client(sock, "--expect", "miss", "run", scenario)
            second = run_client(sock, "--expect", "hit", "run", scenario)
            check(first == second, "the cached answer is byte-identical to the first")
            stats = json.loads(run_client(sock, "stats"))
            check(stats["cache"]["budget_bytes"] == 3000000000,
                  f"the 3 GB budget: {stats['cache']}")
            check(stats["cache"]["hits"] == 1, f"one cache hit: {stats['cache']}")
            check(stats["cache"]["misses"] == 1, f"one cache miss: {stats['cache']}")
            check(stats["memos"]["trace_sets"] >= 1, f"a trace set in the memos: {stats['memos']}")
            check_exposition(run_client(sock, "metrics").decode(), "METRICS")

            with open(scenario) as src, open(os.path.join(spool, "job.scn.part"), "w") as dst:
                dst.write(src.read())
            os.rename(os.path.join(spool, "job.scn.part"), os.path.join(spool, "job.scn"))
            answer = os.path.join(spool, "out", "job.json")
            wait_for(answer, 60)
            with open(answer) as f:
                json.load(f)

            daemon.send_signal(signal.SIGTERM)
            rc = daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        log.seek(0)
        output = log.read()
    check(rc == 0, f"the daemon exits 0 after SIGTERM, got {rc}:\n{output}")
    check("pdc_serve stopped:" in output, f"the daemon prints its final summary:\n{output}")
    with open(final_stats) as f:
        stats = json.load(f)
    check(stats["spool_jobs"] == 1, f"one spool job: {stats}")
    check(stats["in_flight"] == 0, f"nothing in flight: {stats}")
    check(stats["errors"] == 0, f"no errors: {stats}")
    with open(os.path.join(spool, "out", "metrics.prom")) as f:
        check_exposition(f.read(), "metrics.prom")
print("serve round trip ok")
