#!/usr/bin/env python3
"""Numeric CLI options are parsed strictly: a bad value exits 2 before anything starts.

    cli_numbers.py <example_pdc_serve> <example_pdc_client> <example_pdc_campaign> <smoke.cmp>

Every serve case also asks for a Unix socket and a spool directory, and every
campaign case for an output directory, so a value that slipped through would
leave a socket file or a directory behind (or keep the daemon running until
the timeout). No case asks for a large valid worker count: that would start
the threads. The out-of-range count is 2^32, which an int conversion that
drops the high bits reads as 0, so even a lax parser starts no thread on it.
"""
import os
import subprocess
import sys
import tempfile

serve, client, campaign, smoke_cmp = sys.argv[1:5]

SERVE_CASES = [
    ["--tcp", "x"], ["--tcp", "80a"], ["--tcp", "-1"], ["--tcp", "65536"],
    ["-j", "0"], ["-j", "2x"], ["-j", "4294967296"],
    ["--cache-bytes", "-5"], ["--cache-bytes", "1e6"], ["--cache-bytes", "99999999999999999999"],
    ["--metrics-every", "abc"], ["--metrics-every", "-1"], ["--metrics-every", "nan"],
    ["--metrics-every", "inf"],
]
CLIENT_CASES = [["--tcp", "x"], ["--tcp", "80a"], ["--tcp", "70000"]]
CAMPAIGN_CASES = [
    ["-j", "0"], ["-j", "x"], ["-j", "4x"], ["-j", "4294967296"],
    ["--shard", "0/2x"], ["--shard", "1/2/7"], ["--shard", "/2"], ["--shard", "1/"],
    ["--shard", "a/2"], ["--shard", "2/2"],
]

failures = []


def expect_usage_error(cmd, leftovers):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        failures.append(f"{cmd}: still running after 10 s")
        return
    if r.returncode != 2:
        failures.append(f"{cmd}: exit {r.returncode}, want 2; stderr: {r.stderr.strip()}")
    for path in leftovers:
        if os.path.exists(path):
            failures.append(f"{cmd}: left {path} behind")


for args in SERVE_CASES:
    with tempfile.TemporaryDirectory() as tmp:
        sock, spool = os.path.join(tmp, "pdc.sock"), os.path.join(tmp, "spool")
        expect_usage_error([serve, "--unix", sock, "--spool", spool] + args, [sock, spool])
for args in CLIENT_CASES:
    expect_usage_error([client] + args + ["ping"], [])
for args in CAMPAIGN_CASES:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "campaign")
        expect_usage_error([campaign] + args + ["-o", out, smoke_cmp], [out])

for f in failures:
    print(f, file=sys.stderr)
if failures:
    sys.exit(1)
print(f"{len(SERVE_CASES) + len(CLIENT_CASES) + len(CAMPAIGN_CASES)} bad values rejected")
