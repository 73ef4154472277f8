#!/usr/bin/env python3
"""End-to-end prediction benchmark: builds e2ebench from source and runs one workload.

    python3 e2ebench/run.py --workload cold_predict|warm_whatif \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under e2ebench/, run artifacts to .bench_out/. Every PDC_*
variable is removed from the benchmark's environment so no knob changes what
is measured. With --trace 1 the workload's own phase also runs untraced
first, so the tracing overhead (traced minus untraced wall of that phase) can
be reported next to the per-layer metrics. The last stdout line is the result
JSON.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cold_predict", "warm_whatif")
# Wall budget of the runs after the build (one, or two with --trace 1).
RUN_BUDGET_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def source_digest():
    """sha256 over the library sources and build files the benchmark compiles."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(BENCH_DIR.glob("*.[ch]pp")) + [BENCH_DIR / "CMakeLists.txt"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "none"


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(nproc()), "--target", "e2ebench"],
                   check=True, stdout=sys.stderr)
    compiler = "unknown"
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            ver = subprocess.run([exe, "--version"], capture_output=True, text=True).stdout
            compiler = ver.splitlines()[0] if ver else exe
    return build_dir / "e2ebench", compiler


def run_once(binary, args, trace, env, deadline, main_only=False):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", ".bench_out",
           "--main-only", str(int(main_only))]
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {r.returncode}")
    report = lines[:-1]
    result = json.loads(lines[-1])
    main_wall = next(float(l.split()[1]) for l in report if l.startswith("main_phase_wall_s "))
    return report, result, main_wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no pdc sources (CMakeLists.txt and src/); run from a checkout root")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary, compiler = build()
    cleared = sorted(k for k in os.environ if k.startswith("PDC_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDC_")}
    print(f"provenance: nproc={nproc()} build_type=Release compiler={compiler!r} "
          f"git_commit={git_commit()} source_digest={source_digest()} "
          f"cleared_env={','.join(cleared) or 'none'}")

    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        _, _, untraced_wall = run_once(binary, args, 0, env, deadline, main_only=True)
        report, result, traced_wall = run_once(binary, args, 1, env, deadline)
        result["metrics"]["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        report.append(f"tracing overhead: main phase {traced_wall:.3f} s traced vs "
                      f"{untraced_wall:.3f} s untraced")
    else:
        report, result, _ = run_once(binary, args, 0, env, deadline)
    print("\n".join(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
