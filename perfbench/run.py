#!/usr/bin/env python3
"""End-to-end benchmark of the cyclone dycore and forecast service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dycore_c48 --seed 1 --seconds 10 --trace 0

The first run in a checkout builds the benchmark and the cyclone libraries
it drives from this checkout's sources into .bench_build/, then prepares
every workload once: a cold compile into the workload's own JIT cache
directory and, for the dycore workloads, reference checksums from the
reference interpreter. Later runs reuse both until the binary changes.

The last line of standard output is the result as one JSON object. With
--trace 0 it holds every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric (from a traced run that also writes a Chrome trace
under .bench_build/out/).

    python3 perfbench/run.py --selftest

runs each workload for a second, once cleanly and once with one output bit
flipped (which must come back as a failed operation), plus one traced run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build"
BUILD = STATE / "cmake"
BINARY = BUILD / "cyclone_perfbench"
STAMP = STATE / "prepared.json"
WORKLOADS = ("dycore_c48", "dycore_c24r24", "forecast_mix")
BUILD_TIMEOUT = 780
PREPARE_TIMEOUT = 780
RUN_TIMEOUT = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def start(cmd):
    # A session of its own, so a timeout can stop the whole process group.
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)


def finish(proc, timeout, what):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(out[-6000:])
        fail(f"{what} failed (exit {proc.returncode})")
    return out


def llc():
    """Last-level cache size in bytes and lscpu's description of it."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        raw = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return 0, "unknown"
    for level in ("L3", "L2"):
        human = re.search(rf"^{level} cache:\s*(.+)$", text, re.M)
        size = re.search(rf"^{level} cache:\s*(\d+)", raw, re.M)
        if human and size:
            return int(size.group(1)), human.group(1).strip()
    return 0, "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    if not (ROOT / "src" / "core" / "CMakeLists.txt").exists():
        fail(f"cyclone sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        finish(start(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]), BUILD_TIMEOUT, "cmake configure")
    jobs = str(max(1, os.cpu_count() or 1))
    finish(start(["cmake", "--build", str(BUILD), "-j", jobs]), BUILD_TIMEOUT, "build")


def prepare(threads):
    """Cold-compile each workload's JIT cache and record its references, once per binary."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    if STAMP.exists() and json.loads(STAMP.read_text()).get("binary_sha256") == digest:
        return
    for sub in ("prep", "out"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    procs = []
    for workload in WORKLOADS:
        shutil.rmtree(STATE / "jit" / workload, ignore_errors=True)
        procs.append((workload, start([str(BINARY), "--prepare", "--workload", workload,
                                       "--state-dir", str(STATE), "--threads", threads])))
    # The three single-threaded host-compiler runs go side by side (nproc = 4);
    # when one fails, the others are stopped before exiting.
    try:
        for workload, proc in procs:
            print(finish(proc, PREPARE_TIMEOUT, f"prepare {workload}").strip(), file=sys.stderr)
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    STAMP.write_text(json.dumps({"binary_sha256": digest, "workloads": list(WORKLOADS)}) + "\n")


def default_threads():
    return str(min(3, max(1, (os.cpu_count() or 1) - 1)))


def run_workload(workload, seed, seconds, trace, threads, extra=()):
    llc_bytes, llc_text = llc()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--threads", threads, "--state-dir", str(STATE),
           "--llc-bytes", str(llc_bytes), "--llc-text", llc_text, "--git-sha", git_sha(), *extra]
    out = finish(start(cmd), RUN_TIMEOUT, f"workload {workload}")
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measured(workload, seed, seconds, trace, threads, extra=()):
    body, result = run_workload(workload, seed, seconds, trace, threads, extra)
    missing = set(expected_metrics(trace)) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(body) + "\n")
        fail(f"metric set differs from BENCHMARK.json: {sorted(missing)}")
    return body, result


def selftest(threads):
    problems = []
    for workload in WORKLOADS:
        _, clean = measured(workload, 1, 1, 0, threads)
        _, corrupt = measured(workload, 1, 1, 0, threads, ["--corrupt"])
        print(f"{workload}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"one flipped bit {corrupt['failed']}/{corrupt['attempted']} failed")
        if not clean["correct"] or clean["failed"] != 0:
            problems.append(f"{workload}: clean run reported failures")
        if corrupt["correct"] or corrupt["failed"] < 1:
            problems.append(f"{workload}: flipped output bit went undetected")
    body, traced = measured("dycore_c24r24", 1, 2, 1, threads)
    trace_path = next((line.split(" written to ")[-1] for line in body
                       if line.startswith("Chrome trace")), None)
    events = json.loads(Path(trace_path).read_text())["traceEvents"] if trace_path else []
    print(f"dycore_c24r24 traced: {len(traced['metrics'])} per-layer metrics, "
          f"{len(events)} trace events, {traced['failed']}/{traced['attempted']} failed")
    if not events or traced["failed"] != 0:
        problems.append("traced run: no loadable trace events or failed checks")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest ok" if not problems else "selftest failed")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", default=default_threads(),
                        help="OpenMP team size (default min(3, nproc - 1); never above nproc)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        prepare(args.threads)
        if args.selftest:
            return selftest(args.threads)
        body, result = measured(args.workload, args.seed, args.seconds, args.trace, args.threads)
    sys.stdout.write("\n".join(body) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
