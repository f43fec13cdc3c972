#!/usr/bin/env python3
"""Run the POPS sweep benchmark.

    python3 perfbench/run.py --workload iscas-shield --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Builds libpops and the benchmark program (pops_perfbench) from the sources
of the checkout this file sits in, then runs one workload.
The last line of standard output is the run's JSON result; everything the
build prints goes to standard error. Exit status 0 iff the run's output
checks passed.

--self-test runs every workload of BENCHMARK.json on a c17-sized grid and
checks that each end-to-end and per-layer metric named there is emitted,
and that a corrupted record is caught by the output checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "pops"))):
        raise RuntimeError(f"no POPS source tree next to {HERE}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "pops_perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def run_benchmark(out, args):
    """Run pops_perfbench; returns (exit code, stdout)."""
    cmd = [os.path.join(out, "pops_perfbench"),
           "--state-dir", os.path.join(out, "state")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pops_perfbench timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, stdout = run_benchmark(out, ["--workload", w, "--seed",
                                               "7", "--seconds", "1",
                                               "--trace", str(trace),
                                               "--short"])
            res = last_json(stdout)
            if code != 0 or not res or not res["correct"]:
                problems.append(f"{w} trace {trace}: run failed (exit {code})")
                continue
            got = set(res["metrics"])
            if got != want[trace]:
                problems.append(f"{w} trace {trace}: missing "
                                f"{sorted(want[trace] - got)}, extra "
                                f"{sorted(got - want[trace])}")
            log(f"self-test {w} trace {trace}: {len(got)} metrics ok")
        code, stdout = run_benchmark(out, ["--workload", w, "--seed", "7",
                                           "--seconds", "1", "--trace", "0",
                                           "--short", "--corrupt"])
        res = last_json(stdout)
        if code == 0 or not res or res["correct"]:
            problems.append(f"{w}: a corrupted record was not caught")
        else:
            log(f"self-test {w}: corrupted record caught")
    for p in problems:
        log(f"SELF-TEST FAILED: {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    try:
        out = build()
        if a.self_test:
            return self_test(out)
        code, stdout = run_benchmark(out, ["--workload", a.workload,
                                           "--seed", str(a.seed),
                                           "--seconds", str(a.seconds),
                                           "--trace", str(a.trace)])
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
