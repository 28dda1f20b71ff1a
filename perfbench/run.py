#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
into .bench_build (release profile, no shared cache), runs one workload
in one process and prints its result object as the last line of
stdout; everything else goes to stderr.

The exact metrics of a run (simulated costs and per-layer counts) are
kept in .bench_build/perfbench-exact, keyed by the binary's hash, the
workload, the seed and the trace flag.  A later run of the same binary
with the same seed must repeat them exactly (the GC minor words to a
relative 1e-5), or the benchmark refuses to report and exits with 3.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
EXACT_DIR = os.path.join(BUILD_DIR, "perfbench-exact")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
GC_WORDS_TOLERANCE = 1e-5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(1)
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        log("perfbench: build failed")
        sys.exit(1)


def run_exe(args):
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=os.path.abspath(BUILD_DIR))
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE, env=env,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    return p.returncode, p.stdout.decode()


def drifted(old, new):
    """Names of exact metrics that differ between two runs."""
    out = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            out.append(name)
        elif name == "gc.minor_words_per_op":
            if abs(a - b) > GC_WORDS_TOLERANCE * max(abs(a), abs(b), 1.0):
                out.append(name)
        elif a != b:
            out.append(name)
    return out


def check_exact(path, key):
    """Compare this run's exact metrics with the stored ones for [key]."""
    with open(path) as f:
        new = json.load(f)
    stored = os.path.join(EXACT_DIR, key + ".json")
    if os.path.isfile(stored):
        with open(stored) as f:
            old = json.load(f)
        bad = drifted(old, new)
        if bad:
            for name in bad:
                log(f"perfbench: {name} moved from {old.get(name)} to {new.get(name)}")
            log("perfbench: exact metrics drifted across runs of one binary and seed; refusing to report")
            sys.exit(3)
    else:
        os.replace(path, stored)


def selftest():
    code, _ = run_exe(["--selftest"])
    ok = code == 0
    old = {"sim_syscalls_per_op": 16384.0, "gc.minor_words_per_op": 1564859.0}
    cases = [
        ("identical exact metrics pass", dict(old), []),
        ("one more syscall is caught", dict(old, sim_syscalls_per_op=16385.0), ["sim_syscalls_per_op"]),
        ("gc words within 1e-5 pass", dict(old, **{"gc.minor_words_per_op": 1564861.0}), []),
        ("gc words beyond 1e-5 are caught", dict(old, **{"gc.minor_words_per_op": 1565000.0}),
         ["gc.minor_words_per_op"]),
        ("a missing metric is caught", {"sim_syscalls_per_op": 16384.0}, ["gc.minor_words_per_op"]),
    ]
    for name, new, expected in cases:
        good = drifted(old, new) == expected
        log(("ok  : " if good else "FAIL: ") + name)
        ok = ok and good
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description="Build and run the benchmark.")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.selftest and (a.seed < 0 or a.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if a.selftest:
        selftest()

    os.makedirs(EXACT_DIR, exist_ok=True)
    with open(EXE, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{binary}-{a.workload}-{a.seed}-{a.trace}"
    fresh = os.path.join(EXACT_DIR, key + f".{os.getpid()}.tmp")
    code, out = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace),
                         "--exact-file", fresh])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(code or 1)
    json.loads(lines[-1])
    check_exact(fresh, key)
    if os.path.exists(fresh):
        os.remove(fresh)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
