#!/usr/bin/env python3
"""Check that the tests can fail: every mutant in MUTANTS must be killed.

    python3 mutants/run.py

Run from the root of a checkout (`make mutants` does).  Copies the
checkout's files, as they are in the working tree, to a fresh
temporary directory, builds the test runner there, and checks that
each mutant's test cases pass on the unmutated code.  Then, for each
mutant, it replaces one exact piece of text in one file, rebuilds,
runs only the mutant's test cases, and restores the file.  The mutant
is killed when every one of its test cases fails (or runs past the
timeout) and survives when any of them passes.

Exit status: 0 when every mutant is killed; 1 naming each survivor;
2 when a mutant no longer applies (its text is not in its file exactly
once, or the mutated code does not build), one of its test cases is
not found, or the unmutated code fails one.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

TEST_EXE = os.path.join("_build", "default", "test", "test_futurenet.exe")
RUN_TIMEOUT_S = 600

# Each mutant: a name, the file it changes, the exact text it replaces
# (which must occur once), the replacement, and the alcotest test cases
# that must all fail: each a suite name and the case's full name.
MUTANTS = [
    {
        "name": "engine-tie-goes-to-lane",
        "file": "lib/sim/engine.ml",
        "old": "else if t.size > 0 && Float.Array.unsafe_get t.times 0 <= c.first then begin",
        "new": "else if t.size > 0 && Float.Array.unsafe_get t.times 0 < c.first then begin",
        "cases": [("sim.engine", "queue interleavings fire in stable time order")],
    },
    {
        "name": "engine-window-edge-inclusive",
        "file": "lib/sim/engine.ml",
        "old": "if time < c.now +. window && whole time then begin",
        "new": "if time <= c.now +. window && whole time then begin",
        "cases": [("sim.engine", "queue interleavings fire in stable time order")],
    },
    {
        "name": "engine-lane-slot-kept-on-pop",
        "file": "lib/sim/engine.ml",
        "old": "  Array.unsafe_set lane.ring h idle;\n",
        "new": "",
        "cases": [("sim.engine", "queue releases closures")],
    },
    {
        # a recovery ack delivered one hop below the broadcast root
        "name": "ack-route-one-hop-short",
        "file": "lib/core/broadcast.ml",
        "old": "    let len = ref 1 and u = ref v in\n",
        "new": "    let len = ref 0 and u = ref v in\n",
        "cases": [
            ("chaos", "verdict digests pinned"),
            ("compile", "ack route equals the tree walk up to the root"),
        ],
    },
    {
        # the root's table compiled over its view, whose local link
        # indices are not the network's, instead of over the network
        # graph with the view's links masked
        "name": "view-table-without-mask",
        "file": "lib/core/branching_paths.ml",
        "old": "compile_routes ~edge_up:(Array.get in_view) graph ~root",
        "new": "compile_routes view ~root",
        "cases": [
            ("core.election", "leader tree carries broadcast"),
            ("compile", "view routes equal the reference"),
        ],
    },
    {
        # a flood copy delivered to the sender's own NCU as it leaves
        "name": "flood-one-hop-copy-bit",
        "file": "lib/core/flooding.ml",
        "old": "route_of_codes [| i lsl 1; 0 |]",
        "new": "route_of_codes [| (i lsl 1) lor 1; 0 |]",
        "cases": [("chaos", "verdict digests pinned")],
    },
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"mutants: {msg}")
    sys.exit(2)


def copy_checkout(dest):
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True).stdout
    for path in out.decode().split("\0"):
        if path and os.path.isfile(path):
            target = os.path.join(dest, path)
            os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
            shutil.copy2(path, target)


def build(work):
    p = subprocess.run(["dune", "build", "--root", ".", "./test/test_futurenet.exe"],
                       cwd=work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return p.returncode == 0, p.stdout.decode(errors="replace")


def case_index(work, suite, case):
    """The index of [case] in [suite], from the runner's listing, which
    cuts long names short with '...'."""
    out = subprocess.run([TEST_EXE, "list"], cwd=work, stdout=subprocess.PIPE,
                         check=True).stdout.decode(errors="replace")
    found = []
    for line in out.splitlines():
        m = re.match(r"\s*(\S+)\s+(\d+)\s+(.*)$", line)
        if not m or m.group(1) != suite:
            continue
        name = m.group(3)
        if name.endswith("..."):
            if case.startswith(name[:-3]):
                found.append(m.group(2))
        elif name.rstrip(".") == case:
            found.append(m.group(2))
    if len(found) != 1:
        fail(f"test case {suite!r} {case!r} matched {len(found)} cases")
    return found[0]


def passes(work, suite, index):
    """Whether the one test case passes; a run past the timeout fails."""
    try:
        p = subprocess.run([TEST_EXE, "test", "^" + re.escape(suite) + "$", index],
                           cwd=work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return p.returncode == 0


def main():
    work = tempfile.mkdtemp(prefix="futurenet-mutants-")
    try:
        copy_checkout(work)
        ok, out = build(work)
        if not ok:
            sys.stderr.write(out)
            fail("the unmutated code does not build")
        index = {}
        for m in MUTANTS:
            for suite, case in m["cases"]:
                index[suite, case] = case_index(work, suite, case)
                if not passes(work, suite, index[suite, case]):
                    fail(f"{m['name']}: {suite} {case!r} fails on the unmutated code")

        survivors = []
        for m in MUTANTS:
            path = os.path.join(work, m["file"])
            with open(path) as f:
                original = f.read()
            if original.count(m["old"]) != 1:
                fail(f"{m['name']}: its text is not in {m['file']} exactly once")
            with open(path, "w") as f:
                f.write(original.replace(m["old"], m["new"]))
            try:
                ok, out = build(work)
                if not ok:
                    sys.stderr.write(out)
                    fail(f"{m['name']}: the mutated code does not build")
                passed = [(suite, case) for suite, case in m["cases"]
                          if passes(work, suite, index[suite, case])]
            finally:
                with open(path, "w") as f:
                    f.write(original)
            if passed:
                survivors.append(m["name"])
                cases = ", ".join(f"{suite} {case!r}" for suite, case in passed)
                print(f"{m['name']}: SURVIVED {cases}", flush=True)
            else:
                cases = ", ".join(f"{suite} {case!r}" for suite, case in m["cases"])
                print(f"{m['name']}: killed by {cases}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if survivors:
        log(f"mutants: {len(survivors)} of {len(MUTANTS)} survived: {', '.join(survivors)}")
        sys.exit(1)
    print(f"mutants: all {len(MUTANTS)} killed")


if __name__ == "__main__":
    main()
