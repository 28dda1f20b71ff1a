#!/usr/bin/env python3
"""Check that the tests can fail: every mutant in MUTANTS must be killed.

    python3 mutants/run.py

Run from the root of a checkout (`make mutants` does).  Copies the
checkout's files, as they are in the working tree, to a fresh
temporary directory, builds the test runner there, and checks that
each mutant's checks pass on the unmutated code.  Then, for each
mutant, it replaces one exact piece of text in one file, rebuilds,
runs only the mutant's checks, and restores the file.  The mutant is
killed when every one of its checks fails and survives when any of
them passes.

A check is one of two kinds:
- an alcotest case, which fails when it fails or runs past the
  timeout;
- a dune diff rule of test/dune: the target the rule builds and the
  golden file it diffs that target against.  It fails when the built
  target differs from the golden, as `dune runtest` would report.

Exit status: 0 when every mutant is killed; 1 naming each survivor;
2 when a mutant no longer applies (its text is not in its file exactly
once, or the mutated code does not build), one of its test cases is
not found, or the unmutated code fails one of its checks.
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
# (which must occur once), the replacement, and the checks that must
# all fail: "cases", alcotest cases, each a suite name and the case's
# full name; "diffs", dune diff rules, each the rule's target and its
# golden file, both relative to the checkout.
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
            ("chaos.recover", "fault-free recovering acks reach the root"),
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
        # a one-hop copy (a flood's) delivered to the sender's own NCU
        # as it leaves
        "name": "flood-one-hop-copy-bit",
        "file": "lib/hardware/anr.ml",
        "old": "let hop link = [| code ~link ~copy:false; 0 |]",
        "new": "let hop link = [| code ~link ~copy:true; 0 |]",
        "cases": [("chaos", "verdict digests pinned")],
    },
    {
        # a walk's header copies to the injecting node's own NCU when
        # [copy_at] holds there: the injector check tests a fact that
        # is always true
        "name": "of-walk-copies-at-injector",
        "file": "lib/hardware/anr.ml",
        "old": "codes.(i) <- code ~link ~copy:(u <> first && copy_at u)",
        "new": "codes.(i) <- code ~link ~copy:(first >= 0 && copy_at u)",
        "cases": [("hardware.anr", "route builders equal the list reference")],
    },
    {
        # a reused network keeps the previous run's FIFO arrival clocks
        "name": "reuse-fifo-not-refilled",
        "file": "lib/hardware/network.ml",
        "old": "      Array.fill s.s_fifo 0 (Array.length s.s_fifo) neg_infinity;\n",
        "new": "",
        "cases": [("core.reuse", "broadcast after a fault-laden run")],
    },
    {
        # each flood copy's one-hop header built from a [self; peer]
        # walk: the same trace, more minor words per event
        "name": "flood-header-from-walk",
        "file": "lib/core/flooding.ml",
        "old": "        Network.send ~label:\"flood\" ctx ~route:(Hardware.Anr.hop i) m\n",
        "new": "        ignore i;\n"
               "        Network.send_walk ~label:\"flood\" ctx ~walk:[| self; peer |] m\n",
        "cases": [("compile", "flooding minor words per event")],
    },
    {
        # the BFS tree handed over as the (child, parent) pair list it
        # was once built from: the same tree, more minor words per node
        "name": "bfs-tree-through-pair-list",
        "file": "lib/graph/spanning.ml",
        "old": "      done\n  done;\n  Tree.of_parent_array ~root parent\n",
        "new": "      done\n  done;\n"
               "  Tree.of_parents ~root ~parents:(List.filter_map (fun v -> "
               "if parent.(v) >= 0 then Some (v, parent.(v)) else None) "
               "(List.init (Graph.n g) Fun.id))\n",
        "cases": [("compile", "set-up minor words per node")],
    },
    {
        # the Theorem 5 monitor's budget cut from 6n to n
        "name": "monitor-election-budget-n",
        "file": "lib/hardware/monitor.ml",
        "old": "    ok = election_syscalls <= 6 * n;\n",
        "new": "    ok = election_syscalls <= n;\n",
        "cases": [("hardware.monitor",
                   "6n election budget in fail mode, all families")],
    },
    {
        # a delivery's software work bounded by C instead of P
        "name": "latency-delivery-work-bounded-by-c",
        "file": "lib/query/latency.ml",
        "old": "          let work = Float.min t.p elapsed in\n",
        "new": "          let work = Float.min t.c elapsed in\n",
        "cases": [("bench_counters", "n=64 rows match the golden")],
    },
    {
        # a packet lost mid-link dropped without counting the loss
        "name": "in-flight-loss-not-counted",
        "file": "lib/hardware/network.ml",
        "old": "                Metrics.record_dropped_in_flight t.metrics;\n",
        "new": "",
        "cases": [
            ("chaos", "verdict digests pinned"),
            ("chaos.recover", "verdict counts equal a registry replay"),
        ],
    },
    {
        # a recovering broadcast's root gives up without counting it,
        # so the retry-budget oracle passes a run that gave up
        "name": "give-up-not-tallied",
        "file": "lib/core/broadcast.ml",
        "old": "              st.tally.give_ups <- st.tally.give_ups + 1\n",
        "new": "              ()\n",
        "cases": [("chaos.recover",
                   "a node that never recovers exhausts the retry budget")],
    },
    {
        # a broadcast retransmission sent but not counted
        "name": "retransmit-not-tallied",
        "file": "lib/core/broadcast.ml",
        "old": "              st.tally.retransmits <- st.tally.retransmits + 1;\n",
        "new": "",
        "cases": [
            ("chaos", "verdict digests pinned"),
            ("chaos.recover", "liveness scenarios green on healing schedules"),
        ],
    },
    {
        # two down-sets of one length compared as equal, so a changed
        # delta of the same size leaves the believed-edge bitset stale
        "name": "same-downs-length-only",
        "file": "lib/core/topology.ml",
        "old": "  i < 0 || (a.(i) = b.(i) && same_from a b (i - 1))",
        "new": "  i < 0 || same_from a b (i - 1)",
        "cases": [("core.topology", "view database equals the Hashtbl reference")],
    },
    {
        # a preseeded database gets the copied bits but its version
        # stands still, so tables derived from the empty view survive
        "name": "preseed-version-not-moved",
        "file": "lib/core/topology.ml",
        "old": "          db.version <- db.version + t.version\n",
        "new": "          ()\n",
        "cases": [
            ("core.topology", "view database equals the Hashtbl reference"),
            ("core.topology", "preseeding k databases equals attaching each"),
        ],
    },
    {
        # the BFS pass keeps the largest-id parent of the previous layer
        "name": "bfs-pass-parent-largest-id",
        "file": "lib/core/branching_paths.ml",
        "old": "      else if d = below && u < parent.(v) && up e then begin",
        "new": "      else if d = below && u > parent.(v) && up e then begin",
        "cases": [("compile", "compile_routes equals the labelling reference")],
    },
    {
        # E7's closed-form column printed as 2^k instead of 2^(k-1)
        "name": "experiments-e7-closed-form",
        "file": "lib/experiments/e7_s_of_t.ml",
        "old": "Tables.cell_int (1 lsl (k - 1));",
        "new": "Tables.cell_int (1 lsl k);",
        "diffs": [("test/experiments_all.out", "test/golden/experiments_all.txt")],
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


def build(work, target="test/test_futurenet.exe"):
    p = subprocess.run(["dune", "build", "--root", ".", "./" + target],
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


def diff_holds(work, target, golden):
    """Whether the diff rule's [target], built, equals its [golden].
    A target that does not build is a mutant that does not apply."""
    ok, out = build(work, target)
    if not ok:
        sys.stderr.write(out)
        fail(f"{target} does not build")
    with open(os.path.join(work, "_build", "default", target), "rb") as f:
        built = f.read()
    with open(os.path.join(work, golden), "rb") as f:
        return built == f.read()


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
            for suite, case in m.get("cases", []):
                index[suite, case] = case_index(work, suite, case)
                if not passes(work, suite, index[suite, case]):
                    fail(f"{m['name']}: {suite} {case!r} fails on the unmutated code")
            for target, golden in m.get("diffs", []):
                if not diff_holds(work, target, golden):
                    fail(f"{m['name']}: {target} differs from {golden} on the unmutated code")

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
                passed = [f"{suite} {case!r}" for suite, case in m.get("cases", [])
                          if passes(work, suite, index[suite, case])]
                passed += [f"diff {golden}" for target, golden in m.get("diffs", [])
                           if diff_holds(work, target, golden)]
            finally:
                with open(path, "w") as f:
                    f.write(original)
            if passed:
                survivors.append(m["name"])
                print(f"{m['name']}: SURVIVED {', '.join(passed)}", flush=True)
            else:
                checks = [f"{suite} {case!r}" for suite, case in m.get("cases", [])]
                checks += [f"diff {golden}" for _, golden in m.get("diffs", [])]
                print(f"{m['name']}: killed by {', '.join(checks)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if survivors:
        log(f"mutants: {len(survivors)} of {len(MUTANTS)} survived: {', '.join(survivors)}")
        sys.exit(1)
    print(f"mutants: all {len(MUTANTS)} killed")


if __name__ == "__main__":
    main()
