.PHONY: all build test mutants perfbench-selftest bench-parallel bench-scale bench-million bench-obs chaos chaos-smoke chaos-liveness query-smoke experiments figures examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Every gate can fail: each mutant listed in mutants/run.py (one exact
# text replacement in one file, with the test case that must catch it)
# is planted in a scratch copy of the checkout, rebuilt and run against
# its test case.  Exits 1 naming any mutant that survives, 2 when a
# mutant no longer applies.  Not part of `dune runtest`.
mutants:
	python3 mutants/run.py

# The benchmark's own correctness gate (perfbench/, BENCHMARK.json):
# genuine workload results pass, falsified ones and drifting exact
# metrics are refused.  Builds into .bench_build, exits 1 on failure.
perfbench-selftest:
	python3 perfbench/run.py --selftest

# Scale smoke (DESIGN.md §12, §15): every scenario row of
# Experiments.Scaling — broadcasts, election on the random graph,
# 4-origin maintenance rounds, the self-healing broadcast — at n=16384
# and 65536, each compared with its line in
# test/golden/bench_counters.jsonl (exit 4 on any differing counter),
# with the O(n) memory gate armed (exit 7 when the heap high-water mark
# exceeds 64 MiB + 10000 bytes/node) and the streamed-trace export on
# (DESIGN.md §13: the full broadcast trace leaves the process through
# a 64 KiB sink buffer, so the memory gate also proves streaming is
# O(buffer)), then a 10^5 branching-paths sweep through the CLI to
# prove the whole pipeline — graph build, BFS, labelling, route
# compilation, broadcast — survives six figures with no stack
# overflow.
bench-scale:
	dune exec bench/main.exe -- bench --sizes 16384,65536 --mem-budget 10000 --stream
	dune exec bin/futurenet_cli.exe -- bench -s bpaths -n 100000 -r 2 --jobs 1

# The 10^6 smoke (DESIGN.md §15): branching-paths broadcast + election
# at n=2^20 on the random benchmark graph, memory gate armed (the
# golden has no line at this size: the counters are printed, not
# checked).  Election at this size carries ~7.1M syscalls and a
# multi-GiB working set — the budget is sized to its measured
# ~4.3 KiB/node plus GC headroom.
bench-million:
	dune exec bench/main.exe -- bench --sizes 1048576 \
	  --scenarios bpaths,election --mem-budget 8000

# Observability overhead gate (DESIGN.md §13): time each broadcast with
# traces off, with a disabled trace attached, and with a streaming
# file sink attached; exit 8 when a budget is blown (disabled must be
# ~1.0x, streaming within its declared budget).
bench-obs:
	dune exec bench/main.exe -- bench --sizes 64,256 --obs-overhead

# Multicore sweep check at the acceptance size: runs the n=1024
# replica sweeps at 1 and 4 domains and exits 5 if any sweep's
# per-replica metrics diverge between job counts (the determinism
# invariant of DESIGN.md §10).
bench-parallel:
	dune exec bench/main.exe -- bench --sizes 1024 --jobs 4

# Chaos soak smoke: 32 seeded fault schedules per scenario family at
# n=64 (224 total).  Any oracle failure shrinks to a minimal
# chaos-repro-*.json next to the build and exits 6; CI uploads those
# repros as artifacts.  Byte-deterministic for a fixed (seed, -k)
# whatever --jobs is.  The soak streams a progress heartbeat
# (DESIGN.md §13) so a hung CI run shows where it stopped.
chaos-smoke:
	dune exec bin/futurenet_cli.exe -- chaos -s all -n 64 -k 32 --seed 7 --jobs 2 \
	  --heartbeat chaos-heartbeat.jsonl --heartbeat-every 8

# Liveness soak smoke (DESIGN.md §16): healing schedules — every crash
# recovers, every cut link comes back before the horizon — with the
# recovery layer on, through the worker pool.  The liveness oracles
# demand each protocol terminate in the CORRECT state (all nodes
# reached, exactly one universally-believed leader, every origin
# finished) within the retry/epoch budget.  Any failure shrinks to a
# minimal chaos-repro-*.json and exits 10.
chaos-liveness:
	dune exec bin/futurenet_cli.exe -- chaos --liveness -s all -n 64 -k 32 --seed 7 --jobs 2 \
	  --heartbeat chaos-liveness-heartbeat.jsonl --heartbeat-every 8

# Full soak: more schedules, larger networks, all families.
chaos:
	dune exec bin/futurenet_cli.exe -- chaos -s all -n 64 -k 64 --seed 7 --jobs 4
	dune exec bin/futurenet_cli.exe -- chaos -s all -n 128 -k 32 --seed 11 --jobs 4

# Trace analytics smoke (DESIGN.md §14): stream one n=4096 broadcast
# to JSONL, analyse it with `futurenet query` (kind and per-link
# grouping, C/P latency percentiles), then re-stream the same seeded
# scenario and prove `futurenet diff` calls the two runs identical.
# The text reports land next to the build; CI uploads them as
# artifacts.  --monitors warn: a streaming trace keeps no ring, so the
# ring-replaying monitors are skipped (exit 3 under fail, by design).
query-smoke:
	mkdir -p _artifacts
	dune exec bin/futurenet_cli.exe -- trace -t random -n 4096 --monitors warn --stream _artifacts/query-smoke-4096.jsonl
	dune exec bin/futurenet_cli.exe -- query _artifacts/query-smoke-4096.jsonl --group-by kind > _artifacts/query-smoke-report.txt
	dune exec bin/futurenet_cli.exe -- query _artifacts/query-smoke-4096.jsonl --kind hop --group-by link >> _artifacts/query-smoke-report.txt
	dune exec bin/futurenet_cli.exe -- trace -t random -n 4096 --monitors warn --stream _artifacts/query-smoke-4096-again.jsonl
	dune exec bin/futurenet_cli.exe -- diff _artifacts/query-smoke-4096.jsonl _artifacts/query-smoke-4096-again.jsonl > _artifacts/query-diff-report.txt
	cat _artifacts/query-smoke-report.txt _artifacts/query-diff-report.txt

experiments:
	dune exec bin/futurenet_cli.exe -- experiment all

figures:
	dune exec bin/futurenet_cli.exe -- figures

examples:
	dune exec examples/quickstart.exe
	dune exec examples/topology_demo.exe
	dune exec examples/election_demo.exe
	dune exec examples/global_function_demo.exe

clean:
	dune clean
