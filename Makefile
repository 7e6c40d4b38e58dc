# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-json bench bench-json bench-large bench-online-large bench-throughput bench-smoke perf-diff tables micro examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static determinism/data-race lint (compiler-libs; rules R1-R5, see
# DESIGN.md "Static analysis").  Part of the pre-PR checklist and of
# every `dune runtest` via the @lint alias; exits nonzero on findings.
lint:
	dune exec tools/lint/ss_lint.exe -- lib bin bench

# Machine-readable lint report; regenerates the committed LINT.json
# baseline (always a clean report — findings fail `make lint` first).
lint-json:
	dune exec tools/lint/ss_lint.exe -- --json lib bin bench > LINT.json

test-output:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe

bench-output:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Machine-readable perf snapshot (per-benchmark ns/run + solver round and
# resume counters + the online scratch-vs-session section + the
# decomposition speedup section); regenerates BENCH_3.json for the perf
# trajectory.
bench-json:
	dune exec bench/main.exe -- micro --json BENCH_3.json

# Large-n scaling rows (dense round networks vs the sweep oracle on heavy
# n=500/1000/2000, m=8 instances); regenerates BENCH_4.json.
bench-large:
	dune exec bench/main.exe -- large --json BENCH_4.json

# Large-trace online simulation (streaming calendar/arena event loop vs
# the legacy per-interval rescan on stream workloads at n=1e4/1e5/1e6);
# regenerates BENCH_5.json.
bench-online-large:
	dune exec bench/main.exe -- online-large --json BENCH_5.json

# Batch-dispatch throughput (work-stealing crew + canonical memo cache
# vs sequential per-query scratch solves on a 600-query clustered batch
# with 75% canonical duplicates); regenerates BENCH_6.json.
bench-throughput:
	dune exec bench/main.exe -- throughput --json BENCH_6.json

# Tiny-quota run of the same pipeline (also wired into `dune runtest`).
bench-smoke:
	dune build @bench-smoke

# Compare two bench snapshots without jq; exits 1 on a >25% regression.
#   make perf-diff OLD=BENCH_2.json NEW=BENCH_3.json
OLD ?= BENCH_2.json
NEW ?= BENCH_3.json
perf-diff:
	dune exec tools/perf_diff.exe -- $(OLD) $(NEW)

tables:
	dune exec bench/main.exe -- tables

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/paper_walkthrough.exe
	dune exec examples/server_farm.exe
	dune exec examples/video_decoding.exe
	dune exec examples/online_comparison.exe
	dune exec examples/discrete_dvfs.exe
	dune exec examples/capacity_planning.exe

clean:
	dune clean
