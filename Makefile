# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-json bench tables examples clean

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

tables:
	dune exec bench/main.exe -- tables

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
