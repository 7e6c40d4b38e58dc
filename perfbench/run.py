#!/usr/bin/env python3
"""Build and run the repository benchmark.

Measure one run (run from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (and writes a Chrome trace under perfbench/out/).

Steadiness mode runs every workload (or those named) once per seed and
reports, per end-to-end metric, the median, the quartiles and the spread
(quartile distance over the median) against the bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness 10 [--first-seed 1] [--workload NAME ...]

Record the reference digests of a base-instance set (only when the solver
outputs are meant to change):

    python3 perfbench/run.py --record [--holdout]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    # --release fixes the workspace root to the current directory.
    proc = subprocess.run(
        ["dune", "build", "--release", "perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=850,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark executable; return (exit code, stdout)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 1, ""
    return proc.returncode, out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def steadiness(opts):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = opts.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        runs = []
        for i in range(opts.steadiness):
            seed = opts.first_seed + i
            args = ["--workload", name, "--seed", str(seed),
                    "--seconds", str(opts.seconds or spec["run_seconds"]), "--trace", "0"]
            code, out = run_exe(args)
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
            if result is None or not result["correct"]:
                sys.exit(f"{name} seed {seed}: run failed or incorrect")
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for metric in bounds:
            q1, q2, q3, s = spread([r[metric]["value"] for r in runs])
            share = s / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(f"  {name:18} {metric:20} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.4f}  bound {bounds[metric]}  ({share:.2f} of bound)", flush=True)
    print(f"worst spread, setup_s aside: {worst:.2f} of its bound")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--holdout", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    build()
    if opts.steadiness:
        steadiness(opts)
        return
    if opts.record:
        with open("BENCHMARK.json") as f:
            names = opts.workload or [w["name"] for w in json.load(f)["workloads"]]
        for name in names:
            args = ["--workload", name, "--record"] + (["--holdout"] if opts.holdout else [])
            code, out = run_exe(args, timeout=None)
            sys.stdout.write(out)
            if code != 0:
                sys.exit(code)
        return
    if not opts.workload or len(opts.workload) != 1:
        sys.exit("perfbench: name one --workload")
    args = ["--workload", opts.workload[0], "--seed", str(opts.seed),
            "--seconds", str(opts.seconds if opts.seconds is not None else 10),
            "--trace", str(opts.trace)] + (["--holdout"] if opts.holdout else [])
    code, out = run_exe(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
