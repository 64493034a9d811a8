"""Benchmark of curvmax: four workloads driven through its public functions.

    python3 benchmarks/run.py --workload yee_cart64 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1            # every workload, one after another

Each workload runs in fresh processes with one thread of work: a few that
only set up (for the median `setup_s`) and one that sets up and then
measures whole rounds of timed units for `--seconds` seconds.  With
``--trace 1`` the measuring process wraps curvmax's public functions and
reports per-layer metrics instead of the end-to-end ones.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("yee_cart64", "yee_curv_io", "derive_pullback", "check_all")
SETUP_ONLY_RUNS = 8  # plus the measuring process: setup_s is a median of nine
DEADLINE_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="small grids and one round, for the benchmark's own tests")
    return p.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, same symbolic work
    return env


def run_worker(args, workload, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.small:
        cmd.append("--small")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload, deadline):
    setups = []
    if not args.trace:
        setups = [run_worker(args, workload, deadline, setup_only=True)
                  for _ in range(SETUP_ONLY_RUNS)]
    result = run_worker(args, workload, deadline)
    if not args.trace:
        info = result["info"]
        setups.append({"setup_s": result["metrics"]["setup_s"][0],
                       "setup_raw_s": info["raw_setup_s"]})
        result["metrics"]["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        info["raw_setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    return result


def report(workload, args, result):
    info = result["info"]
    print(f"{workload}  seed {args.seed}  trace {args.trace}  units {info['units']}  "
          f"rounds {info['rounds']}  units beyond p90 {info['beyond_p90']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  raw: setup_s {info['raw_setup_s']:.6g} s, wall_s {info['raw_wall_s']:.6g} s, "
          f"unit_ms_p50 {info['raw_unit_ms_p50']:.6g} ms; "
          f"reference loop {info['reference_loop_ms']:.4g} ms")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, count in result["failures"].items():
        print(f"  failed check: {name} x{count}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "curvmax", "__init__.py")):
        sys.stderr.write(f"error: no curvmax sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload] = run_workload(args, workload, time.monotonic() + DEADLINE_S)
        report(workload, args, results[workload])
    prefix = len(names) > 1
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
                    for w, r in results.items()
                    for name, (value, unit) in r["metrics"].items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
