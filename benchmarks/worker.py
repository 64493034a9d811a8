"""One workload in one fresh process; prints its result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.
``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start-up and imports.

Times are reported at a reference clock.  A fixed pure-Python loop runs
(untimed) before every unit and after set-up; the run's measured times are
multiplied by REF_LOOP_S over the median time of that loop in the run (the
set-up time by its median after set-up).  The host's clock moves between
phases, seconds to minutes long, in which that loop takes from 1.6 to
3.0 ms; the scaling takes out the phase a run falls in, and the raw
figures are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_UNITS = 100   # so that at least ten units lie beyond the 90th percentile
SAFETY_S = 150.0  # stop starting rounds this long after process start
REF_LOOP_S = 2e-3  # the reference loop's time at the reference clock


def time_reference_loop():
    """Time of a fixed pure-Python loop, the measure of the current clock."""
    t = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    return p.parse_args(argv)


def step_alloc_mb(wl):
    """Median peak bytes allocated during one step, over three steps."""
    import tracemalloc
    from curvmax import solver as sv
    state, peaks = wl.initial, []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            state = sv.step(state, wl.spec)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / float(1 << 20)


def run(args):
    import numpy as np

    import curvmax
    import curvmax.cli  # noqa: F401  (imports every curvmax module)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(curvmax.__file__).startswith(src + os.sep):
        raise SystemExit(f"curvmax imported from {curvmax.__file__}, not from {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    outdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        wl = workloads.WORKLOADS[args.workload](rng, args.small, outdir)
        setup_raw = time.monotonic() - args.t0
        setup_s = setup_raw * REF_LOOP_S / statistics.median(
            time_reference_loop() for _ in range(5))
        if args.setup_only:
            return {"setup_s": setup_s, "setup_raw_s": setup_raw}
        if tracer:
            tracer.mark_setup_end()
        return measure(args, wl, (setup_s, setup_raw), tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(args, wl, setup, tracer):
    per_round = wl.units_per_round
    min_units = per_round if args.small else MIN_UNITS
    raw_s, unit_fails, round_raw, round_work, refs = [], [], [], [], []
    start = time.monotonic()
    while (len(raw_s) < min_units or time.monotonic() - start < args.seconds) \
            and time.monotonic() - args.t0 < SAFETY_S:
        times, work = [], 0.0
        for k in range(len(raw_s), len(raw_s) + per_round):
            refs.append(time_reference_loop())
            inputs = wl.make_input(k)
            t = time.perf_counter()
            try:
                done, out = wl.unit(inputs)
            except Exception:  # a unit that raises is a failed operation
                times.append(time.perf_counter() - t)
                fails = ["raised: " + traceback.format_exc(limit=1).splitlines()[-1]]
            else:
                times.append(time.perf_counter() - t)
                work += done
                fails = wl.check(inputs, out)
            unit_fails.append(fails)
        raw_s += times
        round_raw.append(sum(times))
        round_work.append(work)
    unit_fails[-1] = unit_fails[-1] + wl.finish()  # the run's closing output
    scale = REF_LOOP_S / statistics.median(refs)
    unit_s = [t * scale for t in raw_s]
    round_s = [t * scale for t in round_raw]

    failed = sum(bool(f) for f in unit_fails)
    result = {"correct": failed == 0, "attempted": len(unit_s), "failed": failed,
              "failures": dict(collections.Counter(n for f in unit_fails for n in f))}
    p90 = statistics.quantiles(unit_s, n=10)[8] if len(unit_s) > 1 else unit_s[0]
    info = {"units": len(unit_s), "rounds": len(round_s),
            "beyond_p90": sum(t > p90 for t in unit_s),
            "raw_setup_s": setup[1], "raw_wall_s": statistics.median(round_raw),
            "raw_unit_ms_p50": 1e3 * statistics.median(raw_s),
            "reference_loop_ms": 1e3 * statistics.median(refs)}
    if tracer:
        tracer.enabled = False
        alloc = step_alloc_mb(wl) if hasattr(wl, "spec") else 0.0
        result["metrics"] = tracer.metrics(len(unit_s), alloc)
        trace_path = os.path.join(ROOT, ".bench_out", f"trace_{args.workload}.json")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "units": len(unit_s),
                       "functions": tracer.table()}, f, indent=1)
        tracer.uninstall()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "setup_s": (setup[0], "s"),
            "wall_s": (statistics.median(round_s), "s"),
            "work_per_s": (statistics.median(w / s for w, s in zip(round_work, round_s)),
                           "1/s"),
            "unit_ms_p50": (1e3 * statistics.median(unit_s), "ms"),
            "unit_ms_p90": (1e3 * p90, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result["info"] = info
    return result


def main(argv=None):
    print(json.dumps(run(parse_args(argv))))


if __name__ == "__main__":
    main()
