"""Interleaved benchmark pairs of two checkouts, work counts, and comparison of BENCH files.

    python3 tools/bench.py pairs PARENT_DIR CHILD_DIR --workload derive_pullback --n 10 \\
        --out BENCH_topic.json
    python3 tools/bench.py counts PARENT_DIR CHILD_DIR --workload derive_pullback \\
        --out BENCH_topic.json
    python3 tools/bench.py compare OLD.json NEW.json

``pairs`` runs each checkout's own ``benchmarks/run.py`` (imported by path,
through its ``run_workload``) on one workload, N times each, in pairs that
alternate which side runs first.  Before every pair it deletes both sides'
``__pycache__`` directories under ``src/`` and ``benchmarks/`` and compiles
them again, so that neither side reads stale bytecode.  It writes, or adds
the workload to, a JSON file holding the machine, both commits, the seed,
the run length, every pair's metrics and, per end-to-end metric of
``BENCHMARK.json``, both sides' median and quartiles, the number of pairs
the child won and whether a gain holds by the rule of ``gain_holds``, and
each side's median reference-loop time (see ``summarize``), which shows
when the machine's clock ran at another speed for one side.  An existing
file that holds another commit, seed or run length is refused with one
``error:`` line, so that every workload in a file was run alike.  A run
that reports ``correct: false`` or a failed unit stops it with exit 1 and
one ``error:`` line naming the workload, the pair and the side; nothing is
written then.

``counts`` runs, per side, one fresh process that imports that checkout's
``src/`` and ``benchmarks/workloads.py`` by path, sets the workload up at
the seed, runs one round of units untraced to warm it, and then counts the
next: one round of ``derive_pullback`` (its 16 units are every chart with
every operator) and one unit of any other workload.  It counts the Python
bytecode instructions the counted units execute (``sys.settrace`` with
``f_trace_opcodes``) and, per function of the checkout, its calls
(``cProfile``; functions of one name in one file are summed), and adds
them to the workload in the BENCH file, beside its pairs.  Only the
processes it starts are traced.  Counts see no work done inside C, such as
numpy's loops.  A checkout counted twice at one seed counts the same; a
unit that opens files by path (``check_all`` reads the golden files) runs
more bytecode the deeper its checkout lies, so count checkouts whose paths
are equally deep.

``compare`` prints, per workload and end-to-end metric, the child median of
OLD, that of NEW and their ratio, and flags a move for the worse beyond the
metric's bound in ``BENCHMARK.json``; it exits 1 when it flags one.  Then,
per workload counted in both, the child's instruction counts and their
ratio.  At the end of ``pairs`` the same table compares the parent with
the child, and the gain rule and the reference loop of each metric follow
it; at the end of ``counts``, both sides' instructions and the functions
whose calls changed most.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.metadata
import importlib.util
import json
import os
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "child")
# workloads whose counted span is one round of units rather than one unit
ROUND_WORKLOADS = ("derive_pullback",)


def end_to_end_metrics(path=os.path.join(ROOT, "BENCHMARK.json")):
    """name -> (better, bound) for every end-to-end metric."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_runner(checkout, name):
    """A checkout's ``benchmarks/run.py`` as a module of its own."""
    path = os.path.join(checkout, "benchmarks", "run.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebuild_bytecode(checkout):
    dirs = [os.path.join(checkout, d) for d in ("src", "benchmarks")]
    for top in dirs:
        for here, subdirs, _ in os.walk(top):
            if "__pycache__" in subdirs:
                shutil.rmtree(os.path.join(here, "__pycache__"))
                subdirs.remove("__pycache__")
    subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], check=True)


def commit_of(checkout):
    """{"commit", "dirty"}; both are None outside a git checkout."""
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        click = importlib.metadata.version("click")
    except importlib.metadata.PackageNotFoundError:
        click = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "click": click}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def gain_holds(row):
    """The child wins at least nine tenths of the pairs (ties count for
    neither side), and its median is better than the parent's by more
    than the parent's quartile spread."""
    sign = 1 if row["better"] == "higher" else -1
    parent, child = row["parent"], row["child"]
    return (10 * row["child_won"] >= 9 * row["pairs"]
            and sign * (child["median"] - parent["median"]) > parent["q3"] - parent["q1"])


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, pairs won by the
    child and ``gain_holds``; under ``reference_loop_ms``, each side's
    median and quartiles of the runs' ``info.reference_loop_ms`` (the
    benchmark's fixed reference loop), when every run reports it."""
    out = {}
    for name, (better, bound) in metrics.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        row = {"better": better, "bound": bound}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            row[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1 if better == "higher" else -1
        row["child_won"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                                     values["child"]))
        row["pairs"] = len(pairs)
        row["gain_holds"] = gain_holds(row)
        out[name] = row
    refs = {side: [p[side].get("info", {}).get("reference_loop_ms") for p in pairs]
            for side in SIDES}
    if all(v is not None for side in SIDES for v in refs[side]):
        out["reference_loop_ms"] = {side: dict(zip(("q1", "median", "q3"), quartiles(refs[side])))
                                    for side in SIDES}
    return out


def gain_lines(summary):
    """Per metric, pairs won and whether the gain rule holds; then the
    reference loop of each side."""
    lines = [f"{'metric':12s} {'won':>7s}  gain holds"]
    for name, row in summary.items():
        if "gain_holds" in row:
            lines.append(f"{name:12s} {row['child_won']:3d}/{row['pairs']:<3d}  "
                         f"{'yes' if row['gain_holds'] else 'no'}")
    ref = summary.get("reference_loop_ms")
    if ref is not None:
        lines.append(f"reference loop median ms: parent {ref['parent']['median']:.4g}, "
                     f"child {ref['child']['median']:.4g}")
    return lines


def open_doc(args, **runs):
    """The BENCH file at ``args.out`` to add to, or a new one: the machine,
    both commits and ``runs`` (the seed and run length of the pairs).  A
    file of another commit, or whose pairs ran at another seed or run
    length, is refused with one ``error:`` line."""
    doc = {"machine": machine(),
           "parent": commit_of(args.parent), "child": commit_of(args.child),
           **runs, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            old = json.load(f)
        for key in ("parent", "child"):
            if old[key]["commit"] != doc[key]["commit"]:
                raise SystemExit(f"error: {args.out} holds another {key} commit")
        for key in runs:
            if key in old and old[key] != doc[key]:
                raise SystemExit(f"error: {args.out} holds runs at {key} {old[key]}, "
                                 f"not {doc[key]}")
        doc = {**old, **doc, "workloads": old["workloads"]}
    return doc


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def run_pairs(args):
    metrics = end_to_end_metrics()
    runners = {side: load_runner(d, f"_bench_run_{side}")
               for side, d in zip(SIDES, (args.parent, args.child))}
    doc = open_doc(args, seed=args.seed, seconds=args.seconds)
    pairs = []
    for i in range(args.n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for d in (args.parent, args.child):
            rebuild_bytecode(d)
        for side in order:
            run = runners[side]
            ns = run.parse_args(["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds)])
            result = run.run_workload(ns, args.workload, time.monotonic() + run.DEADLINE_S)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"error: {args.workload} pair {i + 1} {side} run is broken: "
                                 f"correct {str(result['correct']).lower()}, "
                                 f"failed {result['failed']} of {result['attempted']}")
            pair[side] = {"metrics": {k: v for k, (v, _) in result["metrics"].items()},
                          "attempted": result["attempted"], "failed": result["failed"],
                          "correct": result["correct"], "info": result["info"]}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.n} {args.workload} work_per_s parent "
              f"{pair['parent']['metrics']['work_per_s']:.6g} child "
              f"{pair['child']['metrics']['work_per_s']:.6g}", flush=True)
    summary = summarize(pairs, metrics)
    doc["workloads"].setdefault(args.workload, {}).update(pairs=pairs, summary=summary)
    write_doc(args.out, doc)
    _, lines = compare_medians(medians(doc, "parent"), medians(doc, "child"), metrics)
    print("\n".join(lines + gain_lines(summary)))
    return 0


def medians(doc, side):
    """workload -> metric -> that side's median, from a BENCH file."""
    return {w: {m: row[side]["median"] for m, row in v["summary"].items()}
            for w, v in doc["workloads"].items() if "summary" in v}


def compare_medians(old, new, metrics):
    """(flagged, lines): ratio new/old per workload and metric, flagging a
    move for the worse beyond the metric's bound."""
    flagged = False
    lines = [f"{'workload':16s} {'metric':12s} {'old':>12s} {'new':>12s} {'ratio':>8s}"]
    for workload in sorted(set(old) & set(new)):
        for name, (better, bound) in metrics.items():
            if name not in old[workload] or name not in new[workload]:
                continue
            a, b = old[workload][name], new[workload][name]
            ratio = b / a if a else float("inf")
            worse = (1 - ratio) if better == "higher" else (ratio - 1)
            flag = worse > bound
            flagged = flagged or flag
            lines.append(f"{workload:16s} {name:12s} {a:12.6g} {b:12.6g} {ratio:8.4f}"
                         + (f"  WORSE beyond bound {bound}" if flag else ""))
    return flagged, lines


def run_compare(args):
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    flagged, lines = compare_medians(*(medians(d, "child") for d in docs), end_to_end_metrics())
    old, new = ({w: v["counts"]["child"]["instructions"] for w, v in d["workloads"].items()
                 if "counts" in v} for d in docs)
    if set(old) & set(new):
        lines.append(f"{'workload':16s} {'instructions':12s} {'old':>12s} {'new':>12s} "
                     f"{'ratio':>8s}")
        lines += [f"{w:16s} {'':12s} {old[w]:12d} {new[w]:12d} {new[w] / old[w]:8.4f}"
                  for w in sorted(set(old) & set(new))]
    print("\n".join(lines))
    return 1 if flagged else 0


def count_calls(fn, *args):
    """(fn(*args), bytecode instructions it executed, its profile)."""
    executed = 0

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    profile = cProfile.Profile()
    profile.enable()
    sys.settrace(call)
    try:
        out = fn(*args)
    finally:
        sys.settrace(None)
        profile.disable()
    return out, executed, profile


def count_side(checkout, workload, seed):
    """Counts of one workload of ``checkout``, in this process (see
    ``counts`` in the module docstring): {"units", "instructions",
    "calls"}, with calls keyed "path/in/checkout.py:function"."""
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    import numpy as np
    import workloads
    if not os.path.abspath(workloads.__file__).startswith(checkout + os.sep):
        raise SystemExit(f"error: workloads imported from {workloads.__file__}")
    with tempfile.TemporaryDirectory() as outdir:
        wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), False, outdir)
        units = wl.units_per_round if workload in ROUND_WORKLOADS else 1
        executed, calls = 0, {}
        for k in range(wl.units_per_round + units):
            inputs = wl.make_input(k)
            if k < wl.units_per_round:
                _, out = wl.unit(inputs)
            else:
                (_, out), n, profile = count_calls(wl.unit, inputs)
                executed += n
                for (path, _, name), row in pstats.Stats(profile).stats.items():
                    if path.startswith(checkout + os.sep):
                        key = f"{os.path.relpath(path, checkout)}:{name}"
                        calls[key] = calls.get(key, 0) + row[1]
            fails = wl.check(inputs, out)
            if fails:
                raise SystemExit(f"error: {workload} unit {k} failed: {', '.join(fails)}")
    return {"units": units, "instructions": executed, "calls": dict(sorted(calls.items()))}


def run_counts(args):
    doc = open_doc(args)
    counts = {"seed": args.seed}
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for side, checkout in zip(SIDES, (args.parent, args.child)):
        rebuild_bytecode(checkout)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "count-side", checkout,
                               "--workload", args.workload, "--seed", str(args.seed)],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: {args.workload} {side} count exited with "
                             f"{proc.returncode}")
        counts[side] = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["workloads"].setdefault(args.workload, {})["counts"] = counts
    write_doc(args.out, doc)
    print("\n".join(count_lines(args.workload, counts)))
    return 0


def count_lines(workload, counts, top=10):
    """Both sides' instructions and the ``top`` functions whose calls
    changed most."""
    parent, child = counts["parent"], counts["child"]
    a, b = parent["instructions"], child["instructions"]
    lines = [f"{workload} instructions over {child['units']} unit(s): parent {a}, child {b}, "
             f"ratio {b / a:.4f}"]
    moved = sorted(((child["calls"].get(f, 0) - parent["calls"].get(f, 0), f)
                    for f in set(parent["calls"]) | set(child["calls"])),
                   key=lambda df: (-abs(df[0]), df[1]))
    lines += [f"  calls {d:+12d}  {f}" for d, f in moved[:top] if d]
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="interleaved pairs of two checkouts")
    pairs.add_argument("parent")
    pairs.add_argument("child")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--n", type=int, default=10)
    pairs.add_argument("--seed", type=int, default=1)
    pairs.add_argument("--seconds", type=float, default=20.0)
    pairs.add_argument("--out", required=True)
    counts = sub.add_parser("counts", help="instructions and calls of two checkouts' units")
    counts.add_argument("parent")
    counts.add_argument("child")
    counts.add_argument("--workload", required=True)
    counts.add_argument("--seed", type=int, default=1)
    counts.add_argument("--out", required=True)
    side = sub.add_parser("count-side", help="one side of counts, in a fresh process")
    side.add_argument("checkout")
    side.add_argument("--workload", required=True)
    side.add_argument("--seed", type=int, required=True)
    compare = sub.add_parser("compare", help="child medians of two BENCH files")
    compare.add_argument("old")
    compare.add_argument("new")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.command == "count-side":
        print(json.dumps(count_side(args.checkout, args.workload, args.seed)))
        return 0
    return {"pairs": run_pairs, "counts": run_counts, "compare": run_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
