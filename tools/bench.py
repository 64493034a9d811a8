"""Interleaved benchmark pairs of two checkouts, work counts, cold CLI start-up
times, and comparison of BENCH files.

    python3 tools/bench.py pairs PARENT_DIR CHILD_DIR --workload derive_pullback --n 10 \\
        --out BENCH_topic.json
    python3 tools/bench.py counts PARENT_DIR CHILD_DIR --workload derive_pullback \\
        --out BENCH_topic.json
    python3 tools/bench.py cold PARENT_DIR CHILD_DIR --n 10 --out BENCH_cold_start.json
    python3 tools/bench.py save OUT.json --workload yee_curv_io --checkout DIR --trace 1
    python3 tools/bench.py compare OLD.json NEW.json

``pairs`` runs each checkout's own ``benchmarks/run.py`` (imported by path,
through its ``run_workload``) on one workload, N times each, in pairs that
alternate which side runs first.  Before every pair it deletes both sides'
``__pycache__`` directories under ``src/`` and ``benchmarks/``, and the
workers run with ``PYTHONDONTWRITEBYTECODE=1``, so that every worker
compiles the source it imports, as a fresh checkout run without bytecode
does; its ``setup_s`` includes that compilation.  It writes, or adds
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

``counts`` runs, per side, one fresh process (without bytecode, as
``pairs``) that imports that checkout's ``src/`` and ``benchmarks/workloads.py`` by path, sets the workload up at
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

``cold`` times fresh processes of fixed CLI commands (``COLD_COMMANDS``:
``derive`` of the spherical chart in the operators and 3vector forms and
of ``tests/data/parabolic.chart``, ``check --suite all`` and a 2-step
``simulate``), ``python -m curvmax.cli`` with each checkout's ``src/`` on
``PYTHONPATH``, N times per command and side, interleaved as ``pairs``
is.  It compiles each checkout's ``src/`` once before the runs, so they
read bytecode as an installed package does.  Before the timed runs one
``-X importtime`` process per command and side records whether the
command loads numpy.  It adds per command both sides' wall times, their
median and quartiles, the child's median over the parent's, the runs the
child won and the numpy flags to the file under ``cold``; a command that
exits non-zero stops it with exit 1 and one ``error:`` line.

``save`` runs one checkout (``--checkout``, by default the one holding this
tool) once on one workload, as ``pairs`` runs a side, and writes, or adds
the workload to, a JSON file holding the machine, the checkout's commit,
the seed, the run length and the run's end-to-end metrics.  With
``--trace 1`` a second, traced run adds the per-layer figures under
``layers``.  A file of another commit, seed or run length is refused, and
a broken run stops it, as in ``pairs``.

``compare`` prints, per workload and end-to-end metric, the child median of
OLD, that of NEW and their ratio (a file written by ``save`` gives its one
run's figures instead of the child median), and flags a move for the worse
beyond the metric's bound in ``BENCHMARK.json``.  When both files hold a
traced run of a workload, it prints each per-layer self time either run
spent and flags one more than ``LAYER_SLOWER`` (10 %) slower.  It exits 1
when it flags anything.  Then, per workload counted in both, the child's
instruction counts and their ratio.  At the end of ``pairs`` the same
table compares the parent with the child, and the gain rule and the
reference loop of each metric follow it; at the end of ``counts``, both
sides' instructions and the functions whose calls changed most.
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
from unittest import mock

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "child")
LAYER_SLOWER = 0.10  # compare flags a per-layer self time slower by more than this
# workloads whose counted span is one round of units rather than one unit
ROUND_WORKLOADS = ("derive_pullback",)
# cold: name -> arguments of ``python -m curvmax.cli``, run in a scratch directory
COLD_COMMANDS = {
    "derive spherical operators": ["derive", "--chart", "spherical", "--form", "operators"],
    "derive spherical 3vector": ["derive", "--chart", "spherical", "--form", "3vector"],
    "derive parabolic.chart": ["derive", "--chart-file",
                               os.path.join(ROOT, "tests", "data", "parabolic.chart")],
    "check all": ["check", "--suite", "all"],
    "simulate 2 steps": ["simulate", "--grid", "8x8x8", "--steps", "2", "--out", "sim"],
}


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


def drop_bytecode(checkout):
    """Delete every ``__pycache__`` directory under the checkout's ``src/``
    and ``benchmarks/``."""
    for top in (os.path.join(checkout, d) for d in ("src", "benchmarks")):
        for here, subdirs, _ in os.walk(top):
            if "__pycache__" in subdirs:
                shutil.rmtree(os.path.join(here, "__pycache__"))
                subdirs.remove("__pycache__")


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


def sides(args):
    """{"parent": commit, "child": commit} of the two checkouts."""
    return {"parent": commit_of(args.parent), "child": commit_of(args.child)}


def open_doc(path, commits, **runs):
    """The BENCH file at ``path`` to add to, or a new one: the machine, the
    ``commits`` (a key per checkout, as ``sides`` gives) and ``runs`` (the
    seed and run length).  A file of another commit, or whose runs had
    another seed or run length, is refused with one ``error:`` line."""
    doc = {"machine": machine(), **commits, **runs, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = json.load(f)
        for key in commits:
            if (old.get(key) or {}).get("commit") != doc[key]["commit"]:
                raise SystemExit(f"error: {path} holds another {key} commit")
        for key in runs:
            if key in old and old[key] != doc[key]:
                raise SystemExit(f"error: {path} holds runs at {key} {old[key]}, "
                                 f"not {doc[key]}")
        doc = {**old, **doc, "workloads": old["workloads"]}
    return doc


def write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def run_once(runner, args, what, trace=0):
    """One run of ``args.workload`` by a checkout's runner, at ``args.seed``
    and ``args.seconds``: {"metrics", "attempted", "failed", "correct",
    "info"}.  A run that reports ``correct: false`` or a failed unit exits
    with one ``error:`` line naming ``what`` run it was."""
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    ns = runner.parse_args(argv + (["--trace", "1"] if trace else []))
    # run.py's workers inherit this environment: each compiles what it imports
    with mock.patch.dict(os.environ, PYTHONDONTWRITEBYTECODE="1"):
        result = runner.run_workload(ns, args.workload, time.monotonic() + runner.DEADLINE_S)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {args.workload} {what} run is broken: "
                         f"correct {str(result['correct']).lower()}, "
                         f"failed {result['failed']} of {result['attempted']}")
    return {"metrics": {k: v for k, (v, _) in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "info": result["info"]}


def run_pairs(args):
    metrics = end_to_end_metrics()
    runners = {side: load_runner(d, f"_bench_run_{side}")
               for side, d in zip(SIDES, (args.parent, args.child))}
    doc = open_doc(args.out, sides(args), seed=args.seed, seconds=args.seconds)
    pairs = []
    for i in range(args.n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for d in (args.parent, args.child):
            drop_bytecode(d)
        for side in order:
            pair[side] = run_once(runners[side], args, f"pair {i + 1} {side}")
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


def run_save(args):
    runner = load_runner(args.checkout, "_bench_run_save")
    doc = open_doc(args.out, {"checkout": commit_of(args.checkout)},
                   seed=args.seed, seconds=args.seconds)
    drop_bytecode(args.checkout)
    entry = run_once(runner, args, "untraced")
    if args.trace:
        drop_bytecode(args.checkout)
        entry["layers"] = run_once(runner, args, "traced", trace=1)["metrics"]
    doc["workloads"][args.workload] = entry
    write_doc(args.out, doc)
    layers = {name: value for name, value in entry.get("layers", {}).items() if value}
    print("\n".join(f"{args.workload:16s} {name:44s} {value:14.6g}"
                    for name, value in (*entry["metrics"].items(), *layers.items())))
    return 0


def medians(doc, side):
    """workload -> metric -> that side's median, from a BENCH file of
    ``pairs``; from one of ``save``, its run's figures."""
    out = {}
    for w, v in doc["workloads"].items():
        if "summary" in v:
            out[w] = {m: row[side]["median"] for m, row in v["summary"].items()}
        elif "metrics" in v:
            out[w] = v["metrics"]
    return out


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


def compare_layers(old, new):
    """(flagged, lines): per workload traced in both, each per-layer self
    time that either run spent, new/old, flagging one more than
    ``LAYER_SLOWER`` slower."""
    flagged, lines = False, []
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][name], new[workload][name]
            if not name.endswith(".self_s") or not (a or b):
                continue
            ratio = b / a if a else float("inf")
            flag = ratio > 1 + LAYER_SLOWER
            flagged = flagged or flag
            lines.append(f"{workload:16s} {name:44s} {a:12.6g} {b:12.6g} {ratio:8.4f}"
                         + (f"  SLOWER by more than {LAYER_SLOWER:.0%}" if flag else ""))
    if lines:
        lines.insert(0, f"{'workload':16s} {'layer':44s} {'old':>12s} {'new':>12s} "
                        f"{'ratio':>8s}")
    return flagged, lines


def run_compare(args):
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    flagged, lines = compare_medians(*(medians(d, "child") for d in docs), end_to_end_metrics())
    slower, layer_lines = compare_layers(*({w: v["layers"] for w, v in d["workloads"].items()
                                            if "layers" in v} for d in docs))
    flagged, lines = flagged or slower, lines + layer_lines
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
    doc = open_doc(args.out, sides(args))
    counts = {"seed": args.seed}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for side, checkout in zip(SIDES, (args.parent, args.child)):
        drop_bytecode(checkout)
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


def cold_env(checkout):
    """The environment of a ``cold`` process: the checkout's ``src/`` alone
    on ``PYTHONPATH``, a fixed hash seed and one thread of work."""
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
                PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def cold_run(command, side, env, cwd, *options):
    """Wall seconds of one ``python -m curvmax.cli`` process, and its stderr."""
    cmd = [sys.executable, *options, "-m", "curvmax.cli", *COLD_COMMANDS[command]]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: cold {command!r} {side} exited with {proc.returncode}")
    return wall, proc.stderr


def loads_numpy(importtime):
    """Whether ``-X importtime`` output lists numpy itself."""
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in importtime.splitlines())


def run_cold(args):
    doc = open_doc(args.out, sides(args))
    envs = {side: cold_env(d) for side, d in zip(SIDES, (args.parent, args.child))}
    for d in (args.parent, args.child):
        drop_bytecode(d)
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(d, "src")],
                       check=True)
    rows = {}
    with tempfile.TemporaryDirectory() as cwd:
        for command in COLD_COMMANDS:
            rows[command] = {side: {"numpy": loads_numpy(cold_run(command, side, envs[side], cwd,
                                                                   "-X", "importtime")[1]),
                                    "wall_s": []}
                             for side in SIDES}
        for i in range(args.n):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for command in COLD_COMMANDS:
                for side in order:
                    rows[command][side]["wall_s"].append(
                        cold_run(command, side, envs[side], cwd)[0])
    lines = [f"{'command':28s} {'parent ms':>10s} {'child ms':>10s} {'ratio':>7s} "
             f"{'won':>6s}  numpy parent/child"]
    for command, row in rows.items():
        for side in SIDES:
            q1, med, q3 = quartiles(row[side]["wall_s"])
            row[side].update(median=med, q1=q1, q3=q3)
        row["ratio"] = row["child"]["median"] / row["parent"]["median"]
        row["child_won"] = sum(c < p for p, c in zip(row["parent"]["wall_s"],
                                                     row["child"]["wall_s"]))
        lines.append(f"{command:28s} {1e3 * row['parent']['median']:10.1f} "
                     f"{1e3 * row['child']['median']:10.1f} {row['ratio']:7.3f} "
                     f"{row['child_won']:3d}/{args.n:<2d}  "
                     f"{'yes' if row['parent']['numpy'] else 'no'}/"
                     f"{'yes' if row['child']['numpy'] else 'no'}")
    doc["cold"] = {"n": args.n, "runs": rows}
    write_doc(args.out, doc)
    print("\n".join(lines))
    return 0


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
    cold = sub.add_parser("cold", help="fresh-process wall times of fixed CLI commands")
    cold.add_argument("parent")
    cold.add_argument("child")
    cold.add_argument("--n", type=int, default=10)
    cold.add_argument("--out", required=True)
    save = sub.add_parser("save", help="one checkout's metrics, per layer with --trace 1")
    save.add_argument("out")
    save.add_argument("--workload", required=True)
    save.add_argument("--checkout", default=ROOT)
    save.add_argument("--seed", type=int, default=1)
    save.add_argument("--seconds", type=float, default=20.0)
    save.add_argument("--trace", type=int, choices=(0, 1), default=0)
    compare = sub.add_parser("compare", help="child medians of two BENCH files")
    compare.add_argument("old")
    compare.add_argument("new")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.command == "count-side":
        print(json.dumps(count_side(args.checkout, args.workload, args.seed)))
        return 0
    return {"pairs": run_pairs, "counts": run_counts, "cold": run_cold, "save": run_save,
            "compare": run_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
