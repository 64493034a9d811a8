"""tools/bench.py: compare on two small synthetic BENCH files, pairs with a
stub runner (no benchmark runs), and counts and cold on stub checkouts."""

import importlib.metadata
import importlib.util
import json
import os
import types

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench.py")
_SPEC = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _doc(medians):
    """A BENCH file whose child side has the given medians per workload."""
    return {"workloads": {w: {"summary": {m: {"child": {"median": v, "q1": v, "q3": v}}
                                          for m, v in ms.items()}}
                          for w, ms in medians.items()}}


def _write(path, medians):
    path.write_text(json.dumps(_doc(medians)), encoding="utf-8")
    return str(path)


def _rows(text):
    return {tuple(line.split()[:2]): line for line in text.splitlines()[1:]}


def test_compare_prints_ratios_and_flags_moves_beyond_the_bound(tmp_path, capsys):
    old = _write(tmp_path / "old.json", {
        "derive_pullback": {"work_per_s": 200.0, "wall_s": 0.08, "peak_rss_mb": 40.0},
        "check_all": {"work_per_s": 600.0},
    })
    new = _write(tmp_path / "new.json", {
        # +25 % work: better; wall_s +20 %: worse but inside 0.25; rss +12.5 %: beyond 0.1
        "derive_pullback": {"work_per_s": 250.0, "wall_s": 0.096, "peak_rss_mb": 45.0},
        "check_all": {"work_per_s": 420.0},  # -30 %: beyond 0.25
        "yee_cart64": {"work_per_s": 1.0},   # only in NEW: not compared
    })
    assert bench.main(["compare", old, new]) == 1
    rows = _rows(capsys.readouterr().out)
    assert set(rows) == {("derive_pullback", "work_per_s"), ("derive_pullback", "wall_s"),
                         ("derive_pullback", "peak_rss_mb"), ("check_all", "work_per_s")}
    assert rows["derive_pullback", "work_per_s"].split()[4] == "1.2500"
    assert rows["derive_pullback", "wall_s"].split()[4] == "1.2000"
    assert "WORSE" not in rows["derive_pullback", "work_per_s"]
    assert "WORSE" not in rows["derive_pullback", "wall_s"]
    assert rows["derive_pullback", "peak_rss_mb"].endswith("WORSE beyond bound 0.1")
    assert rows["check_all", "work_per_s"].endswith("WORSE beyond bound 0.25")


def test_compare_within_bounds_exits_0(tmp_path, capsys):
    medians = {"check_all": {"work_per_s": 600.0, "unit_ms_p90": 60.0}}
    old = _write(tmp_path / "old.json", medians)
    new = _write(tmp_path / "new.json", {"check_all": {"work_per_s": 590.0,
                                                       "unit_ms_p90": 61.0}})
    assert bench.main(["compare", old, new]) == 0
    assert "WORSE" not in capsys.readouterr().out


def test_summary_counts_pairs_won_in_each_metrics_direction():
    metrics = {"work_per_s": ("higher", 0.25), "wall_s": ("lower", 0.25)}
    pairs = [{"parent": {"metrics": {"work_per_s": p, "wall_s": 1 / p}},
              "child": {"metrics": {"work_per_s": c, "wall_s": 1 / c}}}
             for p, c in ((100, 120), (110, 105), (90, 130), (100, 100))]
    summary = bench.summarize(pairs, metrics)
    assert summary["work_per_s"]["child_won"] == summary["wall_s"]["child_won"] == 2
    assert summary["work_per_s"]["parent"]["median"] == 100
    assert summary["work_per_s"]["child"]["median"] == pytest.approx(112.5)
    assert summary["work_per_s"]["child"]["q1"] <= 112.5 <= summary["work_per_s"]["child"]["q3"]


def _stub_runner(side, broken):
    """A stand-in for a checkout's benchmarks/run.py: its runs report fixed
    metrics (the child's work_per_s 10 % above the parent's, rising by 1 %
    a run) and reference loop (the child's 2 ms slower), and the run of
    ``broken = (pair, side, fields)`` reports ``fields`` instead of a clean
    result."""
    calls = []

    def run_workload(ns, workload, deadline):
        calls.append(workload)
        # the workers this run would start inherit the environment: no bytecode
        assert os.environ.get("PYTHONDONTWRITEBYTECODE") == "1"
        metrics = {m: (1.0, "") for m in bench.end_to_end_metrics()}
        work = (110.0 if side == "child" else 100.0) * (1 + 0.01 * len(calls))
        metrics["work_per_s"] = (work, "1/s")
        result = {"metrics": metrics, "attempted": 10, "failed": 0, "correct": True,
                  "info": {"reference_loop_ms": 12.0 if side == "child" else 10.0}}
        if broken is not None and broken[:2] == (len(calls), side):
            result.update(broken[2])
        return result

    return types.SimpleNamespace(DEADLINE_S=1.0, parse_args=lambda argv: argv,
                                 run_workload=run_workload)


def _pairs(tmp_path, monkeypatch, broken=None, options=(), workload="yee_curv_io"):
    monkeypatch.setattr(bench, "load_runner",
                        lambda checkout, name: _stub_runner(name.rsplit("_", 1)[1], broken))
    monkeypatch.setattr(bench, "drop_bytecode", lambda checkout: None)
    monkeypatch.setattr(bench, "commit_of", lambda checkout: {"commit": checkout, "dirty": False})
    out = tmp_path / "BENCH_stub.json"
    code = bench.main(["pairs", "parent_dir", "child_dir", "--workload", workload,
                       "--n", "3", "--out", str(out), *options])
    return code, out


@pytest.mark.parametrize("pair, side, fields", [
    (2, "child", {"correct": False}),
    (1, "parent", {"failed": 3}),
    (3, "child", {"failed": 1, "correct": False}),
])
def test_pairs_stops_at_a_broken_run(tmp_path, monkeypatch, capsys, pair, side, fields):
    with pytest.raises(SystemExit) as exc:
        _pairs(tmp_path, monkeypatch, (pair, side, fields))
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert f"yee_curv_io pair {pair} {side} " in message
    assert not (tmp_path / "BENCH_stub.json").exists()


def test_pairs_records_the_machine_with_its_click_version(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    code, out = _pairs(tmp_path, monkeypatch)
    assert code == 0
    assert "PYTHONDONTWRITEBYTECODE" not in os.environ  # set for the runs only
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["machine"]["click"] == importlib.metadata.version("click")
    assert len(doc["workloads"]["yee_curv_io"]["pairs"]) == 3


def test_pairs_records_the_gain_rule_and_the_reference_loop(tmp_path, monkeypatch, capsys):
    code, out = _pairs(tmp_path, monkeypatch)
    assert code == 0
    summary = json.loads(out.read_text(encoding="utf-8"))["workloads"]["yee_curv_io"]["summary"]
    # work_per_s: won 3 of 3, medians 111 against 102 beyond the parent's spread
    assert summary["work_per_s"]["child_won"] == 3 and summary["work_per_s"]["gain_holds"]
    assert not summary["wall_s"]["gain_holds"]  # every pair a tie
    assert summary["reference_loop_ms"]["parent"]["median"] == 10.0
    assert summary["reference_loop_ms"]["child"]["median"] == 12.0
    printed = capsys.readouterr().out
    assert "work_per_s     3/3    yes" in printed and "wall_s         0/3    no" in printed
    assert "reference loop median ms: parent 10, child 12" in printed


@pytest.mark.parametrize("options, message", [
    (("--seed", "2"), "holds runs at seed 1, not 2"),
    (("--seconds", "10"), "holds runs at seconds 20.0, not 10.0"),
])
def test_pairs_refuses_a_file_of_another_seed_or_run_length(tmp_path, monkeypatch, capsys,
                                                             options, message):
    _, out = _pairs(tmp_path, monkeypatch)
    before = out.read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        _pairs(tmp_path, monkeypatch, options=options, workload="check_all")
    assert str(exc.value.code) == f"error: {out} {message}"
    assert out.read_text(encoding="utf-8") == before
    # the same seed and run length add the workload
    assert _pairs(tmp_path, monkeypatch, workload="check_all")[0] == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["workloads"]) == {"yee_curv_io", "check_all"} and doc["seed"] == 1


def _synthetic(parent, child, better="higher"):
    pairs = [{side: {"metrics": {"m": v}, "info": {}} for side, v in zip(("parent", "child"), pc)}
             for pc in zip(parent, child)]
    return bench.summarize(pairs, {"m": (better, 0.25)})


@pytest.mark.parametrize("parent, child, holds", [
    # ten of ten won, medians 10 apart against a parent spread of 4.5
    (range(100, 110), range(110, 120), True),
    # nine of ten won (one tie): still nine tenths
    (range(100, 110), [100] + list(range(111, 120)), True),
    # eight of ten won
    (range(100, 110), [99, 100] + list(range(112, 120)), False),
    # ten of ten won, but by less than the parent's spread
    (range(100, 110), range(101, 111), False),
], ids=["all-won", "nine-won", "eight-won", "inside-spread"])
def test_gain_rule_needs_nine_tenths_and_a_move_beyond_the_parent_spread(parent, child,
                                                                          holds):
    assert _synthetic(parent, child)["m"]["gain_holds"] is holds
    # the same runs with lower better: a gain for the child exactly when
    # the mirrored numbers gave one
    mirror = _synthetic([-v for v in parent], [-v for v in child], better="lower")
    assert mirror["m"]["gain_holds"] is holds


def test_summary_leaves_out_the_reference_loop_when_a_run_lacks_it():
    assert "reference_loop_ms" not in _synthetic([1.0, 2.0], [1.5, 2.5])


_STUB_WORKLOADS = '''
class Stub:
    units_per_round = 2

    def __init__(self, rng, small, outdir):
        self.n = {n}

    def make_input(self, k):
        return k

    def unit(self, k):
        s = 0
        for i in range(self.n):
            s += i * k
        return 1, s

    def check(self, k, out):
        return [] if out == k * self.n * (self.n - 1) // 2 else ["sum"]


WORKLOADS = {{"stub": Stub}}
'''


def _stub_checkout(root, n):
    """A checkout holding only a benchmarks/workloads.py whose one unit
    adds up ``n`` numbers."""
    (root / "src").mkdir(parents=True)
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "workloads.py").write_text(_STUB_WORKLOADS.format(n=n),
                                                      encoding="utf-8")
    return str(root)


def test_counts_are_repeatable_and_grow_with_the_work(tmp_path, capsys):
    once, twice = _stub_checkout(tmp_path / "once", 3000), _stub_checkout(tmp_path / "twice", 6000)
    out = tmp_path / "BENCH_counts.json"
    runs = []
    for _ in range(2):
        assert bench.main(["counts", once, twice, "--workload", "stub", "--out", str(out)]) == 0
        runs.append(json.loads(out.read_text(encoding="utf-8"))["workloads"]["stub"]["counts"])
    assert runs[0] == runs[1]
    counts = runs[0]
    assert counts["seed"] == 1 and counts["parent"]["units"] == 1
    assert counts["parent"]["calls"] == {"benchmarks/workloads.py:unit": 1}
    parent, child = counts["parent"]["instructions"], counts["child"]["instructions"]
    assert parent > 4 * 3000  # a few instructions per number added
    assert 1.95 * parent <= child <= 2.05 * parent
    assert f"stub instructions over 1 unit(s): parent {parent}, child {child}" in \
        capsys.readouterr().out


def test_compare_prints_the_childs_instruction_counts(tmp_path, capsys):
    docs = []
    for name, n in (("old", 1000), ("new", 800)):
        doc = _doc({"derive_pullback": {"work_per_s": 200.0}})
        doc["workloads"]["derive_pullback"]["counts"] = {
            side: {"units": 16, "instructions": n, "calls": {}} for side in ("parent", "child")}
        docs.append(tmp_path / f"{name}.json")
        docs[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert bench.main(["compare", *map(str, docs)]) == 0
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("derive_pullback") and "800" in line]
    assert row and row[0].split()[1:] == ["1000", "800", "0.8000"]


def test_drop_bytecode_deletes_only_the_caches_under_src_and_benchmarks(tmp_path):
    for d in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__", "benchmarks/__pycache__",
              "tools/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src" / "pkg" / "m.py").write_text("", encoding="utf-8")
    bench.drop_bytecode(str(tmp_path))
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.pyc")) == \
        ["tools/__pycache__/m.cpython-311.pyc"]
    assert (tmp_path / "src" / "pkg" / "m.py").exists()


def _cli_checkout(root, body, fake_numpy=False):
    """A checkout whose ``curvmax.cli`` runs ``body`` as ``__main__``; with
    ``fake_numpy`` its ``src/`` also holds an empty package named numpy,
    which shadows the real one."""
    pkg = root / "src" / "curvmax"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "cli.py").write_text(body, encoding="utf-8")
    if fake_numpy:
        (root / "src" / "numpy").mkdir()
        (root / "src" / "numpy" / "__init__.py").write_text("", encoding="utf-8")
    return str(root)


def test_cold_records_wall_times_and_which_side_loads_numpy(tmp_path, capsys):
    parent = _cli_checkout(tmp_path / "parent", "import numpy\n", fake_numpy=True)
    child = _cli_checkout(tmp_path / "child", "import json\n")
    out = tmp_path / "BENCH_cold.json"
    assert bench.main(["cold", parent, child, "--n", "2", "--out", str(out)]) == 0
    cold = json.loads(out.read_text(encoding="utf-8"))["cold"]
    assert cold["n"] == 2 and list(cold["runs"]) == list(bench.COLD_COMMANDS)
    for row in cold["runs"].values():
        assert row["parent"]["numpy"] and not row["child"]["numpy"]
        for side in ("parent", "child"):
            walls = row[side]["wall_s"]
            assert len(walls) == 2 and all(w > 0 for w in walls)
            assert row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
        assert row["ratio"] == row["child"]["median"] / row["parent"]["median"]
        assert 0 <= row["child_won"] <= 2
    printed = capsys.readouterr().out.splitlines()
    assert printed[1].startswith("derive spherical operators") and printed[1].endswith("yes/no")
    # bytecode was compiled for each checkout's src/ before the runs
    assert list((tmp_path / "child" / "src" / "curvmax" / "__pycache__").glob("cli.*.pyc"))


def test_cold_stops_at_a_command_that_fails(tmp_path, capsys):
    good = _cli_checkout(tmp_path / "good", "")
    broken = _cli_checkout(tmp_path / "broken", "import sys\nsys.exit(3)\n")
    out = tmp_path / "BENCH_cold.json"
    with pytest.raises(SystemExit) as exc:
        bench.main(["cold", good, broken, "--n", "1", "--out", str(out)])
    assert str(exc.value.code) == "error: cold 'derive spherical operators' child exited with 3"
    assert not out.exists()


def _save_runner(calls, checkout, broken_trace=None):
    """A stand-in for a checkout's benchmarks/run.py for ``save``: an
    untraced run reports the end-to-end metrics, a traced one two layers
    and leaves a trace file of 10 timed units in the checkout, as the
    traced worker does; the run whose trace flag is ``broken_trace``
    reports a failed unit."""

    def run_workload(argv, workload, deadline):
        trace = int(argv[argv.index("--trace") + 1]) if "--trace" in argv else 0
        calls.append((workload, trace))
        if trace:
            metrics = {"solver.step.self_s": (0.004, "s"), "solver.step.calls": (10.0, "count")}
            os.makedirs(os.path.join(checkout, ".bench_out"), exist_ok=True)
            with open(os.path.join(checkout, ".bench_out", f"trace_{workload}.json"), "w",
                      encoding="utf-8") as f:
                json.dump({"workload": workload, "seed": 1, "units": 10, "functions": {
                    "solver.step": {"calls": 25, "self_s": 0.04, "setup_calls": 5,
                                    "setup_self_s": 0.0},
                    "solver.init_grid": {"calls": 1, "self_s": 0.01, "setup_calls": 1,
                                         "setup_self_s": 0.01}}}, f)
        else:
            metrics = {m: (1.0, "") for m in bench.end_to_end_metrics()}
        return {"metrics": metrics, "attempted": 10, "failed": int(trace == broken_trace),
                "correct": True, "info": {"reference_loop_ms": 2.0}}

    return types.SimpleNamespace(DEADLINE_S=1.0, parse_args=lambda argv: argv,
                                 run_workload=run_workload)


def _save(tmp_path, monkeypatch, *options, broken_trace=None, commit="abc"):
    calls = []
    monkeypatch.setattr(bench, "load_runner",
                        lambda checkout, name: _save_runner(calls, checkout, broken_trace))
    monkeypatch.setattr(bench, "drop_bytecode", lambda checkout: None)
    monkeypatch.setattr(bench, "commit_of", lambda checkout: {"commit": commit, "dirty": False})
    out = tmp_path / "BENCH_saved.json"
    code = bench.main(["save", str(out), "--workload", "yee_curv_io",
                       "--checkout", str(tmp_path / "co"), "--seconds", "10", *options])
    return code, out, calls


@pytest.mark.parametrize("trace", [0, 1])
def test_save_writes_one_checkouts_metrics_machine_and_commit(tmp_path, monkeypatch, capsys,
                                                               trace):
    code, out, calls = _save(tmp_path, monkeypatch, "--trace", str(trace))
    assert code == 0
    assert calls == [("yee_curv_io", 0), ("yee_curv_io", 1)][:1 + trace]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["checkout"] == {"commit": "abc", "dirty": False}
    assert doc["machine"]["nproc"] == os.cpu_count()
    assert (doc["seed"], doc["seconds"]) == (1, 10.0)
    entry = doc["workloads"]["yee_curv_io"]
    assert set(entry["metrics"]) == set(bench.end_to_end_metrics())
    if trace:
        assert entry["layers"] == {"solver.step.self_s": 0.004, "solver.step.calls": 10.0}
        # (calls - set-up calls) / timed units, from the trace file
        assert entry["unit_calls"] == {"solver.step": 2.0, "solver.init_grid": 0.0}
    else:
        assert "layers" not in entry and "unit_calls" not in entry
    assert ("solver.step.self_s" in capsys.readouterr().out) == bool(trace)


def test_save_refuses_another_commit_and_stops_at_a_broken_run(tmp_path, monkeypatch, capsys):
    _, out, _ = _save(tmp_path, monkeypatch)
    before = out.read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        _save(tmp_path, monkeypatch, commit="def")
    assert str(exc.value.code) == f"error: {out} holds another checkout commit"
    with pytest.raises(SystemExit) as exc:
        _save(tmp_path, monkeypatch, "--trace", "1", broken_trace=1)
    assert str(exc.value.code) == ("error: yee_curv_io traced run is broken: correct true, "
                                   "failed 1 of 10")
    assert out.read_text(encoding="utf-8") == before


def _saved(path, layers=None, work=100.0, unit_calls=None):
    entry = {"metrics": {"work_per_s": work}, "correct": True}
    if layers is not None:
        entry["layers"] = layers
    if unit_calls is not None:
        entry["unit_calls"] = unit_calls
    path.write_text(json.dumps({"checkout": {"commit": path.stem},
                                "workloads": {"yee_curv_io": entry}}), encoding="utf-8")
    return str(path)


# every timed unit steps once, takes diagnostics once and writes a snapshot
_PER_UNIT = {"solver.step": 1.0, "solver.diagnostics": 1.0, "solver.write_snapshot_csv": 1.0}


def test_compare_flags_a_layer_self_time_more_than_a_tenth_slower(tmp_path, capsys):
    old = _saved(tmp_path / "old.json", {
        "solver.step.self_s": 0.0040, "solver.diagnostics.self_s": 0.0030,
        "solver.write_snapshot_csv.self_s": 0.0020, "solver.step.calls": 10.0,
        "symexpr.diff.self_s": 0.0}, unit_calls=_PER_UNIT)
    new = _saved(tmp_path / "new.json", {
        "solver.step.self_s": 0.0034,                # faster
        "solver.diagnostics.self_s": 0.0032,         # 6.7 % slower: inside the tenth
        "solver.write_snapshot_csv.self_s": 0.0023,  # 15 % slower: flagged
        "solver.step.calls": 20.0,                   # a count, not a time
        "symexpr.diff.self_s": 0.0}, unit_calls=_PER_UNIT)  # spent in neither run
    assert bench.main(["compare", old, new]) == 1
    rows = _rows(capsys.readouterr().out)
    assert rows["yee_curv_io", "work_per_s"].split()[4] == "1.0000"
    assert rows["yee_curv_io", "solver.write_snapshot_csv.self_s"].endswith(
        "SLOWER by more than 10%")
    for name in ("solver.step.self_s", "solver.diagnostics.self_s"):
        assert "SLOWER" not in rows["yee_curv_io", name]
    assert ("yee_curv_io", "solver.step.calls") not in rows
    assert ("yee_curv_io", "symexpr.diff.self_s") not in rows


def test_compare_leaves_out_layers_unless_both_files_hold_traced_runs(tmp_path, capsys):
    old = _saved(tmp_path / "old.json")
    new = _saved(tmp_path / "new.json", {"solver.step.self_s": 1.0}, work=110.0)
    assert bench.main(["compare", old, new]) == 0
    assert "self_s" not in capsys.readouterr().out


def test_compare_flags_only_a_layer_that_runs_in_every_timed_unit(tmp_path, capsys):
    layers = ("chart.metric_from_chart.self_s", "solver.write_diagnostics_csv.self_s",
              "symexpr.diff.self_s")
    per_unit = {"chart.metric_from_chart": 0.0,           # set-up only
                "solver.write_diagnostics_csv": 1 / 120,  # once per run, in finish
                "symexpr.diff": 16.0}                     # every unit
    old = _saved(tmp_path / "old.json", dict(zip(layers, (0.010, 0.002, 0.0100))),
                 unit_calls=per_unit)
    new = _saved(tmp_path / "new.json", dict(zip(layers, (0.015, 0.003, 0.0111))),
                 unit_calls=per_unit)
    assert bench.main(["compare", old, new]) == 1
    rows = _rows(capsys.readouterr().out)
    for name in layers[:2]:  # 50 % slower, but not run in every unit
        assert rows["yee_curv_io", name].split()[4] == "1.5000"
        assert "SLOWER" not in rows["yee_curv_io", name]
    assert rows["yee_curv_io", layers[2]].split()[4:6] == ["1.1100", "16"]
    assert rows["yee_curv_io", layers[2]].endswith("SLOWER by more than 10%")
    # a file without calls per unit shows no layer running in every unit
    bare = _saved(tmp_path / "bare.json", dict(zip(layers, (0.010, 0.002, 0.0100))))
    assert bench.main(["compare", bare, new]) == 0
    assert "SLOWER" not in capsys.readouterr().out
