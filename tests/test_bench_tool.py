"""tools/bench.py: compare on two small synthetic BENCH files, and pairs with
a stub runner (no benchmark runs)."""

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
    monkeypatch.setattr(bench, "rebuild_bytecode", lambda checkout: None)
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
    code, out = _pairs(tmp_path, monkeypatch)
    assert code == 0
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
