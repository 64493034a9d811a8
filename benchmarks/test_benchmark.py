"""Tests of the benchmark itself: small runs pass, and checks reject bad output.

    PYTHONPATH=src python3 -m pytest benchmarks
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import per_layer_names  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "work_per_s", "unit_ms_p50", "unit_ms_p90",
              "peak_rss_mb")


def run_small(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--small", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_small_run_of_every_workload_passes_its_checks():
    out = run_small(0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    for w in wls.WORKLOADS:
        for name in END_TO_END:
            assert out["metrics"][f"{w}.{name}"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    out = run_small(1)
    assert out["correct"] and out["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = json.load(f)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == per_layer_names()
    for w in wls.WORKLOADS:
        for m in listed:
            assert f"{w}.{m['name']}" in out["metrics"]
    assert out["metrics"]["yee_cart64.solver.time_step.calls"]["value"] == 1.0
    assert out["metrics"]["check_all.cli.main.calls"]["value"] == 1.0
    assert out["metrics"]["derive_pullback.diffops.out_nodes"]["value"] > 0


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_flipped_sign_in_a_derived_operator_is_rejected(rng, tmp_path):
    wl = wls.DerivePullback(rng, True, str(tmp_path))
    for k in range(wl.units_per_round):
        inputs = wl.make_input(k)
        _, values = wl.unit(inputs)
        assert wl.check(inputs, values) == []
        flipped = [list(row) for row in values]
        flipped[0][-1] = -flipped[0][-1]
        if flipped[0][-1] != values[0][-1]:
            assert wl.check(inputs, flipped)


def curv_unit(rng, tmp_path):
    wl = wls.YeeCurvIO(rng, True, str(tmp_path))
    _, state = wl.unit(0)
    with open(wl.bin_path, "rb") as f:
        blob = f.read()
    with open(wl.csv_path, encoding="utf-8") as f:
        text = f.read()
    assert wls.check_curv_state(wl, state, blob, text) == []
    return wl, state, blob, text


def test_changed_byte_in_a_snapshot_is_rejected(rng, tmp_path):
    wl, state, blob, text = curv_unit(rng, tmp_path)
    cells = int(np.prod(wl.spec.shape))
    # one byte of D_3 (the sixth component block), of the magic, of the padding
    for pos in (ref.SNAPSHOT_HEADER + 8 * (5 * cells + 3) + 6, 2, 30):
        bad = bytearray(blob)
        bad[pos] ^= 0x10
        assert wls.check_curv_state(wl, state, bytes(bad), text)
    lines = text.splitlines()
    row = lines[5].split(",")
    row[7] = repr(float(row[7]) * (1 + 1e-9) + 1e-9)
    lines[5] = ",".join(row)
    assert wls.check_curv_state(wl, state, blob, "\n".join(lines)) == \
        ["CSV agrees with binary"]
    assert wls.check_curv_state(wl, state, blob, "\n".join(lines[:-1]))
    assert wl.check(0, state) == []


def test_nonzero_div_b_is_rejected(rng, tmp_path):
    wl, state, blob, text = curv_unit(rng, tmp_path)
    b = state.b.copy()
    b[0, 3, 3, 3] += 1e-6
    bad = dataclasses.replace(state, b=b)
    assert "div b" in wls.check_curv_state(wl, bad, blob, text)

    cart = wls.YeeCart64(rng, True, str(tmp_path))
    _, out = cart.unit(0)
    assert cart.check(0, out) == []
    state, diag = out
    b = state.b.copy()
    b[2, 1, 2, 3] += 1e-6
    assert "div b" in cart.check(0, (dataclasses.replace(state, b=b), diag))
    e = state.e.copy()
    e[1] = -e[1]
    assert "plane wave L2 distance" in cart.check(0, (dataclasses.replace(state, e=e), diag))


def test_check_suite_output_rules():
    wl = wls.CheckAll(np.random.default_rng(1), True, "")
    code, text = wl.unit(wl.make_input(0))[1]
    assert wls.check_suite_output(code, text) == []
    lines = text.splitlines()
    assert wls.check_suite_output(1, text) == ["exit code"]
    failing = "\n".join(["FAIL" + lines[0][4:]] + lines[1:])
    assert "PASS lines" in wls.check_suite_output(code, failing)
    assert wls.check_suite_output(code, "\n".join(lines[1:])) == ["golden equations listed",
                                                                  "count line"]
