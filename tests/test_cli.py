"""Command-line interface: exit codes, formats, and error reporting."""

import importlib.resources as ir
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvmax.cli import main
from curvmax.symexpr import FUNCTIONS


def run_cli(capsys, *argv):
    code = 0
    try:
        main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_derive_operators_text(capsys):
    code, out, _ = run_cli(capsys, "derive", "--chart", "cylindrical",
                           "--form", "operators")
    assert code == 0
    assert "(grad f)_2: d_phi_f" in out
    assert "div u" in out and "laplacian f" in out


def test_derive_3vector_spherical(capsys):
    code, out, _ = run_cli(capsys, "derive", "--chart", "spherical",
                           "--form", "3vector")
    assert code == 0
    for name in ("faraday_1", "ampere_3", "gauss_D", "gauss_B"):
        assert name in out
    assert "sin(theta)" in out


def test_derive_latex_is_standalone(capsys):
    code, out, _ = run_cli(capsys, "derive", "--chart", "spherical",
                           "--form", "operators", "--format", "latex")
    assert code == 0
    assert out.startswith("\\documentclass")
    assert "\\begin{document}" in out and out.rstrip().endswith("\\end{document}")
    assert out.count("\\[") == out.count("\\]") > 0


def test_derive_4tensor_cartesian(capsys):
    code, out, _ = run_cli(capsys, "derive", "--chart", "cartesian",
                           "--form", "4tensor")
    assert code == 0
    assert "F_{ab}" in out and "*G^{ab}" in out


def test_derive_4tensor_rejected_for_curvilinear_chart(capsys):
    code, _, err = run_cli(capsys, "derive", "--chart", "spherical",
                           "--form", "4tensor")
    assert code == 2
    assert err.startswith("error:") and "constant-metric" in err


def test_derive_4tensor_rejected_for_non_orthogonal_chart(capsys, tmp_path):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = sheared\ncoords = u, v, z\nembedding = u + v, v, z\n")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p), "--form", "4tensor")
    assert code == 2 and out == ""
    assert err.startswith("error: --form 4tensor is unsupported") and err.count("\n") == 1


def test_derive_spinor_cartesian(capsys):
    code, out, _ = run_cli(capsys, "derive", "--chart", "cartesian",
                           "--form", "spinor")
    assert code == 0
    assert "phi_00" in out


def test_derive_chart_file(capsys, tmp_path):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = shifted\ncoords = a, b, c\n"
                 "embedding = a + 1, b, c\n")
    code, out, _ = run_cli(capsys, "derive", "--chart-file", str(p),
                           "--form", "operators")
    assert code == 0 and "chart shifted" in out


DATA = Path(__file__).parent / "data"

PINNED = [("--chart", "cylindrical", form) for form in ("operators", "3vector", "complex")]
PINNED += [("--chart", "spherical", form) for form in ("operators", "3vector", "complex")]
PINNED += [("--chart", "cartesian", "4tensor"),
           ("--chart-file", "parabolic.chart", "operators")]
PINNED = [pytest.param(*case, "text", id="-".join(case)) for case in PINNED]
PINNED += [pytest.param("--chart", "cartesian", "4tensor", "latex",
                        id="--chart-cartesian-4tensor-latex")]
# LaTeX pins whose equations hold sums, so the joining of terms is checked
PINNED += [pytest.param("--chart", "spherical", "3vector", "latex",
                        id="--chart-spherical-3vector-latex"),
           pytest.param("--chart-file", "parabolic.chart", "operators", "latex",
                        id="--chart-file-parabolic.chart-operators-latex")]


@pytest.mark.parametrize("source, chart, form, fmt", PINNED)
def test_derive_text_matches_pinned_output(capsys, source, chart, form, fmt):
    arg = str(DATA / chart) if source == "--chart-file" else chart
    code, out, _ = run_cli(capsys, "derive", source, arg, "--form", form,
                           "--format", fmt)
    assert code == 0
    stem = chart.split(".")[0]
    suffix = ".tex" if fmt == "latex" else ".txt"
    assert out == (DATA / f"derive_{stem}_{form}{suffix}").read_text(encoding="utf-8")


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write first


def test_derive_chart_file_with_a_byte_order_mark_derives_as_without(capsys, tmp_path):
    p = tmp_path / "parabolic.chart"
    p.write_bytes(BOM + (DATA / "parabolic.chart").read_bytes())
    want = run_cli(capsys, "derive", "--chart-file", str(DATA / "parabolic.chart"))
    assert want[0] == 0
    assert run_cli(capsys, "derive", "--chart-file", str(p)) == want


def test_derive_chart_file_zero_divisor_is_one_error_line(capsys, tmp_path):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = bad\ncoords = u, v, w\n"
                 "embedding = u/0, v, w\n")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid chart file: ")
    assert "division by zero" in err and err.count("\n") == 1


@pytest.mark.parametrize("embedding, domain, message", [
    ("u, u, z", "", "singular metric"),
    ("u^2/2, v, z", "domain = u:(-2.0,-0.1)\n", "sqrt|g| = u is not positive"),
    ("2^2000*u, v, z", "", "is not positive and finite"),
    # sqrt|g| = 1, but g_vv = 1 + 10^4400 has too many digits to print
    ("u + 10^2200*v, v, z", "", "constant of more than"),
])
def test_derive_chart_file_bad_metric_is_one_error_line(capsys, tmp_path,
                                                        embedding, domain, message):
    p = tmp_path / "chart.ini"
    p.write_text(f"[chart]\nname = bad\ncoords = u, v, z\nembedding = {embedding}\n"
                 + domain)
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot derive metric: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("coords, embedding, domain, message", [
    ("u, v, z", "u, v, z", "u:(0.1,abc)", "bad domain spec"),
    ("u, v, z", "u, v, z", "u:(0.1)", "bad domain spec"),
    ("u, v, z", "u*\u00b2, v, z", "", "unexpected character"),
    ("u, v, z", "u, v, z", "u:(0.1,inf)", "finite with min < max"),
    ("u, v, z", "u, v, z", "u:(nan,1)", "finite with min < max"),
    ("u, v, z", "u, v, z", "u:(2,0.1)", "finite with min < max"),
    ("u, v, z", "u, v, z", "q:(0.1,1)", "not a coordinate"),
    ("x, y", "x, y", "", "dimension must be 3, got 2"),
    ("u, v, z", "u + 2^3000000*v, v, z", "", "constant of more than"),
    # a constant outside a function's domain: undefined on the whole chart
    ("u, v, z", "u + log(0), v, z", "", "log of non-positive value in log(0) (line 4, column 17)"),
    ("u, v, z", "u, v*sqrt(-4), z", "", "sqrt of negative value in sqrt(-4)"),
    ("u, v, z", "u, v, arccos(u - u + 2)*z", "", "arccos argument outside [-1, 1]"),
], ids=["non-number", "one-bound", "non-ascii-digit", "infinite", "nan",
        "reversed", "not-a-coordinate", "two-coordinates", "huge-power",
        "log-zero", "sqrt-negative", "arccos-two"])
def test_derive_chart_file_bad_input_is_one_error_line(capsys, tmp_path, coords,
                                                       embedding, domain, message):
    p = tmp_path / "chart.ini"
    p.write_text(f"[chart]\nname = bad\ncoords = {coords}\nembedding = {embedding}\n"
                 + (f"domain = {domain}\n" if domain else ""), encoding="utf-8")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid chart file: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("embedding_line, message", [
    ("embedding = u + log(0), v, z", "log of non-positive value in log(0) (line 5, column 17)"),
    ("  embedding =  u,   v/0 , z", "division by zero (line 5, column 22)"),
    ("embedding = u, v, (z@", "unexpected character '@' (line 5, column 21)"),
], ids=["log-zero", "indented-second-part", "inside-parentheses"])
def test_derive_chart_file_parse_error_gives_file_position(capsys, tmp_path,
                                                           embedding_line, message):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = bad\n# the embedding is on line 5\ncoords = u, v, z\n"
                 f"{embedding_line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err == f"error: invalid chart file: {message}\n"


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="integer parsing is not limited")
def test_derive_chart_file_exponent_too_long_is_one_error_line(capsys, tmp_path):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = bad\ncoords = u, v, z\nembedding = u^" + "9" * 5000
                 + ", v, z\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == (f"error: invalid chart file: number of more than {limit} digits "
                   "(line 4, column 15)\n")


def test_derive_chart_file_not_utf8_is_one_error_line(capsys, tmp_path):
    p = tmp_path / "chart.ini"
    p.write_bytes(b"[chart]\nname = caf\xff\ncoords = u, v, z\nembedding = u, v, z\n")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read chart file: ") and "0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("form", ["3vector", "complex"])
@pytest.mark.parametrize("coord", ["t", "c", "rho", "D_3"])
def test_derive_equations_refuse_a_reserved_coordinate(capsys, tmp_path, form, coord):
    # coords u, v, t printed d_t_D_3 in Gauss's law, the time derivative of Ampere's
    p = tmp_path / "chart.ini"
    p.write_text(f"[chart]\nname = clash\ncoords = u, v, {coord}\n"
                 f"embedding = u, v, {coord}\n")
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p), "--form", form)
    assert code == 2 and out == ""
    assert err.startswith(f"error: coordinate '{coord}' of chart 'clash' is a name")
    assert err.count("\n") == 1
    code, out, _ = run_cli(capsys, "derive", "--chart-file", str(p), "--form", "operators")
    assert code == 0 and "chart clash" in out


@pytest.mark.parametrize("lines, message", [
    ("coords = u, v, z\nembedding = u, v, z\ndomian = u:(0.5,1.5)\n",
     "line 5: unknown key 'domian'"),
    ("coords = u, v, z\nembedding = u, v, z\ncoords = u, v, w\n",
     "line 5: 'coords' given twice"),
    ("coords = u, v, z\nembedding = u, v, z\ndomain = u:(0.1,1), u:(0.5,1.5)\n",
     "line 5: domain of 'u' given twice"),
    ("coords = 1x, v, z\nembedding = v, v, z\n", "line 3: coordinate '1x' is not a name"),
    ("coords = u, u, z\nembedding = u, u, z\n", "line 3: coordinate 'u' given twice"),
    # every evaluator reads pi as the constant: this printed d_pi_f
    ("coords = pi, v, z\nembedding = (pi^2 - v^2)/2, pi*v, z\n",
     "line 3: coordinate 'pi' would be read as the constant pi"),
], ids=["unknown-key", "key-twice", "domain-twice", "not-a-name", "coordinate-twice",
        "coordinate-pi"])
def test_derive_chart_file_refuses_what_it_used_to_drop(capsys, tmp_path, lines, message):
    p = tmp_path / "chart.ini"
    p.write_text("[chart]\nname = bad\n" + lines)
    code, out, err = run_cli(capsys, "derive", "--chart-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith(f"error: invalid chart file: {message}")
    assert err.count("\n") == 1


def test_derive_requires_exactly_one_chart_source(capsys):
    code, _, err = run_cli(capsys, "derive")
    assert code == 2 and err.startswith("error:")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_all_green_build(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--seed", "11")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_check_all_builds_each_chart_metric_once(capsys, monkeypatch):
    # the built-in metrics are kept for the process: two runs build each once
    import curvmax.chart
    from curvmax.chart import builtin_metric, metric_from_chart
    built = []

    def counted(chart):
        built.append(chart.name)
        return metric_from_chart(chart)

    monkeypatch.setattr(curvmax.chart, "metric_from_chart", counted)
    builtin_metric.cache_clear()
    for seed in ("7", "8"):
        code, _, _ = run_cli(capsys, "check", "--suite", "all", "--seed", seed)
        assert code == 0
    assert sorted(built) == ["cartesian", "cylindrical", "spherical"]


def _clear_check_caches():
    import curvmax.chart
    import curvmax.checks
    import curvmax.maxwell3
    for cached in (curvmax.chart.builtin_metric, curvmax.maxwell3._parse_golden,
                   curvmax.maxwell3._builtin_residuals, curvmax.maxwell3._field_atoms,
                   curvmax.maxwell3._orientations,
                   curvmax.checks._identity_trees, curvmax.checks._gradients):
        cached.cache_clear()


def test_curl_grad_zero_that_needs_expansion_passes(capsys, monkeypatch):
    import curvmax.checks
    from curvmax.symexpr import parse_expr
    real = curvmax.checks._identity_trees

    def trees(chart_name):
        curl_grad, div_curl = real(chart_name)
        # zero, but the builders do not distribute x*(y + 1)
        return (curl_grad[0], parse_expr("x*(y + 1) - x*y - x"), curl_grad[2]), div_curl
    monkeypatch.setattr(curvmax.checks, "_identity_trees", trees)
    code, out, _ = run_cli(capsys, "check", "--suite", "properties", "--seed", "0")
    assert code == 0 and "FAIL" not in out
    for chart in ("cartesian", "cylindrical", "spherical"):
        assert f"PASS curl(grad)=0 and div(curl)=0 on {chart}" in out


@pytest.mark.parametrize("suite", ["all", "paper", "properties"])
def test_check_output_is_the_same_with_the_caches_cold_or_warm(capsys, suite):
    for seed in range(10):
        _clear_check_caches()
        cold = run_cli(capsys, "check", "--suite", suite, "--seed", str(seed))
        warm = run_cli(capsys, "check", "--suite", suite, "--seed", str(seed))
        assert cold == warm and cold[0] == 0


def test_check_reads_an_edited_golden_file_in_the_same_process(capsys, tmp_path,
                                                               monkeypatch):
    data = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        (tmp_path / name).write_text(data.joinpath(name).read_text())
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "check", "--seed", "3")
    assert code == 0 and "FAIL" not in out
    path = tmp_path / "golden_cylindrical.txt"
    path.write_text(path.read_text().replace("faraday_1 = ", "faraday_1 = 1 + ", 1))
    code, out, _ = run_cli(capsys, "check", "--seed", "3")
    assert code == 1
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
        "FAIL golden cylindrical faraday_1"]


def _golden_copy(directory, edit_cylindrical):
    data = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        raw = data.joinpath(name).read_bytes()
        (directory / name).write_bytes(edit_cylindrical(raw) if "cyl" in name else raw)


@pytest.mark.parametrize("edit, message", [
    (None, "No such file or directory"),
    (lambda raw: raw.replace(raw[raw.index(b"faraday_1 ="):raw.index(b"\nfaraday_2")],
                             b"faraday_1 = (x +"),
     "unexpected 'eof' (line 3, column 17)"),
    (lambda raw: raw.replace(b"faraday_2 = ", b"faraday_2 = \xff"), "can't decode byte 0xff"),
], ids=["missing", "truncated", "not-utf8"])
def test_check_golden_file_fault_is_one_error_line(capsys, tmp_path, monkeypatch,
                                                   edit, message):
    if edit is not None:
        _golden_copy(tmp_path, edit)
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "check", "--suite", "paper", "--seed", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "golden_cylindrical.txt") in err and message in err


def test_check_error_inside_a_check_is_not_a_usage_error(capsys, monkeypatch):
    import curvmax.checks
    from curvmax.symexpr import IllConditionedError

    def ill_conditioned(*args, **kwargs):
        raise IllConditionedError("no well-conditioned sample")
    monkeypatch.setattr(curvmax.checks, "golden_check", ill_conditioned)
    with pytest.raises(IllConditionedError):
        main(["check", "--suite", "paper", "--seed", "3"])


@pytest.mark.parametrize("use_env", [False, True])
def test_check_negative_seed_is_one_error_line(capsys, monkeypatch, use_env):
    if use_env:
        monkeypatch.setenv("CURVMAX_SEED", "-1")
    code, out, err = run_cli(capsys, "check", "--suite", "properties",
                             *(() if use_env else ("--seed", "-1")))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--seed" in err and err.count("\n") == 1


def test_check_deterministic_given_seed(capsys):
    _, out1, _ = run_cli(capsys, "check", "--suite", "properties", "--seed", "3")
    _, out2, _ = run_cli(capsys, "check", "--suite", "properties", "--seed", "3")
    assert out1 == out2


def test_corrupted_golden_flips_exit_and_names_equation(capsys, tmp_path,
                                                        monkeypatch):
    data = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        text = data.joinpath(name).read_text()
        if "spherical" in name:
            text = text.replace("D_1", "D_2", 1)
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "check", "--suite", "paper", "--seed", "11")
    assert code == 1
    failing = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failing and all("spherical" in ln for ln in failing)
    # the report names the specific equation(s)
    assert any(any(eq in ln for eq in ("gauss_D", "ampere", "faraday"))
               for ln in failing)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_outputs(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, _ = run_cli(capsys, "simulate", "--chart", "cartesian",
                           "--grid", "8x8x8", "--steps", "10",
                           "--dump-every", "5", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "diagnostics.csv" in names
    assert "snapshot_000005.csv" in names and "snapshot_000010.csv" in names
    diag = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "step,t,energy,div_D_minus_4pi_rho,div_B,max_abs"
    assert len(diag) == 1 + 11  # initial state + 10 steps


def test_simulate_diagnostics_match_pinned_output(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--chart", "cartesian",
                         "--grid", "8x8x8", "--steps", "20", "--out", str(out_dir))
    assert code == 0
    want = (DATA / "simulate_cartesian_8_diagnostics.csv").read_bytes()
    assert (out_dir / "diagnostics.csv").read_bytes() == want


def test_simulate_spherical_shell_diagnostics_match_pinned_output(capsys, tmp_path):
    # PEC walls in r and theta, periodic in phi
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--chart", "spherical", "--grid", "8x8x8",
                         "--extent", "1:0.5:1.5", "--extent", "2:0.3:2.84",
                         "--extent", "3:0:6.283185307179586", "--bc", "pec,pec,periodic",
                         "--initial", "azimuthal_mode", "--steps", "20", "--out", str(out_dir))
    assert code == 0
    want = (DATA / "simulate_spherical_8_diagnostics.csv").read_bytes()
    assert (out_dir / "diagnostics.csv").read_bytes() == want


@pytest.mark.parametrize("args, pinned", [
    (("--chart", "spherical", "--grid", "6x5x4", "--extent", "1:0.5:1.5",
      "--extent", "2:0.3:2.84", "--extent", "3:0:6.283185307179586",
      "--bc", "pec,pec,periodic", "--initial", "azimuthal_mode"),
     "simulate_spherical_azimuthal_snapshot.csv"),
    (("--chart", "cartesian", "--grid", "5x4x3", "--initial", "plane_wave"),
     "simulate_cartesian_plane_wave_snapshot.csv"),
    (("--chart", "cylindrical", "--grid", "6x5x4", "--extent", "1:0.5:1.5",
      "--extent", "2:0:6.283185307179586", "--bc", "pec,periodic,pec",
      "--initial", "azimuthal_mode"),
     "simulate_cylindrical_azimuthal_snapshot.csv"),
])
def test_simulate_csv_snapshot_matches_pinned_output(capsys, tmp_path, args, pinned):
    # the first snapshot of a 4-step run dumped every 2 steps
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", *args, "--steps", "4", "--dump-every", "2",
                         "--out", str(out_dir))
    assert code == 0
    want = (DATA / pinned).read_bytes()
    assert (out_dir / "snapshot_000002.csv").read_bytes() == want


def test_simulate_binary_snapshot(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--grid", "8x8x8", "--steps", "2",
                         "--out", str(out_dir), "--snapshot-format", "binary")
    assert code == 0
    raw = (out_dir / "snapshot_000002.cvmx").read_bytes()
    assert raw[:4] == b"CVMX"


def _snapshot_e(path, shape):
    raw = np.frombuffer(path.read_bytes(), dtype="<f8", offset=64)
    comps = raw.reshape(12, *shape)  # sorted names: B_1..3, D_1..3, E_1..3, H_1..3
    return comps[6:9]


def test_simulate_bc_per_axis(capsys, tmp_path):
    from curvmax import solver as sv
    extents = ((0.5, 1.5), (0.0, 6.283185307179586), (0.0, 1.0))
    got = {}
    for bc in ("pec,periodic,pec", "pec"):
        out_dir = tmp_path / bc.replace(",", "-")
        code, _, _ = run_cli(capsys, "simulate", "--chart", "cylindrical",
                             "--grid", "8x8x4", "--steps", "3",
                             "--extent", "1:0.5:1.5", "--extent", "2:0:6.283185307179586",
                             "--initial", "azimuthal_mode", "--bc", bc,
                             "--snapshot-format", "binary", "--out", str(out_dir))
        assert code == 0
        got[bc] = _snapshot_e(out_dir / "snapshot_000003.cvmx", (8, 8, 4))
    spec = sv.GridSpec("cylindrical", extents, (8, 8, 4), bc=("pec", "periodic", "pec"))
    want = sv.run(sv.init_grid(spec, "azimuthal_mode"), spec, 3).e
    assert np.array_equal(got["pec,periodic,pec"], want)
    assert not np.array_equal(got["pec"], want)


@pytest.mark.parametrize("bc", ["pec,periodic", "pec,periodic,pec,pec", "wall",
                                "pec,,pec", "PEC"])
def test_simulate_bad_bc_is_one_error_line(capsys, tmp_path, bc):
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", "--grid", "4x4x4", "--steps", "1",
                             "--bc", bc, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("error: --bc") and err.count("\n") == 1
    assert not out_dir.exists()


def test_simulate_bad_grid_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--grid", "8x8",
                           "--steps", "1", "--out", str(tmp_path / "x"))
    assert code == 2 and err.startswith("error:")


def test_simulate_singular_extent_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--chart", "cylindrical",
                           "--grid", "4x4x4", "--steps", "1",
                           "--out", str(tmp_path / "x"))
    assert code == 2 and err.startswith("error:")


def test_simulate_grid_too_large_to_address_is_one_error_line(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", "--grid", "2x2x4611686018427387904",
                             "--steps", "1", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("error: grid too large") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("stage", ["init_grid", "run"])
def test_simulate_out_of_memory_is_one_error_line(capsys, tmp_path, monkeypatch, stage):
    from curvmax import solver as sv

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.00 TiB for an array")

    monkeypatch.setattr(sv, stage, no_memory)
    code, out, err = run_cli(capsys, "simulate", "--grid", "4x4x4", "--steps", "1",
                             "--out", str(tmp_path / "sim"))
    assert code == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 6.00 TiB for an array\n"


def test_simulate_out_naming_a_file_is_one_error_line(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    code, out, err = run_cli(capsys, "simulate", "--grid", "2x2x2", "--steps", "1",
                             "--out", str(afile))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot create --out directory: ") and err.count("\n") == 1
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("blocked", ["diagnostics.csv", "snapshot_000001.csv"])
def test_simulate_unwritable_output_is_one_error_line(capsys, tmp_path, blocked):
    out_dir = tmp_path / "sim"
    (out_dir / blocked).mkdir(parents=True)  # a directory where a file must go
    code, out, err = run_cli(capsys, "simulate", "--grid", "2x2x2", "--steps", "1",
                             "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write output: ") and blocked in err
    assert err.count("\n") == 1


def test_simulate_extent_sets_the_snapshot_coordinates(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(capsys, "simulate", "--grid", "4x4x4", "--steps", "1",
                         "--extent", "1:0:2", "--extent", "3:-1:1",
                         "--out", str(out_dir))
    assert code == 0
    rows = np.loadtxt(out_dir / "snapshot_000001.csv", delimiter=",", skiprows=1)
    assert sorted(set(rows[:, 0])) == [0.25, 0.75, 1.25, 1.75]
    assert sorted(set(rows[:, 1])) == [0.125, 0.375, 0.625, 0.875]
    assert sorted(set(rows[:, 2])) == [-0.75, -0.25, 0.25, 0.75]


def test_simulate_infinite_extent_is_one_error_line(capsys, tmp_path):
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", "--grid", "4x4x4", "--steps", "1",
                             "--extent", "1:0:inf", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

HEADER = "E_1,E_2,E_3,B_1,B_2,B_3,D_1,D_2,D_3,H_1,H_2,H_3"


def test_transform_zero_row_gives_zero_row(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text(HEADER + "\n" + ",".join(["0"] * 12) + "\n")
    code, out, _ = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 0
    assert set(out.splitlines()[1].split(",")) == {"0"}


def test_transform_spinor_matches_library(capsys, tmp_path):
    from curvmax.maxwell4 import phi_from_EB
    p = tmp_path / "in.csv"
    p.write_text("1,0,0,0,0,1,0,0,0,0,0,0\n")
    code, out, _ = run_cli(capsys, "transform", "--target", "spinor", str(p))
    assert code == 0
    vals = [float(v) for v in out.splitlines()[1].split(",")]
    phi = phi_from_EB((1, 0, 0), (0, 0, 1)).phi
    assert vals[0] + 1j * vals[1] == pytest.approx(phi[0, 0])
    assert vals[2] + 1j * vals[3] == pytest.approx(phi[0, 1])
    assert vals[4] + 1j * vals[5] == pytest.approx(phi[1, 1])


def test_transform_nonholonomic_scales_by_lame(capsys, tmp_path):
    p = tmp_path / "in.csv"
    # point (r=2, phi=0.5, z=1); only B^phi = 3 set
    p.write_text("2,0.5,1,0,0,0,0,3,0,0,0,0,0,0,0\n")
    code, out, _ = run_cli(capsys, "transform", "--target", "nonholonomic",
                           "--chart", "cylindrical", str(p))
    assert code == 0
    row = dict(zip(out.splitlines()[0].split(","),
                   out.splitlines()[1].split(",")))
    assert float(row["B_2p"]) == pytest.approx(6.0)  # f^{phi'} = r f^phi


def test_transform_pairs4_packing(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("1,2,3,4,5,6,0,0,0,0,0,0\n")
    code, out, _ = run_cli(capsys, "transform", "--target", "pairs4", str(p))
    assert code == 0
    header = out.splitlines()[0].split(",")
    vals = dict(zip(header, map(float, out.splitlines()[1].split(","))))
    assert (vals["F_01"], vals["F_02"], vals["F_03"]) == (1.0, 2.0, 3.0)
    assert (vals["F_23"], vals["F_31"], vals["F_12"]) == (4.0, 5.0, 6.0)


def test_transform_malformed_row_reports_line_number(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text(HEADER + "\n" + ",".join(["0"] * 12) + "\n1,2,nope\n")
    code, out, err = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 2
    assert err.startswith("error: line 3")
    assert out == ""  # no header and no partial rows before the error


@pytest.mark.parametrize("target, chart, row, message", [
    ("complex", "cartesian", "nan" + ",0" * 11, "values must be finite"),
    ("spinor", "cartesian", "0," * 11 + "1e400", "values must be finite"),
    ("nonholonomic", "spherical", "0,0.5,1" + ",1" * 12, "Lame coefficient is not positive"),
    ("nonholonomic", "cylindrical", "1e-320,0.5,1" + ",1" * 12, "overflow"),
])
def test_transform_non_finite_row_is_one_error_line(capsys, tmp_path, target, chart,
                                                    row, message):
    p = tmp_path / "in.csv"
    p.write_text(row + "\n")
    code, out, err = run_cli(capsys, "transform", "--target", target, "--chart", chart,
                             str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: ") and message in err and err.count("\n") == 1


def test_transform_not_utf8_is_one_error_line(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_bytes((HEADER + "\n" + ",".join(["0"] * 12) + "\n").encode() + b"1,2,\xff\n")
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "transform", "--target", "complex", str(p),
                             "--out", str(out_csv))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ") and "0xff" in err and err.count("\n") == 1
    assert not out_csv.exists()  # no partial CSV


def test_transform_reads_cr_and_crlf_line_ends(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_bytes(b"0,0,0,0,0,0,0,0,0,0,0,0\r" + b"1,0,0,0,0,0,0,0,0,0,0,0\r\n")
    code, out, _ = run_cli(capsys, "transform", "--target", "pairs4", str(p))
    assert code == 0 and len(out.splitlines()) == 3


def test_transform_header_may_follow_comment_and_blank_lines(capsys, tmp_path):
    rows = HEADER + "\n" + "1,0,0,0,1,0,2,0,0,0,2,0\n"
    plain, led = tmp_path / "plain.csv", tmp_path / "led.csv"
    plain.write_text(rows)
    led.write_text("# fields\n\n" + rows)
    want = run_cli(capsys, "transform", "--target", "spinor", str(plain))
    assert want[0] == 0
    assert run_cli(capsys, "transform", "--target", "spinor", str(led)) == want


@pytest.mark.parametrize("header", ["", HEADER + "\n"], ids=["headerless", "header"])
def test_transform_drops_a_leading_byte_order_mark(capsys, tmp_path, header):
    rows = header + "1,0,0,0,1,0,2,0,0,0,2,0\n" + "0,1,0,0,0,1,0,2,0,0,0,2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(rows.encode())
    marked.write_bytes(BOM + rows.encode())
    want = run_cli(capsys, "transform", "--target", "spinor", str(plain))
    assert want[0] == 0 and len(want[1].splitlines()) == 3  # a header and both rows
    assert run_cli(capsys, "transform", "--target", "spinor", str(marked)) == want


def test_transform_header_after_a_data_row_is_an_error(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("# fields\n" + ",".join(["0"] * 12) + "\n" + HEADER + "\n")
    code, out, err = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


def test_transform_empty_input_rejected(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("\n")
    code, out, err = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 2 and err.startswith("error:") and out == ""


# ---------------------------------------------------------------------------
# fuzz: bad input of any kind ends in one error line
# ---------------------------------------------------------------------------

def _ends_cleanly(code, err):
    """Exit 0, 1 or 2, and exactly one ``error:`` line whenever it is not 0.
    A traceback never gets here: ``main`` re-raises it and the test fails."""
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1, err


_FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

# Each pool is mostly valid pieces with a few malformed ones, so that most
# examples get past the first check and reach the deeper ones.
_leaf = st.sampled_from(["u", "v", "z", "u", "v", "u", "1", "2", "0.5", ".5", "3.",
                         "10^400", "10^2200", "2^3000000", "pi", "q", "\u00b2", "@",
                         "", "log(0)", "sqrt(-1)"])
_expr = st.recursive(_leaf, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from("+-*/"), sub).map("".join),
    st.tuples(st.sampled_from(FUNCTIONS + ("sinh",)), sub).map(lambda t: f"{t[0]}({t[1]})"),
    st.tuples(sub, st.sampled_from(["2", "-1", "3", "-2", "0", "2", "0.5", ""]))
    .map(lambda t: f"({t[0]})^{t[1]}"),
), max_leaves=4)
_bound = st.sampled_from(["0.1", "0.5", "1", "2", "0.2", "-1", "abc", "inf", "nan", ""])
_domain_part = st.tuples(st.sampled_from(["u", "v", "z", "u", "q", ""]), _bound, _bound,
                         st.sampled_from(["({},{})"] * 5 + ["{},{}", "({})", "({},{},1)"]))


@st.composite
def _chart_files(draw):
    coords = draw(st.sampled_from(["u, v, z"] * 6 + ["u, v", "u, v, z, q", "u, u, z",
                                                     "u, , z"]))
    embedding = draw(st.lists(_expr, min_size=3, max_size=3))
    embedding[0] = draw(st.sampled_from(["u+{}", "u*({})", "{}"])).format(embedding[0])
    embedding[1:] = draw(st.sampled_from([["v", "z"]] * 3 + [embedding[1:], ["v"]]))
    domain = ", ".join(f"{name}:" + shape.format(lo, hi)
                       for name, lo, hi, shape in draw(st.lists(_domain_part, max_size=3)))
    lines = ["name = fuzz", f"coords = {coords}", f"embedding = {', '.join(embedding)}"]
    lines += [f"domain = {domain}"] if domain else []
    lines = draw(st.sampled_from([lines] * 10 + [lines[1:], lines[:2], lines + ["junk"],
                                                lines + ["[other]"], lines + ["[chart]"]]))
    return "[chart]\n" + "\n".join(lines) + "\n"


@_FUZZ
@given(_chart_files(), st.sampled_from(["text", "latex"]),
       st.sampled_from(["operators", "3vector", "complex", "4tensor", "spinor"]))
def test_fuzz_derive_chart_file(capsys, text, fmt, form):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "fuzz.chart"
        p.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "derive", "--chart-file", str(p), "--format", fmt,
                               "--form", form)
    _ends_cleanly(code, err)


# 4611686018427387904 = 2^62 cells on one axis: too large to address
_cells = st.sampled_from(["2", "3", "4"] * 4 + ["1", "0", "x", "4611686018427387904"])
_extent_value = st.sampled_from(["0", "0.5", "1", "2", "3", "0.25", "-1", "inf", "nan",
                                 "abc", "1e308", "1e150", "1e-200", ""])


@_FUZZ
@given(st.tuples(_cells, _cells, _cells).map("x".join),
       st.lists(st.one_of(
           st.sampled_from(["1:0.5:1.5", "2:0.3:2.8", "3:0:6.28"]),
           st.tuples(st.sampled_from(["1", "2", "3"] * 3 + ["0", "a"]),
                     _extent_value, _extent_value,
                     st.sampled_from(["{}:{}:{}"] * 6 + ["{}:{}", "{}:{}:{}:1"]))
           .map(lambda t: t[3].format(*t[:3]))), max_size=3),
       st.sampled_from(["pec", "periodic", "pec,periodic,pec", "periodic,pec,periodic",
                        "pec,pec,periodic", "PEC", "pec,pec", "x", ""]),
       st.sampled_from(["cartesian", "cylindrical", "spherical"] * 2 + ["toroidal"]),
       st.sampled_from(["zero", "plane_wave", "azimuthal_mode"]))
def test_fuzz_simulate_grid_extent_bc(capsys, grid, extents, bc, chart, initial):
    args = ["simulate", "--chart", chart, "--grid", grid, "--bc", bc,
            "--initial", initial, "--steps", "1"]
    for e in extents:
        args += ["--extent", e]
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run_cli(capsys, *args, "--out", str(Path(tmp) / "sim"))
    _ends_cleanly(code, err)


_csv_number = st.sampled_from(["0", "1", "-2.5", "0.5", "3", "1e300", "1e-300"])
_csv_bad = st.sampled_from([None] * 4 + ["1e400", "nan", "inf", "abc", "", "E_1"])


@_FUZZ
@given(st.sampled_from(["pairs4", "complex", "spinor", "nonholonomic"]),
       st.sampled_from(["cartesian", "cylindrical", "spherical"] * 2 + ["toroidal"]),
       st.booleans(),
       st.lists(st.tuples(st.lists(_csv_number, min_size=16, max_size=16),
                          st.sampled_from([0, 0, 0, 0, -1, 1]),
                          st.integers(0, 15), _csv_bad), min_size=1, max_size=3))
def test_fuzz_transform_rows(capsys, target, chart, header, rows):
    # each row has the target's column count plus 0, -1 or 1, and at most
    # one cell that is not a finite number
    ncols = 15 if target == "nonholonomic" else 12
    lines = [HEADER] * header
    for cells, extra, at, bad in rows:
        if bad is not None:
            cells[at] = bad
        lines.append(",".join(cells[:ncols + extra]))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "in.csv"
        p.write_text("".join(r + "\n" for r in lines), encoding="utf-8")
        code, out, err = run_cli(capsys, "transform", "--target", target,
                                 "--chart", chart, str(p))
    _ends_cleanly(code, err)
    assert out == "" or code == 0  # a failed conversion writes no partial CSV


# ---------------------------------------------------------------------------
# start-up: each command runs only the modules it uses
# ---------------------------------------------------------------------------

_NOT_FOR_DERIVE = {"numpy", "curvmax.solver", "curvmax.maxwell4", "curvmax.checks",
                   "curvmax.rs_momentum"}
_CORE = {"curvmax", "curvmax.chart", "curvmax.symexpr"}


def _after(code):
    """(registered, run) after a fresh process runs ``code``: the curvmax
    modules and numpy in its ``sys.modules``, and those of them whose code
    has run (a lazy module, ``importlib.util._LazyModule``, has not)."""
    import curvmax
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvmax.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + (
        "\nimport json, sys, types\n"
        "ours = {n: m for n, m in sys.modules.items() if n == 'numpy' or n.split('.')[0] == 'curvmax'}\n"
        "print(json.dumps([sorted(ours), sorted(n for n, m in ours.items() "
        "if type(m) is types.ModuleType)]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, run = json.loads(proc.stdout.splitlines()[-1])
    return set(registered), set(run)


def test_import_curvmax_runs_only_the_symbolic_core():
    import curvmax
    package = Path(curvmax.__file__).parent
    every = {"curvmax"} | {f"curvmax.{p.stem}" for p in package.glob("*.py")
                           if p.stem != "__init__"}
    assert _after("import curvmax") == (_CORE, _CORE)
    # the CLI registers every submodule, and runs only what it imports
    assert _after("import curvmax.cli") == (every, _CORE | {"curvmax.diffops", "curvmax.cli"})
    assert "curvmax.maxwell3" in _after("from curvmax import golden_check")[1]
    registered, run = _after("import curvmax.cli\nfrom curvmax import solver\nsolver.GridSpec")
    assert {"curvmax.solver", "numpy"} <= run and "curvmax.checks" not in run


@pytest.mark.parametrize("source", ["cartesian", "cylindrical", "spherical",
                                    "parabolic.chart"])
def test_derive_runs_no_numpy_solver_or_checks(source):
    # a module that has run stays run, so those run after the last form
    # include those run after each; parabolic's spinor form exits 2
    chart = (["--chart-file", str(DATA / source)] if source.endswith(".chart")
             else ["--chart", source])
    runs = [["derive", *chart, "--form", form, "--format", fmt]
            for form in ("operators", "3vector", "complex", "spinor")
            for fmt in ("text", "latex")]
    registered, run = _after(
        "import contextlib, io\nfrom curvmax.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n            main(argv)\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code in (None, 0, 2), (argv, exc.code)")
    assert "numpy" not in registered and not run & _NOT_FOR_DERIVE
    assert "curvmax.maxwell3" in run  # the 3vector and complex forms


def test_cli_choice_literals_match_the_tables_they_name():
    from curvmax import checks, solver
    from curvmax.cli import check, simulate
    suite, = (p for p in check.params if p.name == "suite")
    initial, = (p for p in simulate.params if p.name == "initial")
    assert tuple(suite.type.choices) == tuple(checks.SUITES)
    assert tuple(initial.type.choices) == tuple(solver.INITIAL_CONDITIONS)
