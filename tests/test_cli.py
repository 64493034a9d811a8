"""Command-line interface: exit codes, formats, and error reporting."""

import importlib.resources as ir
from pathlib import Path

import numpy as np
import pytest

from curvmax.cli import main


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


@pytest.mark.parametrize("source, chart, form, fmt", PINNED)
def test_derive_text_matches_pinned_output(capsys, source, chart, form, fmt):
    arg = str(DATA / chart) if source == "--chart-file" else chart
    code, out, _ = run_cli(capsys, "derive", source, arg, "--form", form,
                           "--format", fmt)
    assert code == 0
    stem = chart.split(".")[0]
    suffix = ".tex" if fmt == "latex" else ".txt"
    assert out == (DATA / f"derive_{stem}_{form}{suffix}").read_text(encoding="utf-8")


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
    code, _, err = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 2
    assert err.startswith("error: line 3")


def test_transform_empty_input_rejected(capsys, tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("\n")
    code, _, err = run_cli(capsys, "transform", "--target", "complex", str(p))
    assert code == 2 and err.startswith("error:")
