"""Three-vector covariant equation assembly and stored-form verification."""

import math

import numpy as np
import pytest

from curvmax import symexpr as sx
from curvmax.chart import Chart, builtin_chart, metric_from_chart
from curvmax.diffops import DiffOpsError
from curvmax.maxwell3 import (RESIDUAL_NAMES, assemble_residuals, golden_check,
                              golden_equations, symbolic_fields, symbolic_sources)
from curvmax.symexpr import eval_expr, diff, equivalent


@pytest.mark.parametrize("chart_name", ("cylindrical", "spherical"))
def test_golden_equations(chart_name):
    report = golden_check(chart_name, seed=17)
    assert report.passed, "\n".join(report.lines())
    assert set(report.results) == set(RESIDUAL_NAMES)
    # the stored Ampere forms carry the opposite time-derivative sign, and
    # only they pass by the flip
    assert {name for name, flag in report.sign_flag.items() if flag} == {
        "ampere_1", "ampere_2", "ampere_3"}


def test_golden_is_deterministic_given_seed():
    a = golden_check("cylindrical", seed=5)
    b = golden_check("cylindrical", seed=5)
    assert a.results == b.results and a.sign_flag == b.sign_flag


def test_two_golden_checks_agree_and_build_one_metric(monkeypatch):
    import curvmax.chart
    import curvmax.maxwell3
    built = []

    def counted(chart):
        built.append(chart.name)
        return metric_from_chart(chart)

    monkeypatch.setattr(curvmax.chart, "metric_from_chart", counted)
    curvmax.chart.builtin_metric.cache_clear()
    curvmax.maxwell3._builtin_residuals.cache_clear()
    a = golden_check("spherical", seed=5)
    b = golden_check("spherical", seed=5)
    assert a == b and a.passed
    assert built == ["spherical"]


def test_a_changed_golden_dict_does_not_reach_the_next_check():
    eqs = golden_equations("cylindrical")
    assert eqs is not golden_equations("cylindrical")
    eqs["faraday_1"] = sx.ZERO
    del eqs["gauss_B"]
    report = golden_check("cylindrical", seed=5)
    assert report.passed and set(report.results) == set(RESIDUAL_NAMES)
    assert set(golden_equations("cylindrical")) == set(RESIDUAL_NAMES)


def test_golden_files_cover_all_equations():
    for chart_name in ("cylindrical", "spherical"):
        eqs = golden_equations(chart_name)
        assert set(eqs) == set(RESIDUAL_NAMES)


def test_cartesian_assembly_is_textbook_form():
    chart = builtin_chart("cartesian")
    m = metric_from_chart(chart)
    fields = symbolic_fields(chart)
    res = assemble_residuals(fields, symbolic_sources(chart), m)
    # faraday_1 for sqrt(g)=1: dE3/dy - dE2/dz + (1/c) dB1/dt
    expected = (diff(fields.E[2], "y") - diff(fields.E[1], "z")
                + sx.pow_(sx.Var("c"), -1) * diff(fields.B[0], "t"))
    assert equivalent(res.faraday[0], expected, seed=8)
    assert equivalent(res.gauss_B,
                      sx.add(*(diff(fields.B[i], c)
                               for i, c in enumerate(("x", "y", "z")))), seed=8)


def _plane_wave_binding(chart, t, point):
    """Cartesian vacuum plane wave values bound to the symbolic field atoms."""
    x3 = point["z"]
    ph = x3 - t
    binding = {"t": t, "c": 1.0, "pi": math.pi, "rho": 0.0, **point}
    values = {"E": (0.0, math.cos(ph), 0.0), "B": (-math.cos(ph), 0.0, 0.0)}
    values["D"], values["H"] = values["E"], values["B"]
    values["j"] = (0.0, 0.0, 0.0)
    for base, comps in values.items():
        for i in range(3):
            binding[f"{base}_{i + 1}"] = comps[i]
            for v in ("t", "x", "y", "z"):
                binding[f"d_{v}_{base}_{i + 1}"] = 0.0
    # nonzero first derivatives of the wave profile
    s = math.sin(ph)
    binding.update({"d_t_E_2": s, "d_z_E_2": -s, "d_t_B_1": -s, "d_z_B_1": s,
                    "d_t_D_2": s, "d_z_D_2": -s, "d_t_H_1": -s, "d_z_H_1": s,
                    "d_t_rho": 0.0})
    return binding


def test_vacuum_plane_wave_satisfies_residuals():
    chart = builtin_chart("cartesian")
    m = metric_from_chart(chart)
    res = assemble_residuals(symbolic_fields(chart), symbolic_sources(chart), m)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = float(rng.uniform(0, 2))
        point = {c: float(rng.uniform(-1, 1)) for c in ("x", "y", "z")}
        binding = _plane_wave_binding(chart, t, point)
        vals = [eval_expr(e, binding) for e in res.named().values()]
        assert max(abs(v) for v in vals) < 1e-12


def test_residuals_are_linear_in_fields():
    chart = builtin_chart("cylindrical")
    m = metric_from_chart(chart)
    res = assemble_residuals(symbolic_fields(chart), symbolic_sources(chart), m)
    rng = np.random.default_rng(12)
    names = [f"{b}_{i}" for b in ("E", "H", "D", "B", "j") for i in (1, 2, 3)]
    atoms = names + ["rho"] + [f"d_{v}_{n}" for v in ("t", "r", "phi", "z")
                               for n in names]
    base = {"t": 0.3, "r": 1.4, "phi": 0.8, "z": -0.2, "c": 1.0, "pi": math.pi}
    b1 = {**base, **{a: float(rng.normal()) for a in atoms}}
    b2 = {**base, **{a: float(rng.normal()) for a in atoms}}
    bsum = {**base, **{a: b1[a] + b2[a] for a in atoms}}
    v1, v2, vs = (np.array([eval_expr(e, b) for e in res.named().values()])
                  for b in (b1, b2, bsum))
    assert np.allclose(vs, v1 + v2, atol=1e-12)


def test_charge_continuity_follows_from_ampere_and_gauss():
    """div(ampere residual) + (1/c) d_t(gauss_D residual) has no field terms.

    For the assembled residuals this combination collapses to the continuity
    expression -(4 pi / c)(div j + d rho / dt), independent of E, D, H, B.
    """
    chart = builtin_chart("cylindrical")
    m = metric_from_chart(chart)
    res = assemble_residuals(symbolic_fields(chart), symbolic_sources(chart), m)
    from curvmax.chart import ComponentVector
    from curvmax.diffops import div as div_op
    amp = ComponentVector(res.ampere, "contravariant", "holonomic")
    combo = sx.simplify(div_op(amp, m)
                        + sx.pow_(sx.Var("c"), -1) * diff(res.gauss_D, "t"))
    src = symbolic_sources(chart)
    inv_c = sx.pow_(sx.Var("c"), -1)
    expected = sx.simplify(
        sx.Const(-4) * sx.Var("pi") * inv_c
        * (div_op(src.j, m) + diff(src.rho, "t")))
    assert equivalent(combo, expected, chart.domains(), seed=21)


def test_corrupted_golden_detected(tmp_path, monkeypatch):
    import importlib.resources as ir
    src = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        text = src.joinpath(name).read_text()
        if "cylindrical" in name:
            text = text.replace("E_2", "E_3")
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))
    report = golden_check("cylindrical", seed=17)
    assert not report.passed
    failing = [n for n, ok in report.results.items() if not ok]
    assert failing, "corruption must name at least one failing equation"


RESERVED = ["t", "c", "rho", "E_1", "H_2", "D_3", "B_1", "j_2", "d_t_D_3", "d_u_rho"]


@pytest.mark.parametrize("name", RESERVED)
def test_a_coordinate_may_not_take_a_name_the_equations_use(name):
    # a coordinate t made d_t_D_3 both the spatial and the time derivative
    u, v = sx.Var("u"), sx.Var("v")
    chart = Chart("clash", ("u", "v", name), (u, v, sx.Var(name)))
    for build in (symbolic_fields, symbolic_sources):
        with pytest.raises(DiffOpsError, match=f"coordinate '{name}' of chart 'clash'"):
            build(chart)


@pytest.mark.parametrize("name", ["tt", "cc", "rho2", "E_4", "E1", "j_12", "phi", "d_t"])
def test_names_near_the_reserved_ones_are_coordinates(name):
    u, v = sx.Var("u"), sx.Var("v")
    chart = Chart("near", ("u", "v", name), (u, v, sx.Var(name)))
    res = assemble_residuals(symbolic_fields(chart), symbolic_sources(chart),
                             metric_from_chart(chart))
    assert len(res.named()) == 8


@pytest.mark.parametrize("chart_name", ("cylindrical", "spherical"))
def test_stock_golden_equations_are_proven_exactly(chart_name):
    import curvmax.maxwell3 as m3
    golden = golden_equations(chart_name)
    report = golden_check(chart_name, seed=3)
    assert report.exact == dict.fromkeys(RESIDUAL_NAMES, True)
    for name in RESIDUAL_NAMES:
        targets, proven = m3._orientations(chart_name, name, golden[name])
        # the Ampere forms hold only under the time-derivative sign flip
        assert proven == (1 if name.startswith("ampere") else 0)
        assert len(targets) == (2 if name.startswith("ampere") else 1)
        residual = m3._builtin_residuals(chart_name).named()[name]
        assert sx.is_zero(residual - targets[0]) is not name.startswith("ampere")


def test_a_warm_golden_check_samples_nothing(monkeypatch):
    import curvmax.maxwell3 as m3
    for chart_name in ("cylindrical", "spherical"):
        golden_check(chart_name, seed=1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return equivalent(*args, **kwargs)

    monkeypatch.setattr(m3, "equivalent", counted)
    for chart_name in ("cylindrical", "spherical"):
        assert golden_check(chart_name, seed=2).passed
    assert calls == []


def _edited_golden(tmp_path, monkeypatch, old, new):
    import importlib.resources as ir
    data = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        text = data.joinpath(name).read_text()
        if "cylindrical" in name:
            assert old in text
            text = text.replace(old, new, 1)
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))


def test_an_equation_expansion_cannot_prove_is_sampled(tmp_path, monkeypatch):
    # true, but only over the common denominator r + 1, which expansion
    # never forms: sampling passes it
    _edited_golden(tmp_path, monkeypatch, "faraday_1 = ",
                   "faraday_1 = (r^2 - 1)/(r + 1) - r + 1 + ")
    report = golden_check("cylindrical", seed=4)
    assert report.passed and not report.sign_flag["faraday_1"]
    assert {n for n, ok in report.exact.items() if not ok} == {"faraday_1"}


def test_a_sign_error_is_neither_proven_nor_sampled_true(tmp_path, monkeypatch):
    _edited_golden(tmp_path, monkeypatch, "+ 1/c*d_t_B_1", "- 1/c*d_t_B_1")
    report = golden_check("cylindrical", seed=4)
    assert [n for n, ok in report.results.items() if not ok] == ["faraday_1"]
    assert not report.exact["faraday_1"] and not report.sign_flag["faraday_1"]
