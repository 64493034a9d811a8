"""Verification suites behind ``check --suite paper|properties|all``.

Each check returns CheckResult entries; the paper suite replays the stored
reference equations and literal metric forms, the properties suite runs
fast cross-module invariants (operator oracles, dual involution, spinor
roundtrip, transform properties, solver conservation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symexpr as sx
from . import maxwell4 as m4
from . import rs_momentum as rs
from . import solver as sv
from .chart import (ComponentVector, builtin_chart, convert_basis,
                    lame_coefficients, metric_from_chart)
from .diffops import curl, div, grad, grad_nh, laplacian
from .maxwell3 import golden_check
from .symexpr import Var, equivalent, parse_expr

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        tail = f" ({self.detail})" if self.detail else ""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{tail}"


def _seeded(seed):
    return sx.default_seed() if seed is None else seed


# ---------------------------------------------------------------------------
# Paper suite: stored reference equations and closed-form literals
# ---------------------------------------------------------------------------

def _golden(seed):
    out = []
    for chart in ("cylindrical", "spherical"):
        report = golden_check(chart, seed=seed)
        for name, ok in report.results.items():
            note = "sign flag applied" if report.sign_flag.get(name) else ""
            out.append(CheckResult(f"golden {chart} {name}", ok, note))
    return out


def _metric_literals(seed, metrics):
    out = []
    cases = {
        "cylindrical": (("1", "r^2", "1"), "r", ("1", "r", "1")),
        "spherical": (("1", "r^2", "r^2*sin(theta)^2"), "r^2*sin(theta)",
                      ("1", "r", "r*sin(theta)")),
    }
    for chart_name, (diag, sqrtg, lame) in cases.items():
        m = metrics[chart_name]
        ok = all(m.g_lo[i][i] == parse_expr(diag[i]) for i in range(3))
        ok &= all(m.g_lo[i][j] == sx.ZERO for i in range(3) for j in range(3) if i != j)
        ok &= m.sqrt_abs_g == parse_expr(sqrtg)
        ok &= tuple(lame_coefficients(m)) == tuple(parse_expr(x) for x in lame)
        out.append(CheckResult(f"metric literals {chart_name}", bool(ok),
                               "structural equality"))
    return out


def _paper_suite(seed, metrics):
    return _golden(seed) + _metric_literals(seed, metrics)


# ---------------------------------------------------------------------------
# Properties suite
# ---------------------------------------------------------------------------

def _vector_calculus_identities(seed, metrics):
    out = []
    for chart_name in ("cartesian", "cylindrical", "spherical"):
        m = metrics[chart_name]
        chart = m.chart
        phi = parse_expr({"cartesian": "x*sin(y)*z",
                          "cylindrical": "r^2*sin(phi)*z",
                          "spherical": "r*sin(theta)*cos(phi)"}[chart_name])
        ok_cg = all(c == sx.ZERO for c in curl(grad(phi, chart), m))
        w = ComponentVector(tuple(parse_expr(t) for t in
                                  {"cartesian": ("y*z", "x^2", "sin(y)"),
                                   "cylindrical": ("z*sin(phi)", "r^2", "r*z"),
                                   "spherical": ("sin(theta)", "r*cos(phi)", "r^2"),
                                   }[chart_name]),
                            "covariant", "holonomic")
        ok_dc = equivalent(div(curl(w, m), m), sx.ZERO, dict(chart.domains()),
                           seed=seed)
        out.append(CheckResult(f"curl(grad)=0 and div(curl)=0 on {chart_name}",
                               bool(ok_cg and ok_dc)))
    return out


def _nonholonomic_consistency(seed, metrics):
    out = []
    for chart_name in ("cylindrical", "spherical"):
        m = metrics[chart_name]
        chart = m.chart
        phi = Var(chart.coords[0]) * Var(chart.coords[1]) * Var(chart.coords[2])
        via_nh = grad_nh(phi, m)
        via_conv = convert_basis(grad(phi, chart), m, "nonholonomic")
        ok = all(equivalent(a, b, dict(chart.domains()), seed=seed)
                 for a, b in zip(via_nh, via_conv))
        out.append(CheckResult(f"nonholonomic gradient consistency {chart_name}",
                               bool(ok)))
    return out


def _four_tensor(seed):
    rng = np.random.default_rng(_seeded(seed))
    gm = m4.Metric4.minkowski()
    worst = 0.0
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        a = a - a.T
        t = m4.FieldTensor4(tuple(map(tuple, a)), "lower", "F")
        dd = m4.hodge_dual(m4.hodge_dual(t, gm), gm).as_array()
        worst = max(worst, float(np.max(np.abs(dd + a))))
    results = [CheckResult("Hodge double dual = -identity", worst <= 1e-12,
                           f"max err {worst:.2e}")]
    rep = m4.check_pair_table(gm, seed=_seeded(seed))
    results.append(CheckResult("ordered-pair table (Minkowski)", rep.passed))
    r = float(rng.uniform(0.3, 2.5))
    rep = m4.check_pair_table(m4.Metric4.numeric(np.diag([1, -1, -r * r, -1])),
                              seed=_seeded(seed))
    results.append(CheckResult("ordered-pair table (curvilinear lift)", rep.passed,
                               f"r={r:.3f}"))
    return results


def _spinor(seed):
    rng = np.random.default_rng(_seeded(seed))
    worst = 0.0
    for _ in range(20):
        E, B = rng.normal(size=3), rng.normal(size=3)
        f = m4.reconstruct_F_from_spinor(m4.phi_from_EB(E, B)).as_array()
        worst = max(worst, float(np.max(np.abs(f - m4.assemble_F_lower(E, B).as_array()))))
    return [CheckResult("spinor reconstruct . phi_from_EB = assemble_F_lower",
                        worst <= 1e-12, f"max err {worst:.2e}")]


def _complex_momentum(seed):
    rng = np.random.default_rng(_seeded(seed))
    out = []
    E, B = rng.normal(size=3), rng.normal(size=3)
    kl = rs.kl_from_rs(rs.to_rs(E, B, E, B))
    vac = max(abs(k - (e + 1j * b)) for k, e, b in zip(kl.K, E, B))
    vac = max(vac, max(abs(l) for l in kl.L))
    out.append(CheckResult("vacuum K=F, L=0 reduction", vac <= 1e-12,
                           f"max err {vac:.2e}"))
    a = rng.normal(size=(8, 8, 8))
    spec = rs.fft_forward(a, (0.3, 0.2, 0.5))
    r_err = float(np.max(np.abs(rs.fft_inverse(spec) - a)))
    p_err = abs(np.linalg.norm(a) - np.linalg.norm(spec.values))
    out.append(CheckResult("transform roundtrip and Parseval",
                           r_err <= 1e-12 and p_err <= 1e-12,
                           f"roundtrip {r_err:.2e}, parseval {p_err:.2e}"))
    n, length = 32, 2.0
    xs = np.arange(n) * length / n
    dev = rs.spectral_derivative_check(
        np.sin(2 * math.pi * xs / length),
        (2 * math.pi / length) * np.cos(2 * math.pi * xs / length),
        (length / n,), 0)
    out.append(CheckResult("spectral derivative rule", dev <= 1e-10,
                           f"max dev {dev:.2e}"))
    return out


def _solver_conservation(seed):
    spec = sv.GridSpec("cartesian", ((0, 1), (0, 1), (0, 1)), (12, 12, 12), cfl=0.5)
    state = sv.run(sv.init_grid(spec, "plane_wave"), spec, 50)
    diag = sv.diagnostics(state, spec)
    return [CheckResult("solver divergence conservation (50 steps)",
                        diag["div_B"] <= 1e-12, f"div B {diag['div_B']:.2e}")]


def _properties_suite(seed, metrics):
    return (_vector_calculus_identities(seed, metrics)
            + _nonholonomic_consistency(seed, metrics)
            + _four_tensor(seed) + _spinor(seed) + _complex_momentum(seed)
            + _solver_conservation(seed))


SUITES = {
    "paper": _paper_suite,
    "properties": _properties_suite,
}


class _RunMetrics(dict):
    """Built-in chart name -> its metric, built on first use within one run."""

    def __missing__(self, chart_name):
        m = self[chart_name] = metric_from_chart(builtin_chart(chart_name))
        return m


def run_suite(name, seed=None):
    """Results for a named suite ('paper', 'properties', or 'all')."""
    metrics = _RunMetrics()
    if name == "all":
        return _paper_suite(seed, metrics) + _properties_suite(seed, metrics)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose paper, properties, all")
    return SUITES[name](seed, metrics)
