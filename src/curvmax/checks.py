"""Verification suites behind ``check --suite paper|properties|all``.

Each check returns CheckResult entries; the paper suite replays the stored
reference equations and literal metric forms, the properties suite runs
fast cross-module invariants (operator oracles, dual involution, spinor
roundtrip, transform properties, and the solver's discrete energy).  The
solver check steps the azimuthal mode 20 times on a spherical shell with
PEC walls in r and theta and asks that div B stay at round-off and that
the leapfrog's exact energy Q of ``solver.energy_invariant`` not move:
because the backward curl is the transpose of the forward one, a correct
solver keeps Q to rounding on any orthogonal grid, and a solver whose
curls do not pair (a lost periodic wrap, a wrong sign) does not.
Seed-free symbolic inputs (metrics, golden parses, residuals, derived trees)
are built once per process with their tapes, and so is the exact proof of
each golden equation (see ``maxwell3.golden_check``); sampling, and the
verdicts that rest on it, are redone on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import symexpr as sx
from . import maxwell4 as m4
from . import rs_momentum as rs
from . import solver as sv
from .chart import ComponentVector, builtin_metric, convert_basis, lame_coefficients
from .diffops import curl, div, grad, grad_nh
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


def _metric_literals(seed):
    out = []
    cases = {
        "cylindrical": (("1", "r^2", "1"), "r", ("1", "r", "1")),
        "spherical": (("1", "r^2", "r^2*sin(theta)^2"), "r^2*sin(theta)",
                      ("1", "r", "r*sin(theta)")),
    }
    for chart_name, (diag, sqrtg, lame) in cases.items():
        m = builtin_metric(chart_name)
        ok = all(m.g_lo[i][i] == parse_expr(diag[i]) for i in range(3))
        ok &= all(m.g_lo[i][j] == sx.ZERO for i in range(3) for j in range(3) if i != j)
        ok &= m.sqrt_abs_g == parse_expr(sqrtg)
        ok &= tuple(lame_coefficients(m)) == tuple(parse_expr(x) for x in lame)
        out.append(CheckResult(f"metric literals {chart_name}", bool(ok),
                               "structural equality"))
    return out


def _paper_suite(seed):
    return _golden(seed) + _metric_literals(seed)


# ---------------------------------------------------------------------------
# Properties suite
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _identity_trees(chart_name):
    m = builtin_metric(chart_name)
    phi = parse_expr({"cartesian": "x*sin(y)*z",
                      "cylindrical": "r^2*sin(phi)*z",
                      "spherical": "r*sin(theta)*cos(phi)"}[chart_name])
    w = ComponentVector(tuple(parse_expr(t) for t in
                              {"cartesian": ("y*z", "x^2", "sin(y)"),
                               "cylindrical": ("z*sin(phi)", "r^2", "r*z"),
                               "spherical": ("sin(theta)", "r*cos(phi)", "r^2"),
                               }[chart_name]),
                        "covariant", "holonomic")
    return curl(grad(phi, m.chart), m), div(curl(w, m), m)


def _vector_calculus_identities(seed):
    out = []
    for chart_name in ("cartesian", "cylindrical", "spherical"):
        curl_grad, div_curl = _identity_trees(chart_name)
        ok_cg = all(map(sx.is_zero, curl_grad))
        ok_dc = equivalent(div_curl, sx.ZERO, builtin_metric(chart_name).domains(),
                           seed=seed)
        out.append(CheckResult(f"curl(grad)=0 and div(curl)=0 on {chart_name}",
                               bool(ok_cg and ok_dc)))
    return out


@lru_cache(maxsize=None)
def _gradients(chart_name):
    m = builtin_metric(chart_name)
    u, v, w = map(Var, m.chart.coords)
    return grad_nh(u * v * w, m), convert_basis(grad(u * v * w, m.chart), m, "nonholonomic")


def _nonholonomic_consistency(seed):
    out = []
    for chart_name in ("cylindrical", "spherical"):
        domains = builtin_metric(chart_name).domains()
        ok = all(equivalent(a, b, domains, seed=seed)  # grad_nh against converted grad
                 for a, b in zip(*_gradients(chart_name)))
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


_SHELL = sv.GridSpec("spherical", ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi)),
                     (12, 12, 16), cfl=0.9, bc=("pec", "pec", "periodic"))


def _solver_energy_invariant(seed):
    start = sv.init_grid(_SHELL, "azimuthal_mode")
    state = sv.run(start, _SHELL, 20)
    q0 = sv.energy_invariant(start, _SHELL)
    drift = abs(sv.energy_invariant(state, _SHELL) - q0) / abs(q0)
    div_b = sv.diagnostics(state, _SHELL)["div_B"]
    return [CheckResult("solver energy invariant (20 steps)",
                        drift <= 1e-13 and div_b <= 1e-12,
                        f"Q drift {drift:.2e}, div B {div_b:.2e}")]


def _properties_suite(seed):
    return (_vector_calculus_identities(seed)
            + _nonholonomic_consistency(seed)
            + _four_tensor(seed) + _spinor(seed) + _complex_momentum(seed)
            + _solver_energy_invariant(seed))


def _all_suite(seed):
    return _paper_suite(seed) + _properties_suite(seed)


SUITES = {
    "paper": _paper_suite,
    "properties": _properties_suite,
    "all": _all_suite,
}


def run_suite(name, seed=None):
    """Results for a named suite ('paper', 'properties', or 'all')."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose {', '.join(SUITES)}")
    return SUITES[name](seed)
