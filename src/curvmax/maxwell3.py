"""Covariant 3-vector form of Maxwell's equations.

Residual (left minus right) assembly for any chart, golden comparison
against the stored cylindrical/spherical reference equations, and numeric
residual evaluation.  CGS Gaussian units; the time derivative enters as
(1/c) d_t with t an ordinary variable outside the spatial chart.

Sign convention: the Ampere residual uses curl H - (1/c) d_t D - (4pi/c) j
(the standard form of the coordinate-free system).  The stored reference
equations print the time-derivative term with the opposite sign; golden
comparison applies that documented flip, see ``golden_check``.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

from . import symexpr as sx
from .chart import ComponentVector, builtin_chart, metric_from_chart
from .diffops import DiffOpsError, curl, div
from .symexpr import (Expr, FieldAtom, Var, diff, equivalent, eval_expr,
                      parse_expr, substitute)

__all__ = [
    "FieldSet3", "Sources3", "MaxwellResiduals3", "assemble_residuals",
    "symbolic_fields", "symbolic_sources", "eval_residuals",
    "golden_equations", "golden_check", "GoldenReport", "RESIDUAL_NAMES",
]

RESIDUAL_NAMES = ("faraday_1", "faraday_2", "faraday_3",
                  "ampere_1", "ampere_2", "ampere_3",
                  "gauss_D", "gauss_B")


@dataclass(frozen=True)
class FieldSet3:
    """E, H covariant; D, B contravariant; all holonomic components."""

    E: ComponentVector
    H: ComponentVector
    D: ComponentVector
    B: ComponentVector

    def __post_init__(self):
        for v, variance in ((self.E, "covariant"), (self.H, "covariant"),
                            (self.D, "contravariant"), (self.B, "contravariant")):
            if v.basis != "holonomic":
                raise DiffOpsError("field components must be holonomic")
            if v.variance != variance:
                raise DiffOpsError(f"expected {variance} components")


@dataclass(frozen=True)
class Sources3:
    """Charge density, contravariant current density, light speed (CGS)."""

    rho: Expr
    j: ComponentVector
    c: Expr = field(default_factory=lambda: Var("c"))

    def __post_init__(self):
        if self.j.variance != "contravariant" or self.j.basis != "holonomic":
            raise DiffOpsError("current density must be contravariant holonomic")


@dataclass(frozen=True)
class MaxwellResiduals3:
    faraday: tuple[Expr, Expr, Expr]
    ampere: tuple[Expr, Expr, Expr]
    gauss_D: Expr
    gauss_B: Expr

    def named(self):
        return dict(zip(RESIDUAL_NAMES,
                        (*self.faraday, *self.ampere, self.gauss_D, self.gauss_B)))


def symbolic_fields(chart):
    """FieldSet3 of opaque field atoms in (t, chart coordinates)."""
    args = ("t",) + chart.coords

    def vec(base, variance):
        return ComponentVector(
            tuple(FieldAtom(f"{base}_{i + 1}", args) for i in range(chart.dim)),
            variance, "holonomic")

    return FieldSet3(E=vec("E", "covariant"), H=vec("H", "covariant"),
                     D=vec("D", "contravariant"), B=vec("B", "contravariant"))


def symbolic_sources(chart, c=None):
    args = ("t",) + chart.coords
    j = ComponentVector(tuple(FieldAtom(f"j_{i + 1}", args) for i in range(chart.dim)),
                        "contravariant", "holonomic")
    return Sources3(rho=FieldAtom("rho", args), j=j, c=c if c is not None else Var("c"))


def assemble_residuals(fields, src, m):
    """Residual form of the eight equations on metric ``m``.

    faraday_i = (1/sqrt g)(d_j E_k - d_k E_j) + (1/c) d_t B^i
    ampere_i  = (1/sqrt g)(d_j H_k - d_k H_j) - (1/c) d_t D^i - (4pi/c) j^i
    gauss_D   = (1/sqrt g) d_i(sqrt g D^i) - 4pi rho
    gauss_B   = (1/sqrt g) d_i(sqrt g B^i)
    """
    inv_c = sx.pow_(src.c, -1)
    four_pi = 4 * Var("pi")
    rot_E, rot_H = curl(fields.E, m), curl(fields.H, m)
    faraday = tuple(rot_E[i] + inv_c * diff(fields.B[i], "t") for i in range(3))
    ampere = tuple(rot_H[i] - inv_c * diff(fields.D[i], "t")
                   - four_pi * inv_c * src.j[i] for i in range(3))
    gauss_D = div(fields.D, m) - four_pi * src.rho
    gauss_B = div(fields.B, m)
    return MaxwellResiduals3(faraday, ampere, gauss_D, gauss_B)


def eval_residuals(res, binding):
    """Numeric residual vector in RESIDUAL_NAMES order."""
    return [eval_expr(e, binding) for e in res.named().values()]


# ---------------------------------------------------------------------------
# Golden comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenReport:
    chart: str
    results: dict[str, bool]
    sign_flag: dict[str, bool]

    @property
    def passed(self):
        return all(self.results.values())

    def lines(self):
        out = []
        for name, ok in self.results.items():
            note = " (time-derivative sign flag applied)" if self.sign_flag.get(name) else ""
            out.append(f"{self.chart}:{name}: {'pass' if ok else 'FAIL'}{note}")
        return out


def _golden_path():
    import os
    override = os.environ.get("CURVMAX_GOLDEN_DIR")
    if override:
        from pathlib import Path
        return Path(override)
    return importlib.resources.files("curvmax") / "data"


def golden_equations(chart_name):
    """Stored reference residuals, parsed; keys are RESIDUAL_NAMES."""
    path = _golden_path() / f"golden_{chart_name}.txt"
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        raise DiffOpsError(f"no golden equations for chart {chart_name!r}") from None
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, exprtext = line.partition("=")
        out[name.strip()] = parse_expr(exprtext)
    missing = [n for n in RESIDUAL_NAMES if n not in out]
    if missing:
        raise DiffOpsError(f"golden file for {chart_name!r} missing {missing}")
    return out


def golden_check(chart_name, seed=None):
    """Compare assembled residuals with the stored reference equations.

    The stored Ampere equations carry the opposite time-derivative sign;
    both orientations are tried and the applied flip is reported.
    """
    chart = builtin_chart(chart_name)
    m = metric_from_chart(chart)
    res = assemble_residuals(symbolic_fields(chart), symbolic_sources(chart), m)
    golden = golden_equations(chart_name)
    domains = dict(chart.domains())
    domains["c"] = (0.5, 2.0)
    results, flags = {}, {}
    for name, assembled in res.named().items():
        target = golden[name]
        ok = equivalent(assembled, target, domains, seed=seed)
        flag = False
        if not ok and name.startswith("ampere"):
            i = name.split("_")[1]
            flipped = substitute(target, {f"d_t_D_{i}": -FieldAtom(f"D_{i}", ("t",) + chart.coords, ("t",))})
            ok = equivalent(assembled, flipped, domains, seed=seed)
            flag = ok
        results[name] = ok
        flags[name] = flag
    return GoldenReport(chart_name, results, flags)
