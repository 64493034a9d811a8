"""Covariant 3-vector form of Maxwell's equations.

Residual (left minus right) assembly for any chart and golden comparison
against the stored cylindrical/spherical reference equations.  CGS
Gaussian units; the time derivative enters as (1/c) d_t with t an
ordinary variable outside the spatial chart.

Sign convention: the Ampere residual uses curl H - (1/c) d_t D - (4pi/c) j
(the standard form of the coordinate-free system).  The stored reference
equations print the time-derivative term with the opposite sign; golden
comparison applies that documented flip, see ``golden_check``.
"""

from __future__ import annotations

import importlib.resources
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import symexpr as sx
from .chart import ComponentVector, builtin_metric
from .diffops import DiffOpsError, curl, div
from .symexpr import (Expr, FieldAtom, SymExprError, Var, diff, equivalent,
                      parse_expr, substitute)

__all__ = [
    "FieldSet3", "Sources3", "MaxwellResiduals3", "assemble_residuals",
    "symbolic_fields", "symbolic_sources",
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
    """Charge density and contravariant current density."""

    rho: Expr
    j: ComponentVector

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


def _atoms(chart, base, variance):
    """Holonomic components base_1..base_3: field atoms in (t, chart coordinates)."""
    args = ("t",) + chart.coords
    return ComponentVector(tuple(FieldAtom(f"{base}_{i + 1}", args) for i in range(3)),
                           variance, "holonomic")


# a coordinate of one of these names would read the binding of the time t,
# the light speed c, or a field or source atom (derivatives included);
# Chart itself refuses pi
_RESERVED = re.compile(r"t|c|(d_\w+_)?(rho|[EHDBj]_[123])")


def _refuse_reserved(chart):
    for name in chart.coords:
        if _RESERVED.fullmatch(name):
            raise DiffOpsError(
                f"coordinate {name!r} of chart {chart.name!r} is a name the 3-vector "
                "equations reserve (t, c, rho and the field and source components)")


def symbolic_fields(chart):
    """FieldSet3 of opaque field atoms in (t, chart coordinates).
    DiffOpsError for a coordinate of a reserved name (see ``_RESERVED``)."""
    _refuse_reserved(chart)
    return FieldSet3(E=_atoms(chart, "E", "covariant"), H=_atoms(chart, "H", "covariant"),
                     D=_atoms(chart, "D", "contravariant"),
                     B=_atoms(chart, "B", "contravariant"))


def symbolic_sources(chart):
    """Sources3 of opaque atoms in (t, chart coordinates).  DiffOpsError
    for a coordinate of a reserved name, as ``symbolic_fields``."""
    _refuse_reserved(chart)
    return Sources3(rho=FieldAtom("rho", ("t",) + chart.coords),
                    j=_atoms(chart, "j", "contravariant"))


def assemble_residuals(fields, src, m):
    """Residual form of the eight equations on metric ``m``, with the
    light speed the variable c.

    faraday_i = (1/sqrt g)(d_j E_k - d_k E_j) + (1/c) d_t B^i
    ampere_i  = (1/sqrt g)(d_j H_k - d_k H_j) - (1/c) d_t D^i - (4pi/c) j^i
    gauss_D   = (1/sqrt g) d_i(sqrt g D^i) - 4pi rho
    gauss_B   = (1/sqrt g) d_i(sqrt g B^i)
    """
    inv_c = sx.pow_(Var("c"), -1)
    four_pi = 4 * Var("pi")
    rot_E, rot_H = curl(fields.E, m), curl(fields.H, m)
    faraday = tuple(rot_E[i] + inv_c * diff(fields.B[i], "t") for i in range(3))
    ampere = tuple(rot_H[i] - inv_c * diff(fields.D[i], "t")
                   - four_pi * inv_c * src.j[i] for i in range(3))
    gauss_D = div(fields.D, m) - four_pi * src.rho
    gauss_B = div(fields.B, m)
    return MaxwellResiduals3(faraday, ampere, gauss_D, gauss_B)


# ---------------------------------------------------------------------------
# Golden comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenReport:
    """Verdict and applied sign flip per equation; ``exact`` tells which
    passed by an exact proof rather than by sampling (not printed)."""

    chart: str
    results: dict[str, bool]
    sign_flag: dict[str, bool]
    exact: dict[str, bool]

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
    override = os.environ.get("CURVMAX_GOLDEN_DIR")
    return Path(override) if override else importlib.resources.files("curvmax") / "data"


def golden_equations(chart_name):
    """Stored reference residuals, parsed, in a new dict; keys are RESIDUAL_NAMES.
    A missing, unreadable or unparseable file is a DiffOpsError naming it."""
    path = _golden_path() / f"golden_{chart_name}.txt"
    out = {}
    try:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.strip() and not line.lstrip().startswith("#"):
                name, _, exprtext = line.partition("=")
                out[name.strip()] = _parse_golden(exprtext, line=lineno, col=len(name) + 2)
    except (OSError, UnicodeDecodeError, SymExprError) as exc:
        # an OSError's strerror leaves out the path, which is named once here
        raise DiffOpsError(f"golden file {path}: {getattr(exc, 'strerror', None) or exc}") from None
    missing = [n for n in RESIDUAL_NAMES if n not in out]
    if missing:
        raise DiffOpsError(f"golden file {path} is missing {missing}")
    return out


_parse_golden = lru_cache(maxsize=64)(parse_expr)  # by text and place: an edit is read afresh


@lru_cache(maxsize=None)
def _builtin_residuals(chart_name):
    m = builtin_metric(chart_name)
    return assemble_residuals(symbolic_fields(m.chart), symbolic_sources(m.chart), m)


@lru_cache(maxsize=None)
def _field_atoms(chart_name):
    """Name -> atom of every field and source atom the residuals can hold
    (each component, undifferentiated or once by t or a coordinate), for
    reading a golden file's ``d_t_B_1``-style variables as those atoms."""
    args = ("t",) + builtin_metric(chart_name).chart.coords
    bases = [f"{f}_{i}" for f in "EHDBj" for i in (1, 2, 3)] + ["rho"]
    return {a.name: a for b in bases
            for a in (FieldAtom(b, args), *(FieldAtom(b, args, (v,)) for v in args))}


@lru_cache(maxsize=64)
def _orientations(chart_name, name, target):
    """(targets, proven): ``target`` with its field names read as the
    residual's atoms, and for an Ampere equation also under the
    time-derivative sign flip; ``proven`` is the index of the first target
    that expansion proves equal to the assembled residual, or None (not
    proven).  Kept per process by chart, name and parsed target."""
    atoms = _field_atoms(chart_name)
    targets = [substitute(target, atoms)]
    if name.startswith("ampere"):
        d_t_D = f"d_t_D_{name[-1]}"
        targets.append(substitute(target, {**atoms, d_t_D: -atoms[d_t_D]}))
    assembled = sx.expand(_builtin_residuals(chart_name).named()[name])
    # an expansion equal to the residual's is the cheap proof; their
    # difference may still expand to zero (sin^2 + cos^2 across the sides)
    proven = next((k for k, x in enumerate(targets) if sx.expand(x) == assembled), None)
    if proven is None:
        proven = next((k for k, x in enumerate(targets) if sx.is_zero(assembled - x)), None)
    return tuple(targets), proven


def golden_check(chart_name, seed=None):
    """Compare assembled residuals with the stored reference equations.

    The stored Ampere equations carry the opposite time-derivative sign;
    both orientations are tried and the applied flip is reported.  Each
    equation is first tried exactly (``_orientations``): its field names
    are read as the residual's atoms, and it is proven when its expansion
    equals the residual's or their difference expands to zero
    (``sx.is_zero``).  That is done once per process for each chart, name
    and parsed target, so an edited golden file is tried afresh.  A proof
    holds at every point, so a proven equation is not sampled; only one
    that neither orientation proves is compared by ``equivalent`` at
    seeded points, on every call.
    """
    res = _builtin_residuals(chart_name)
    golden = golden_equations(chart_name)
    domains = builtin_metric(chart_name).domains()
    domains["c"] = (0.5, 2.0)
    results, flags, exact = {}, {}, {}
    for name, assembled in res.named().items():
        targets, proven = _orientations(chart_name, name, golden[name])
        if proven is None:
            ok = equivalent(assembled, targets[0], domains, seed=seed)
            flip = not ok and len(targets) > 1 and equivalent(
                assembled, targets[1], domains, seed=seed)
        else:
            ok, flip = proven == 0, proven == 1
        results[name], flags[name], exact[name] = ok or flip, flip, proven is not None
    return GoldenReport(chart_name, results, flags, exact)
