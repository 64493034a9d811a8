"""Holonomic coordinate charts and their metric data.

A chart is an embedding of three curvilinear coordinates into Euclidean
space.  The metric is always derived from that embedding as
g = J^T J, so the cylindrical/spherical reference results are
self-verifying.  The nonholonomic (physical) reference basis is
orthonormal: g_{i'i'} = 1.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import symexpr as sx
from .symexpr import Expr, diff, parse_expr, print_expr

__all__ = [
    "Chart", "MetricData", "Jacobian", "ComponentVector", "ChartError",
    "builtin_chart", "builtin_metric", "BUILTIN_CHARTS", "parse_chart_file",
    "jacobian", "metric_from_chart", "lame_coefficients", "convert_basis",
]


class ChartError(Exception):
    """``key`` names the chart-file key whose value is at fault, when
    there is one, so that ``parse_chart_file`` can give its line."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class Chart:
    """Named coordinate system with a Cartesian embedding; read-only ``domain``."""

    name: str
    coords: tuple[str, ...]
    embedding: tuple[Expr, ...]
    domain: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "domain", types.MappingProxyType(dict(self.domain)))
        n = len(self.coords)
        if n != 3:
            raise ChartError(f"chart dimension must be 3, got {n}", "coords")
        if "pi" in self.coords:  # every evaluator reads pi as the constant
            raise ChartError("coordinate 'pi' would be read as the constant pi", "coords")
        if len(self.embedding) != n:
            raise ChartError("embedding arity must match coordinate count", "embedding")
        allowed = set(self.coords)
        for e in self.embedding:
            extra = sx.free_vars(e) - allowed
            if extra:
                raise ChartError(f"embedding uses non-coordinate variables {sorted(extra)}",
                                 "embedding")
        for c, (lo, hi) in self.domain.items():
            if c not in allowed:
                raise ChartError(f"domain given for {c!r}, which is not a coordinate",
                                 "domain")
            if not -math.inf < lo < hi < math.inf:
                raise ChartError(f"domain of {c!r} must be finite with min < max, "
                                 f"got ({lo}, {hi})", "domain")

    def domains(self):
        """Sampling domains for `equivalent`, defaulted where undeclared."""
        return {c: self.domain.get(c, sx.DEFAULT_DOMAIN) for c in self.coords}


@dataclass(frozen=True)
class Jacobian:
    """d(Cartesian)/d(coords), entry (a, i) = d x_a / d u^i."""

    matrix: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class MetricData:
    """Symbolic metric of a chart: g_ij, g^ij, det g, sqrt|g|, Lame h_i."""

    chart: Chart
    g_lo: tuple[tuple[Expr, ...], ...]
    g_hi: tuple[tuple[Expr, ...], ...]
    det_g: Expr
    sqrt_abs_g: Expr
    lame: tuple[Expr, ...] | None

    def domains(self):
        return self.chart.domains()


@dataclass(frozen=True)
class ComponentVector:
    """Vector/covector components with variance and basis tags."""

    components: tuple
    variance: str  # "contravariant" | "covariant"
    basis: str = "holonomic"  # "holonomic" | "nonholonomic"

    def __post_init__(self):
        if self.variance not in ("contravariant", "covariant"):
            raise ValueError(f"bad variance {self.variance!r}")
        if self.basis not in ("holonomic", "nonholonomic"):
            raise ValueError(f"bad basis {self.basis!r}")

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]


# ---------------------------------------------------------------------------
# Built-in charts
# ---------------------------------------------------------------------------

def _chart_cartesian():
    x, y, z = sx.var("x"), sx.var("y"), sx.var("z")
    return Chart("cartesian", ("x", "y", "z"), (x, y, z),
                 {"x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (-1.0, 1.0)})


def _chart_cylindrical():
    r, phi, z = sx.var("r"), sx.var("phi"), sx.var("z")
    return Chart("cylindrical", ("r", "phi", "z"),
                 (r * sx.cos(phi), r * sx.sin(phi), z),
                 {"r": (0.1, 2.0), "phi": (0.1, 2.0), "z": (-1.0, 1.0)})


def _chart_spherical():
    r, th, phi = sx.var("r"), sx.var("theta"), sx.var("phi")
    return Chart("spherical", ("r", "theta", "phi"),
                 (r * sx.sin(th) * sx.cos(phi), r * sx.sin(th) * sx.sin(phi),
                  r * sx.cos(th)),
                 {"r": (0.1, 2.0), "theta": (0.1, 2.0), "phi": (0.1, 2.0)})


_BUILDERS = {"cartesian": _chart_cartesian,
             "cylindrical": _chart_cylindrical,
             "spherical": _chart_spherical}
BUILTIN_CHARTS = tuple(_BUILDERS)


def builtin_chart(name):
    if name not in _BUILDERS:
        raise ChartError(f"unknown built-in chart {name!r}")
    return _BUILDERS[name]()


@lru_cache(maxsize=None)
def builtin_metric(name):
    """``metric_from_chart(builtin_chart(name))``, built once per process."""
    return metric_from_chart(builtin_chart(name))


_KEYS = ("name", "coords", "embedding", "domain")


def parse_chart_file(text):
    """Parse the key-value chart definition format; returns list of Charts.

    Format, one ``[chart]`` section per chart::

        [chart]
        name = cylindrical
        coords = r, phi, z
        embedding = r*cos(phi), r*sin(phi), z
        domain = r:(0.1,2.0), phi:(0.0,6.28), z:(-1.0,1.0)

    Every ChartError names a line: that of the ``[chart]`` header for a
    missing key, else that of the key whose value is at fault (a
    coordinate that is not a name, is given twice or is pi, other than
    three coordinates, an embedding in other variables, a malformed domain
    entry, a domain given twice, for a non-coordinate, or not finite with
    min < max), or that of an unknown key or a key given twice in one
    section.
    """
    sections = []  # (key -> value, key -> (line, column) of the value, header line)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line == "[chart]":
            current, where = {}, {}
            sections.append((current, where, lineno))
            continue
        if line.startswith("["):
            raise ChartError(f"line {lineno}: unknown section {line}")
        if current is None:
            raise ChartError(f"line {lineno}: key outside a [chart] section")
        if "=" not in line:
            raise ChartError(f"line {lineno}: expected key = value")
        key, _, value = raw.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ChartError(f"line {lineno}: unknown key {key!r}; known: {', '.join(_KEYS)}")
        if key in current:
            raise ChartError(f"line {lineno}: {key!r} given twice in one [chart] section "
                             f"(first on line {where[key][0]})")
        current[key] = value.strip()
        where[key] = (lineno, len(raw) - len(value.lstrip()) + 1)

    charts = []
    for sec, where, header in sections:
        for req in ("name", "coords", "embedding"):
            if req not in sec:
                raise ChartError(f"line {header}: chart section missing {req!r}")
        coords = tuple(c.strip() for c in sec["coords"].split(","))
        for i, c in enumerate(coords):
            try:
                named = parse_expr(c) == sx.Var(c)
            except sx.SymExprError:
                named = False
            if not named:  # the parser would not read it as that one variable
                raise ChartError(f"line {where['coords'][0]}: coordinate {c!r} is not a name")
            if c in coords[:i]:
                raise ChartError(f"line {where['coords'][0]}: coordinate {c!r} given twice")
        lineno, col = where["embedding"]
        embedding = tuple(parse_expr(e, line=lineno, col=c)
                          for e, c in _split_top(sec["embedding"], col))
        domain = {}
        if "domain" in sec:
            for part, _ in _split_top(sec["domain"]):
                cname, _, rng = part.partition(":")
                rng = rng.strip()
                try:
                    if not (rng.startswith("(") and rng.endswith(")")):
                        raise ValueError
                    lo, hi = map(float, rng[1:-1].split(","))
                except ValueError:
                    raise ChartError(f"line {where['domain'][0]}: bad domain spec "
                                     f"{part!r}") from None
                cname = cname.strip()
                if cname in domain:
                    raise ChartError(f"line {where['domain'][0]}: domain of {cname!r} "
                                     "given twice")
                domain[cname] = (lo, hi)
        try:
            charts.append(Chart(sec["name"], coords, embedding, domain))
        except ChartError as err:
            raise ChartError(f"line {where[err.key][0]}: {err}") from None
    return charts


def _split_top(text, col=1):
    """Split on commas not nested in parentheses into stripped parts, each
    with the column of its first character when ``text`` starts at ``col``."""
    bounds, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            bounds.append((start, i))
            start = i + 1
    bounds.append((start, len(text)))
    out = []
    for a, b in bounds:
        part = text[a:b].lstrip()
        out.append((part.rstrip(), col + b - len(part)))
    return out


# ---------------------------------------------------------------------------
# Metric machinery
# ---------------------------------------------------------------------------

def jacobian(chart):
    return Jacobian(tuple(tuple(diff(x, c) for c in chart.coords) for x in chart.embedding))


def _mat_det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _mat_inverse(m, det):
    """Adjugate / det; exact symbolic inversion of a 3x3 matrix."""
    inv_det = sx.pow_(det, -1)

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                 - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
        return minor if (i + j) % 2 == 0 else -minor
    # adjugate = transpose of cofactor matrix
    return tuple(tuple(cof(j, i) * inv_det for j in range(3)) for i in range(3))


def metric_from_chart(chart):
    """MetricData with g_lo = J^T J, exact inverse, sqrt|g| and Lame
    coefficients when the metric is diagonal.  An off-diagonal entry that
    ``sx.is_zero`` proves zero is stored as ZERO, so a chart is orthogonal
    when each of them is proven zero.

    Raises ChartError when the metric is singular, or when sqrt|g| or a
    Lame coefficient is not positive and finite on the chart's domain."""
    jac = jacobian(chart).matrix
    g_lo = [[sx.add(*(jac[a][i] * jac[a][j] for a in range(3))) for j in range(3)]
            for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if sx.is_zero(g_lo[i][j]):  # g_ij cancels only after expansion
            g_lo[i][j] = g_lo[j][i] = sx.ZERO
    g_lo = tuple(map(tuple, g_lo))
    det = _mat_det(g_lo)
    if sx.is_zero(det):
        raise ChartError(f"chart {chart.name!r} has a singular metric")
    g_hi = _mat_inverse(g_lo, det)
    sqrt_abs_g = sx.sqrt(det)
    diagonal = all(g_lo[i][j] == sx.ZERO for i in range(3) for j in range(3) if i != j)
    lame = None
    checked = [("sqrt|g|", sqrt_abs_g)]
    if diagonal:
        lame = tuple(sx.sqrt(g_lo[i][i]) for i in range(3))
        checked += [(f"Lame coefficient h_{c}", h) for c, h in zip(chart.coords, lame)]
    _require_positive(chart, checked)
    return MetricData(chart, g_lo, g_hi, det, sqrt_abs_g, lame)


_SAMPLE_FRACTIONS = np.array([0.1, 0.5, 0.9])


def _require_positive(chart, quantities):
    """Raise ChartError unless each (label, expr) is finite and positive on
    a 3^n grid of interior points of the chart's domains.

    The sqrt builder assumes a positive argument (sqrt(u^2) -> u), which a
    domain with u < 0 breaks; a square root must come out positive."""
    doms = chart.domains()
    axes = np.meshgrid(*(lo + (hi - lo) * _SAMPLE_FRACTIONS
                         for lo, hi in (doms[c] for c in chart.coords)),
                       indexing="ij", sparse=True)
    binding = dict(zip(chart.coords, axes))
    for label, e in quantities:
        with np.errstate(all="ignore"):
            v = np.asarray(sx.lambdify(e)(binding), dtype=float)
        if not np.all((v > 0) & (v < np.inf)):
            raise ChartError(f"chart {chart.name!r}: {label} = {print_expr(e)} "
                             "is not positive and finite on its domain")


def lame_coefficients(m):
    """Physical scale factors h_i = sqrt(g_ii) for orthogonal charts."""
    if m.lame is None:
        raise ChartError("Lame coefficients defined only for orthogonal systems")
    return m.lame


def convert_basis(v, m, target):
    """Holonomic <-> nonholonomic (physical) component conversion.

    Contravariant: f^{i'} = h_i f^i; covariant: f_{i'} = f_i / h_i.
    """
    if target not in ("holonomic", "nonholonomic"):
        raise ValueError(f"bad basis {target!r}")
    if v.basis == target:
        return v
    h = lame_coefficients(m)
    times_h = (v.variance == "contravariant") == (target == "nonholonomic")
    scale = h if times_h else tuple(sx.pow_(x, -1) for x in h)
    comps = tuple(scale[i] * v.components[i] for i in range(len(v)))
    return ComponentVector(comps, v.variance, target)
