"""Covariant differential operators in holonomic and nonholonomic bases.

All operators follow the metric-compatible, torsion-free connection; the
divergence and Laplacian use the sqrt|g|-densitized forms, the curl uses
the alternating tensor with (i, j, k) running over cyclic permutations of
(1, 2, 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symexpr as sx
from .chart import ChartError, ComponentVector, convert_basis, lame_coefficients
from .symexpr import Expr, diff

__all__ = [
    "AlternatingTensor", "alternating", "grad", "div", "curl", "laplacian",
    "grad_nh", "div_nh", "curl_nh", "DiffOpsError",
]

CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class DiffOpsError(Exception):
    pass


def _parity(idx):
    """Sign of a permutation given as a tuple of distinct indices, else 0."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return 0
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class AlternatingTensor:
    """Levi-Civita symbol densitized by the metric volume factor.

    e_lower = prefactor_lower * epsilon, e_upper = prefactor_upper * epsilon.
    """

    dim: int
    prefactor_lower: object
    prefactor_upper: object

    def epsilon(self, *idx):
        if len(idx) != self.dim:
            raise DiffOpsError(f"expected {self.dim} indices")
        return _parity(idx)

    def lower(self, *idx):
        s = self.epsilon(*idx)
        return sx.ZERO if s == 0 else sx.Const(s) * self.prefactor_lower

    def upper(self, *idx):
        s = self.epsilon(*idx)
        return sx.ZERO if s == 0 else sx.Const(s) * self.prefactor_upper


def alternating(n, metric=None, det=None, sqrt_abs_det=None):
    """Alternating tensor for dimension n in {3, 4}.

    For n = 3 pass a spatial MetricData; for n = 4 pass the 4-metric's det
    and sqrt(-det) (det must be negative, Lorentzian signature).

    The 3-D symbol is anchored by epsilon_123 = +1.  The 4-D symbol is
    anchored by epsilon_0123 = -1 (the convention under which the Hodge
    duals of the field tensors reproduce the reference component matrices);
    with parity(0,1,2,3) = +1 this folds a minus sign into both prefactors:
    e_lower = -sqrt(-g) parity, e_upper = (1/sqrt(-g)) parity.
    """
    if n == 3:
        if metric is None:
            raise DiffOpsError("n=3 requires a spatial metric")
        s = metric.sqrt_abs_g
        return AlternatingTensor(3, s, sx.pow_(s, -1))
    if n == 4:
        if det is None or sqrt_abs_det is None:
            raise DiffOpsError("n=4 requires det and sqrt(-det)")
        if isinstance(det, (int, float)):
            if det >= 0:
                raise DiffOpsError("4-D alternating tensor requires det g < 0")
            return AlternatingTensor(4, -sqrt_abs_det, 1.0 / sqrt_abs_det)
        return AlternatingTensor(4, -sqrt_abs_det, sx.pow_(sqrt_abs_det, -1))
    raise DiffOpsError("alternating tensor supports n in {3, 4}")


# ---------------------------------------------------------------------------
# Holonomic operators
# ---------------------------------------------------------------------------

def grad(phi, chart):
    """Covariant holonomic gradient: component i = d phi / d u^i."""
    comps = tuple(diff(phi, c) for c in chart.coords)
    return ComponentVector(comps, "covariant", "holonomic")


def _require(v, variance, basis):
    if v.variance != variance or v.basis != basis:
        raise DiffOpsError(
            f"expected {variance} {basis} components, got {v.variance} {v.basis}")


def div(v, m):
    """(1/sqrt|g|) d_i(sqrt|g| f^i) for contravariant holonomic f."""
    _require(v, "contravariant", "holonomic")
    s = m.sqrt_abs_g
    inv = sx.pow_(s, -1)
    terms = [inv * diff(s * v.components[i], m.chart.coords[i])
             for i in range(m.dim)]
    return sx.add(*terms)


def curl(w, m):
    """Contravariant holonomic rotor: (1/sqrt g)(d_j f_k - d_k f_j), cyclic."""
    if m.dim != 3:
        raise DiffOpsError("rotor defined only in three dimensions")
    _require(w, "covariant", "holonomic")
    inv = sx.pow_(m.sqrt_abs_g, -1)
    coords = m.chart.coords
    comps = tuple(
        inv * (diff(w.components[k], coords[j]) - diff(w.components[j], coords[k]))
        for (_, j, k) in CYCLIC)
    return ComponentVector(comps, "contravariant", "holonomic")


def laplacian(phi, m):
    """(1/sqrt|g|) d_i(sqrt|g| g^ij d_j phi)."""
    s = m.sqrt_abs_g
    inv = sx.pow_(s, -1)
    coords = m.chart.coords
    terms = []
    for i in range(m.dim):
        flux = sx.add(*(m.g_hi[i][j] * diff(phi, coords[j]) for j in range(m.dim)))
        terms.append(inv * diff(s * flux, coords[i]))
    return sx.add(*terms)


# ---------------------------------------------------------------------------
# Nonholonomic (physical component) operators
# ---------------------------------------------------------------------------

def grad_nh(phi, m):
    """Physical-component gradient: (1/h_i) d_i phi."""
    h = lame_coefficients(m)
    comps = tuple(sx.pow_(h[i], -1) * diff(phi, m.chart.coords[i])
                  for i in range(m.dim))
    return ComponentVector(comps, "covariant", "nonholonomic")


def div_nh(v, m):
    """Divergence of physical contravariant components."""
    if v.basis != "nonholonomic" or v.variance != "contravariant":
        raise DiffOpsError("div_nh expects contravariant nonholonomic components")
    return div(convert_basis(v, m, "holonomic"), m)


def curl_nh(w, m):
    """Rotor of physical covariant components, result in physical basis."""
    if w.basis != "nonholonomic" or w.variance != "covariant":
        raise DiffOpsError("curl_nh expects covariant nonholonomic components")
    hol = curl(convert_basis(w, m, "holonomic"), m)
    return convert_basis(hol, m, "nonholonomic")
