"""Covariant differential operators in holonomic and nonholonomic bases.

All operators follow the metric-compatible, torsion-free connection; the
divergence and Laplacian use the sqrt|g|-densitized forms, and the curl
takes (i, j, k) over the cyclic permutations of (1, 2, 3) listed in
``CYCLIC``.
"""

from __future__ import annotations

from . import symexpr as sx
from .chart import ComponentVector, convert_basis, lame_coefficients
from .symexpr import diff

__all__ = [
    "grad", "div", "curl", "laplacian", "grad_nh", "div_nh", "curl_nh",
    "DiffOpsError",
]

CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class DiffOpsError(Exception):
    pass


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
