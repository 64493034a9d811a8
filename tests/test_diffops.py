"""Differential operators: Cartesian pullback oracle and basis consistency.

The oracle: define smooth fields in Cartesian coordinates, compose them with
the chart embedding, apply the chart-space operators, and compare numerically
(through the Jacobian) with the same operators applied directly in Cartesian
coordinates.  The two computations share no code path beyond the expression
evaluator, so agreement validates the curvilinear formulas.
"""

import numpy as np
import pytest

from curvmax import diffops
from curvmax import symexpr as sx
from curvmax.chart import (ComponentVector, _mat_det, _mat_inverse,
                           builtin_chart, convert_basis, jacobian,
                           metric_from_chart)
from curvmax.diffops import (curl, curl_nh, div, div_nh, grad, grad_nh,
                             laplacian)
from curvmax.symexpr import (FieldAtom, Var, diff, equivalent, eval_expr,
                             simplify, substitute)

CHART_NAMES = ("cartesian", "cylindrical", "spherical")

# Smooth Cartesian basis functions for random field synthesis.
_X, _Y, _Z = Var("x"), Var("y"), Var("z")
_BASIS = (_X, _Y, _Z, _X * _Y, _Y * _Z, _X * _Z, _X * _X, _Y * _Y * _Z,
          sx.sin(_X), sx.cos(_Y) * _Z)


def _random_scalar(rng):
    coeffs = rng.normal(size=len(_BASIS))
    return simplify(sx.add(*(sx.Const(float(c)) * b
                             for c, b in zip(coeffs, _BASIS))))


def _sample_points(chart, rng, n):
    dom = chart.domains()
    pts = []
    for _ in range(n):
        pts.append({c: float(rng.uniform(lo + 0.1 * (hi - lo),
                                         hi - 0.1 * (hi - lo)))
                    for c, (lo, hi) in dom.items()})
    return pts


def _cart_binding(chart, point):
    return {name: eval_expr(e, point)
            for name, e in zip(("x", "y", "z"), chart.embedding)}


def _chart_fields(chart, phi_cart, vec_cart):
    """Chart-space scalar and (contravariant, covariant) vector components."""
    sub = dict(zip(("x", "y", "z"), chart.embedding))
    phi_c = substitute(phi_cart, sub)
    j = jacobian(chart).matrix
    jdet = _mat_det(j)
    jinv = _mat_inverse(j, jdet)
    v_up = ComponentVector(
        tuple(simplify(sx.add(*(jinv[i][a] * substitute(vec_cart[a], sub)
                                for a in range(3)))) for i in range(3)),
        "contravariant", "holonomic")
    w_lo = ComponentVector(
        tuple(simplify(sx.add(*(j[a][i] * substitute(vec_cart[a], sub)
                                for a in range(3)))) for i in range(3)),
        "covariant", "holonomic")
    return phi_c, v_up, w_lo, j


def _cart_ops(phi, vec):
    g = tuple(diff(phi, v) for v in ("x", "y", "z"))
    d = sx.add(*(diff(vec[a], v) for a, v in enumerate(("x", "y", "z"))))
    c = (diff(vec[2], "y") - diff(vec[1], "z"),
         diff(vec[0], "z") - diff(vec[2], "x"),
         diff(vec[1], "x") - diff(vec[0], "y"))
    lap = sx.add(*(diff(diff(phi, v), v) for v in ("x", "y", "z")))
    return g, d, c, lap


@pytest.mark.parametrize("chart_name", CHART_NAMES)
def test_operators_match_cartesian_oracle(chart_name):
    rng = np.random.default_rng(42)
    chart = builtin_chart(chart_name)
    m = metric_from_chart(chart)
    for trial in range(20):
        phi_cart = _random_scalar(rng)
        vec_cart = tuple(_random_scalar(rng) for _ in range(3))
        phi_c, v_up, w_lo, j = _chart_fields(chart, phi_cart, vec_cart)
        g_cart, d_cart, c_cart, lap_cart = _cart_ops(phi_cart, vec_cart)
        g_chart = grad(phi_c, chart)
        d_chart = div(v_up, m)
        c_chart = curl(w_lo, m)
        lap_chart = laplacian(phi_c, m)
        for point in _sample_points(chart, rng, 3):
            xb = _cart_binding(chart, point)
            jn = np.array([[eval_expr(j[a][i], point) for i in range(3)]
                           for a in range(3)])

            def close(a, b):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

            # gradient: (grad_c)_i = J^a_i (grad_cart)_a
            gc = np.array([eval_expr(g_chart[i], point) for i in range(3)])
            ga = np.array([eval_expr(g_cart[a], xb) for a in range(3)])
            close(gc.tolist(), (jn.T @ ga).tolist())
            # divergence and laplacian are scalars
            close(eval_expr(d_chart, point), eval_expr(d_cart, xb))
            close(eval_expr(lap_chart, point), eval_expr(lap_cart, xb))
            # curl: contravariant chart components push forward with J
            cc = np.array([eval_expr(c_chart[i], point) for i in range(3)])
            ca = np.array([eval_expr(c_cart[a], xb) for a in range(3)])
            close((jn @ cc).tolist(), ca.tolist())


@pytest.mark.parametrize("chart_name", CHART_NAMES)
def test_nonholonomic_operators_match_converted_holonomic(chart_name):
    chart = builtin_chart(chart_name)
    m = metric_from_chart(chart)
    dom = chart.domains()
    phi = FieldAtom("f", chart.coords)
    v = ComponentVector(tuple(FieldAtom(f"u_{i}", chart.coords) for i in range(3)),
                        "contravariant", "holonomic")
    w = ComponentVector(tuple(FieldAtom(f"w_{i}", chart.coords) for i in range(3)),
                        "covariant", "holonomic")
    # gradient
    lhs = grad_nh(phi, m)
    rhs = convert_basis(grad(phi, chart), m, "nonholonomic")
    assert all(equivalent(a, b, dom, seed=9) for a, b in zip(lhs, rhs))
    # divergence
    assert equivalent(div_nh(convert_basis(v, m, "nonholonomic"), m),
                      div(v, m), dom, seed=9)
    # rotor
    lhs = curl_nh(convert_basis(w, m, "nonholonomic"), m)
    rhs = convert_basis(curl(w, m), m, "nonholonomic")
    assert all(equivalent(a, b, dom, seed=9) for a, b in zip(lhs, rhs))


def test_spherical_laplacian_closed_form():
    chart = builtin_chart("spherical")
    m = metric_from_chart(chart)
    phi = FieldAtom("f", chart.coords)
    # Standard expansion: f_rr + (2/r) f_r + (1/r^2) f_tt
    #   + (ctg theta / r^2) f_t + (1/(r^2 sin^2 theta)) f_pp
    r, th = Var("r"), Var("theta")
    f_r = diff(phi, "r")
    f_rr = diff(f_r, "r")
    f_t = diff(phi, "theta")
    f_tt = diff(f_t, "theta")
    f_pp = diff(diff(phi, "phi"), "phi")
    expected = (f_rr + sx.Const(2) * sx.pow_(r, -1) * f_r
                + sx.pow_(r, -2) * f_tt
                + sx.pow_(r, -2) * sx.cos(th) * sx.pow_(sx.sin(th), -1) * f_t
                + sx.pow_(r, -2) * sx.pow_(sx.sin(th), -2) * f_pp)
    assert equivalent(laplacian(phi, m), expected, chart.domains(), seed=11)


@pytest.mark.parametrize("chart_name", CHART_NAMES)
def test_laplacian_takes_each_first_derivative_once(chart_name, monkeypatch):
    chart = builtin_chart(chart_name)
    m = metric_from_chart(chart)
    phi = FieldAtom("f", chart.coords)
    # the formula as written: d_j phi inside the sum over i
    inv = sx.pow_(m.sqrt_abs_g, -1)
    want = sx.add(*(
        inv * diff(m.sqrt_abs_g * sx.add(*(m.g_hi[i][j] * diff(phi, chart.coords[j])
                                           for j in range(3))), chart.coords[i])
        for i in range(3)))
    calls = []

    def counting_diff(e, v):
        calls.append((e, v))
        return diff(e, v)
    monkeypatch.setattr(diffops, "partials", lambda: counting_diff)
    assert laplacian(phi, m) == want
    # three first derivatives of phi, then one derivative of each flux
    assert [v for e, v in calls if e == phi] == list(chart.coords)
    assert len(calls) == 6
