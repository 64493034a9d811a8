"""Four-tensor packing, Hodge duality, derivative residuals, and spinors."""

import math

import numpy as np
import pytest

from curvmax import maxwell4 as m4
from curvmax import symexpr as sx
from curvmax.chart import builtin_chart, metric_from_chart


GM = m4.Metric4.minkowski()


def test_symbolic_assembly_matches_printed_matrix():
    E = tuple(sx.Var(f"E_{i}") for i in (1, 2, 3))
    B = tuple(sx.Var(f"B_{i}") for i in (1, 2, 3))
    F = m4.assemble_F_lower(E, B)
    m = F.matrix
    z = sx.ZERO
    assert m[0] == (z, E[0], E[1], E[2])
    assert (m[1][2], m[1][3]) == (sx.simplify(-B[2]), B[1])
    assert (m[2][3], m[3][1]) == (sx.simplify(-B[0]), sx.simplify(-B[1]))
    a, b = m4.read_pair(F)
    assert a == E and tuple(sx.simplify(x) for x in b) == B


def test_numpy_integer_components_assemble_and_dualize():
    a = sx.Var("a")
    got = m4.hodge_dual(m4.assemble_F_lower((a, 0, 0), np.array([1, 2, 3])), GM)
    assert got == m4.hodge_dual(m4.assemble_F_lower((a, 0, 0), (1, 2, 3)), GM)


def test_minkowski_dual_matches_printed_matrix():
    """*F^{ab} carries the pair (-B_i, -E^i) in the standard packing."""
    E = np.array([0.3, -1.2, 0.7])
    B = np.array([0.5, 0.2, -0.9])
    dual = m4.hodge_dual(m4.assemble_F_lower(E, B), GM)
    a, b = m4.read_pair(dual)
    assert np.allclose(a, -B) and np.allclose(b, -E)


def test_double_dual_is_minus_identity_50_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        a = a - a.T
        t = m4.FieldTensor4(tuple(map(tuple, a)), "lower", "F")
        dd = m4.hodge_dual(m4.hodge_dual(t, GM), GM)
        assert np.max(np.abs(dd.as_array() + a)) <= 1e-12


def test_pair_table_minkowski():
    report = m4.check_pair_table(GM, seed=2)
    assert report.passed, "\n".join(report.lines())


def test_pair_table_curvilinear_lift_10_random_r():
    rng = np.random.default_rng(7)
    for _ in range(10):
        r = float(rng.uniform(0.2, 3.0))
        g = m4.Metric4.numeric(np.diag([1.0, -1.0, -r * r, -1.0]))
        report = m4.check_pair_table(g, seed=2)
        assert report.passed, f"r={r}: " + "\n".join(report.lines())


def test_symbolic_spacetime_lift_from_spatial_metric():
    mc = metric_from_chart(builtin_chart("cylindrical"))
    g4 = m4.Metric4.from_spatial(mc)
    assert g4.is_symbolic
    gn = g4.evaluate({"r": 1.7, "phi": 0.3, "z": 0.1})
    assert gn.g_lo[2][2] == pytest.approx(-1.7 ** 2)
    assert m4.check_pair_table(gn, seed=2).passed


def test_bianchi_residual_vanishes_for_potential_field():
    def f_from_potential(x):
        # A = (0, sin(x3 - x0), 0, 0); F = dA
        t, _, _, z = x
        f = np.zeros((4, 4))
        f[0, 1] = -math.cos(z - t)
        f[1, 0] = -f[0, 1]
        f[3, 1] = math.cos(z - t)
        f[1, 3] = -f[3, 1]
        return f

    pt = np.array([0.2, 0.1, -0.4, 0.9])
    assert np.max(np.abs(m4.bianchi_residual(f_from_potential, GM, pt))) < 1e-7


def test_source_residual_vanishes_for_vacuum_plane_wave():
    def g_up(x):
        t, _, _, z = x
        d = np.array([0.0, math.cos(z - t), 0.0])
        h = np.array([-math.cos(z - t), 0.0, 0.0])
        return m4.raise4(m4.assemble_G_lower(d, h), GM)

    pt = np.array([0.2, 0.1, -0.4, 0.9])
    res = m4.source_residual_4(g_up, lambda x: np.zeros(4), GM, pt)
    assert np.max(np.abs(res)) < 1e-7


# ---------------------------------------------------------------------------
# Spinor representation
# ---------------------------------------------------------------------------

def test_phi_canonical_values():
    # E along x: F = (1,0,0), phi = diag(1/2, -1/2)
    phi = m4.phi_from_EB((1, 0, 0), (0, 0, 0)).phi
    assert np.allclose(phi, np.diag([0.5, -0.5]))
    # B along z: F = (0,0,-i), phi_01 = phi_10 = i/2
    phi = m4.phi_from_EB((0, 0, 0), (0, 0, 1)).phi
    assert np.allclose(phi, np.array([[0, 0.5j], [0.5j, 0]]))
    # E along y: F = (0,1,0), phi = diag(-i/2, -i/2)
    phi = m4.phi_from_EB((0, 1, 0), (0, 0, 0)).phi
    assert np.allclose(phi, np.diag([-0.5j, -0.5j]))


def test_spinor_roundtrip_100_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        E, B = rng.normal(size=3), rng.normal(size=3)
        f = m4.reconstruct_F_from_spinor(m4.phi_from_EB(E, B))
        ref = m4.assemble_F_lower(E, B)
        assert np.max(np.abs(f.as_array() - ref.as_array())) <= 1e-12


def _make_field(rng):
    cf = rng.normal(size=(3, 4))
    amp = rng.normal(size=3)
    ph = rng.normal(size=3)
    return lambda x: np.array([amp[i] * np.sin(cf[i] @ x + ph[i])
                               for i in range(3)])


def _fd(f, x, axis, h=1e-4):
    hi, lo = np.array(x, float), np.array(x, float)
    hi[axis] += h
    lo[axis] -= h
    return (f(hi) - f(lo)) / (2 * h)


def _curl(f, x):
    jac = np.array([_fd(f, x, a) for a in (1, 2, 3)])
    return np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2],
                     jac[0, 1] - jac[1, 0]])


def test_spinor_residual_matches_complex_combination():
    rng = np.random.default_rng(23)
    e_f, b_f = _make_field(rng), _make_field(rng)
    pt = np.array([0.2, 0.1, -0.4, 0.9])
    s = m4.spinor_maxwell_residual(lambda x: m4.phi_from_EB(e_f(x), b_f(x)),
                                   lambda x: np.zeros(4), pt)
    far = _curl(e_f, pt) + _fd(b_f, pt, 0)
    amp = _curl(b_f, pt) - _fd(e_f, pt, 0)
    div_e = sum(_fd(e_f, pt, a)[a - 1] for a in (1, 2, 3))
    div_b = sum(_fd(b_f, pt, a)[a - 1] for a in (1, 2, 3))
    scale = max(1.0, np.max(np.abs(s)))
    assert abs(s[0] - (div_e - 1j * div_b) / 2) / scale < 1e-6
    assert np.max(np.abs(s[1:] - (amp + 1j * far) / 2)) / scale < 1e-6


def test_spinor_residual_vanishes_for_vacuum_plane_wave():
    def phi_pw(x):
        return m4.phi_from_EB(np.array([0, math.cos(x[3] - x[0]), 0]),
                              np.array([-math.cos(x[3] - x[0]), 0, 0]))

    pt = np.array([0.7, -0.2, 0.5, 1.1])
    res = m4.spinor_maxwell_residual(phi_pw, lambda x: np.zeros(4), pt)
    assert np.max(np.abs(res)) < 1e-7


def test_vector_spinor_map_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(m4.unmap_vector4(m4.map_vector4(v)), v)


def test_antisymmetry_validation():
    with pytest.raises(m4.Maxwell4Error):
        m4.FieldTensor4(tuple(map(tuple, np.eye(4))), "lower", "F")


def test_symbolic_metric_requires_diagonal():
    with pytest.raises(m4.Maxwell4Error):
        m4.Metric4.numeric(np.diag([1.0, 1.0, 1.0, 1.0]))  # det > 0
