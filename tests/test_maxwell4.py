"""Four-tensor packing, Hodge duality, derivative residuals, and spinors."""

import dataclasses
import math

import numpy as np
import pytest

from curvmax import maxwell4 as m4
from curvmax import rs_momentum as rs
from curvmax import symexpr as sx
from curvmax.chart import builtin_chart, metric_from_chart
from curvmax.maxwell3 import Sources3, symbolic_sources


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


def _numeric_at(g4, point):
    """The numeric metric of a symbolic one's entries at ``point``."""
    return m4.Metric4.numeric([[sx.eval_expr(x, point) for x in row] for row in g4.g_lo])


def test_symbolic_spacetime_lift_from_spatial_metric():
    mc = metric_from_chart(builtin_chart("cylindrical"))
    g4 = m4.Metric4.from_spatial(mc)
    assert g4.is_symbolic
    gn = _numeric_at(g4, {"r": 1.7, "phi": 0.3, "z": 0.1})
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
        spinor = np.einsum('aAP,a->AP', m4.IVDW, v)  # v^{AA'} = g_alpha^{AA'} v^alpha
        assert np.allclose(m4.unmap_vector4(spinor), v)


def test_antisymmetry_validation():
    with pytest.raises(m4.Maxwell4Error):
        m4.FieldTensor4(tuple(map(tuple, np.eye(4))), "lower", "F")


def test_symbolic_antisymmetry_is_decided_by_expansion():
    # -(x + y) is a product that only expansion cancels against x + y
    x, y = sx.Var("x"), sx.Var("y")
    F = m4.assemble_F_lower((x + y, 0, 0), (0, 0, 0))
    assert F.matrix[0][1] == x + y and F.matrix[1][0] == -(x + y)
    with pytest.raises(m4.Maxwell4Error, match="antisymmetric"):
        m4.FieldTensor4(((0, x, 0, 0), (-y, 0, 0, 0), (0,) * 4, (0,) * 4), "lower", "F")


def test_antisymmetry_tolerance_scales_with_the_entries():
    # Raising a large tensor on a dense metric leaves rounding noise far
    # above 1e-12 in F^{ab} + F^{ba}; a real asymmetry is still rejected.
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.normal(scale=0.2, size=(4, 4))
        g = np.diag([1.0, -1.0, -1.0, -1.0]) + p + p.T
        if np.linalg.det(g) >= 0:
            continue
        g = m4.Metric4.numeric(g)
        a = 1e4 * rng.normal(size=(4, 4))
        up = m4.raise4(m4.FieldTensor4(tuple(map(tuple, a - a.T)), "lower", "F"), g)
        assert up.variance == "upper"
    a = 1e4 * rng.normal(size=(4, 4))
    a = a - a.T
    a[0, 1] += 1e-6 * np.max(np.abs(a))
    with pytest.raises(m4.Maxwell4Error, match="antisymmetric"):
        m4.FieldTensor4(tuple(map(tuple, a)), "lower", "F")


def test_symbolic_metric_requires_diagonal():
    with pytest.raises(m4.Maxwell4Error):
        m4.Metric4.numeric(np.diag([1.0, 1.0, 1.0, 1.0]))  # det > 0


@pytest.mark.parametrize("entries", [
    (sx.ONE,) * 4,
    (sx.Var("x"), 1, 1, 1),
    (sx.Var("x"), -1, 1, -1),
    (sx.Var("x"), 0, -1, -1),
], ids=["ones", "symbolic-positive", "two-negative", "zero"])
def test_symbolic_diagonal_metric_with_det_not_negative_is_refused(entries):
    with pytest.raises(m4.Maxwell4Error, match="det < 0"):
        m4.Metric4.diagonal(entries)


def test_symbolic_diagonal_metric_with_negative_det_is_kept():
    x = sx.Var("x")
    m = m4.Metric4.diagonal((sx.ONE, -x, -1, -1))
    assert m.det == sx.simplify(-x) and m.sqrt_minus_g == sx.sqrt(x)


# ---------------------------------------------------------------------------
# Contractions against a nested-loop oracle over all 256 index tuples
# ---------------------------------------------------------------------------

def _oracle_nonzero(x):
    return x != sx.ZERO if isinstance(x, sx.Expr) else x != 0


def _oracle_parity(idx):
    if len(set(idx)) != len(idx):
        return 0
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def _oracle_contract_two(t, g_mat):
    sym = m4._is_sym(t.matrix) or m4._is_sym(g_mat)
    out = []
    for a in range(4):
        row = []
        for b in range(4):
            terms = [g_mat[a][c] * g_mat[b][d] * t.matrix[c][d]
                     for c in range(4) for d in range(4)
                     if _oracle_nonzero(g_mat[a][c]) and _oracle_nonzero(g_mat[b][d])
                     and _oracle_nonzero(t.matrix[c][d])]
            if not terms:
                row.append(sx.ZERO if sym else 0.0)
            else:
                row.append(sx.add(*terms) if sym else sum(terms))
        out.append(tuple(row))
    return tuple(out)


def _oracle_hodge(t, g):
    """(1/2) e T with e_{abcd} = -sqrt(-g)[abcd], e^{abcd} = [abcd]/sqrt(-g)."""
    s = g.sqrt_minus_g
    upper = 1.0 / s if isinstance(g.det, (int, float)) else sx.pow_(s, -1)
    pref = upper if t.variance == "lower" else -s
    sym = t.is_symbolic or isinstance(s, sx.Expr)
    out = []
    for a in range(4):
        row = []
        for b in range(4):
            terms = []
            for c in range(4):
                for d in range(4):
                    e = _oracle_parity((a, b, c, d))
                    w = (sx.ZERO if e == 0 else sx.Const(e) * pref) if sym else e * pref
                    if _oracle_nonzero(w) and _oracle_nonzero(t.matrix[c][d]):
                        terms.append(w * t.matrix[c][d])
            if not terms:
                row.append(sx.ZERO if sym else 0.0)
            else:
                row.append(sx.add(*terms) / 2 if sym else 0.5 * sum(terms))
        out.append(tuple(row))
    return tuple(out)


def _hex(matrix):
    return [[float(x).hex() for x in row] for row in matrix]


def _numeric_metrics():
    rng = np.random.default_rng(5)
    r = float(rng.uniform(0.3, 2.5))
    p = rng.normal(scale=0.2, size=(4, 4))
    dense = m4.Metric4.numeric(np.diag([1.0, -1.0, -1.0, -1.0]) + p + p.T)
    assert dense.det < 0 and dense.g_lo[0][1] != 0.0
    return [GM, m4.Metric4.numeric(np.diag([1.0, -1.0, -r * r, -1.0])), dense]


@pytest.mark.parametrize("which", range(3))
def test_numeric_contractions_bitwise_equal_nested_loop_oracle(which):
    g = _numeric_metrics()[which]
    rng = np.random.default_rng(11 + which)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        # antisymmetric up to rounding noise, so that no mirrored pair of
        # terms cancels or doubles exactly
        a = tuple(map(tuple, a - a.T + 1e-14 * rng.normal(size=(4, 4))))
        lo = m4.FieldTensor4(a, "lower", "F")
        up = m4.FieldTensor4(a, "upper", "G")
        assert _hex(m4.hodge_dual(lo, g).matrix) == _hex(_oracle_hodge(lo, g))
        assert _hex(m4.hodge_dual(up, g).matrix) == _hex(_oracle_hodge(up, g))
        assert _hex(m4.raise4(lo, g).matrix) == _hex(_oracle_contract_two(lo, g.g_hi))


def _symbolic_pair(variance):
    E = tuple(sx.Var(f"E_{i}") for i in (1, 2, 3))
    B = tuple(sx.Var(f"B_{i}") for i in (1, 2, 3))
    return m4.assemble_pair(E, B, variance, "F")


def test_symbolic_contractions_structurally_equal_nested_loop_oracle():
    g4 = m4.Metric4.from_spatial(metric_from_chart(builtin_chart("spherical")))
    lo, up = _symbolic_pair("lower"), _symbolic_pair("upper")
    assert m4.hodge_dual(lo, g4).matrix == _oracle_hodge(lo, g4)
    assert m4.hodge_dual(up, g4).matrix == _oracle_hodge(up, g4)
    assert m4.raise4(lo, g4).matrix == _oracle_contract_two(lo, g4.g_hi)
    # symbolic tensor with float entries on a numeric metric
    g = _numeric_metrics()[1]
    mixed = m4.assemble_F_lower((sx.Var("a"), 0.3, 0), (1.7, 2, -0.1))
    assert m4.hodge_dual(mixed, g).matrix == _oracle_hodge(mixed, g)
    assert m4.raise4(mixed, g).matrix == _oracle_contract_two(mixed, g.g_hi)


def test_symbolic_raise_matches_numeric_at_a_point():
    g4 = m4.Metric4.from_spatial(metric_from_chart(builtin_chart("spherical")))
    point = {"r": 1.3, "theta": 0.7, "phi": 0.4}
    gn = _numeric_at(g4, point)
    rng = np.random.default_rng(3)
    E, B = rng.normal(size=3), rng.normal(size=3)
    binding = dict(point)
    binding.update({f"E_{i + 1}": E[i] for i in range(3)})
    binding.update({f"B_{i + 1}": B[i] for i in range(3)})
    sym = m4.raise4(_symbolic_pair("lower"), g4)
    assert sym.is_symbolic
    got = np.array([[sx.eval_expr(x, binding) for x in row] for row in sym.matrix])
    want = m4.raise4(m4.assemble_pair(E, B, "lower", "F"), gn).as_array()
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# Fixed settings: c = 1 and fixed steps, no keyword to change them
# ---------------------------------------------------------------------------

def _removed_keyword_calls():
    m = metric_from_chart(builtin_chart("cartesian"))
    pt = np.array([0.1, 0.2, 0.3, 0.4])
    e = np.array([1.0, 0.0, 0.0])

    def kl(x):
        return rs.kl_from_rs(rs.to_rs(e, e, e, e))

    def src(x):
        return 0.0, np.zeros(3)

    spec = np.zeros((3, 2, 2, 2))
    kv = rs.wavevectors((2, 2, 2), (1.0, 1.0, 1.0))
    x = sx.Var("x")
    return {
        "rs_residual": lambda **kw: rs.rs_residual(kl, src, m, pt, **kw),
        "isotropic_residual": lambda **kw: rs.isotropic_residual(
            lambda p: (e, e), src, rs.MediumParams(1.0, 1.0), m, pt, **kw),
        "maxwell_k_residual": lambda **kw: rs.maxwell_k_residual(
            spec, spec, spec, spec, spec, spec, spec[0], spec, kv, **kw),
        "SpectralField": lambda **kw: rs.SpectralField(spec[0], kvecs=kv, **kw),
        "source_residual_4": lambda **kw: m4.source_residual_4(
            lambda p: m4.raise4(m4.assemble_G_lower(e, e), GM), lambda p: np.zeros(4),
            GM, pt, **kw),
        "spinor_maxwell_residual": lambda **kw: m4.spinor_maxwell_residual(
            lambda p: m4.phi_from_EB(e, e), lambda p: np.zeros(4), pt, **kw),
        "EMSpinor": lambda **kw: m4.EMSpinor(np.eye(2), **kw),
        "check_pair_table": lambda **kw: m4.check_pair_table(GM, seed=2, **kw),
        "equivalent": lambda **kw: sx.equivalent(x, x, seed=2, **kw),
        "symbolic_sources": lambda **kw: symbolic_sources(m.chart, **kw),
        "Sources3": lambda **kw: Sources3(sx.ZERO, symbolic_sources(m.chart).j, **kw),
    }


# a value each removed keyword used to accept
_REMOVED_DEFAULTS = {"c": 1.0, "h": 1e-4, "tol": 1e-10, "n": 100, "rtol": 1e-10,
                     "gamma": np.eye(2), "spacing": (1.0, 1.0, 1.0)}


@pytest.mark.parametrize("name, keyword", [
    ("rs_residual", "c"), ("rs_residual", "h"),
    ("isotropic_residual", "c"), ("isotropic_residual", "h"),
    ("maxwell_k_residual", "c"), ("SpectralField", "spacing"),
    ("source_residual_4", "c"),
    ("spinor_maxwell_residual", "c"), ("spinor_maxwell_residual", "h"),
    ("EMSpinor", "gamma"), ("check_pair_table", "tol"),
    ("equivalent", "n"), ("equivalent", "rtol"),
    ("symbolic_sources", "c"), ("Sources3", "c"),
])
def test_removed_settings_are_refused(name, keyword):
    call = _removed_keyword_calls()[name]
    call()  # the call is valid without the keyword
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: _REMOVED_DEFAULTS[keyword]})


def test_numeric_records_hold_only_what_their_callers_set():
    fields = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (Sources3, m4.EMSpinor, rs.SpectralField)}
    assert fields == {Sources3: ["rho", "j"], m4.EMSpinor: ["phi"],
                      rs.SpectralField: ["values", "kvecs"]}
