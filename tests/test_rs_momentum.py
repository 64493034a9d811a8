"""Complex field-vector and momentum-space representations."""

import math

import numpy as np
import pytest

from curvmax import rs_momentum as rs
from curvmax.chart import builtin_chart, metric_from_chart

M_CART = metric_from_chart(builtin_chart("cartesian"))


def _no_source(x):
    return 0.0, np.zeros(3)


def test_vacuum_kl_reduction_is_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        E, B = rng.normal(size=3), rng.normal(size=3)
        kl = rs.kl_from_rs(rs.to_rs(E, B, E, B))
        assert kl.K == tuple(e + 1j * b for e, b in zip(E, B))
        assert kl.L == (0j, 0j, 0j)


def test_kl_rs_roundtrip():
    # D != E and H != B, so this checks the general formula, not its vacuum reduction
    rng = np.random.default_rng(1)
    E, B, D, H = (rng.normal(size=3) for _ in range(4))
    F, G = E + 1j * B, D + 1j * H
    kl = rs.kl_from_rs(rs.to_rs(E, B, D, H))
    K, L = np.array(kl.K), np.array(kl.L)
    assert np.allclose(K, (G + F) / 2, rtol=0, atol=1e-15)
    assert np.allclose(L, (G.conj() - F.conj()) / 2, rtol=0, atol=1e-15)
    assert np.allclose(K - L.conj(), F, rtol=0, atol=1e-15)
    assert np.allclose(K + L.conj(), G, rtol=0, atol=1e-15)


def test_rs_residual_vanishes_for_vacuum_plane_wave():
    def kl_pw(x):
        E = np.array([0, math.cos(x[3] - x[0]), 0])
        B = np.array([-math.cos(x[3] - x[0]), 0, 0])
        return rs.kl_from_rs(rs.to_rs(E, B, E, B))

    g, c = rs.rs_residual(kl_pw, _no_source, M_CART, [0.3, 0.2, -0.1, 0.4])
    assert abs(g) < 1e-9 and np.max(np.abs(c)) < 1e-9


def _make_field(rng):
    cf = rng.normal(size=(3, 4))
    amp = rng.normal(size=3)
    ph = rng.normal(size=3)
    return lambda x: np.array([amp[i] * math.sin(cf[i] @ x + ph[i])
                               for i in range(3)])


def _fd(f, x, axis, h=1e-5):
    hi, lo = np.array(x, float), np.array(x, float)
    hi[axis] += h
    lo[axis] -= h
    return (f(hi) - f(lo)) / (2 * h)


def test_rs_residual_equals_complex_combination_of_real_residuals():
    rng = np.random.default_rng(0)
    e_f, b_f = _make_field(rng), _make_field(rng)

    def klf(x):
        return rs.kl_from_rs(rs.to_rs(e_f(x), b_f(x), e_f(x), b_f(x)))

    pt = np.array([0.5, 0.3, 0.7, 0.2])
    g, c = rs.rs_residual(klf, _no_source, M_CART, pt)

    def curl(f, x):
        jac = np.array([_fd(f, x, a) for a in (1, 2, 3)])
        return np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2],
                         jac[0, 1] - jac[1, 0]])

    far = curl(e_f, pt) + _fd(b_f, pt, 0)
    amp = curl(b_f, pt) - _fd(e_f, pt, 0)
    div_e = sum(_fd(e_f, pt, a)[a - 1] for a in (1, 2, 3))
    div_b = sum(_fd(b_f, pt, a)[a - 1] for a in (1, 2, 3))
    assert abs(g - (div_e + 1j * div_b)) < 1e-9
    assert np.max(np.abs(c - (far + 1j * amp))) < 1e-9


def test_isotropic_medium_plane_wave():
    med = rs.MediumParams(2.0, 3.0)
    v = 1 / math.sqrt(6)

    def eb(x):
        ph = x[3] - v * x[0]
        return (np.array([0, math.cos(ph), 0]),
                math.sqrt(6) * np.array([-math.cos(ph), 0, 0]))

    g, c = rs.isotropic_residual(eb, _no_source, med, M_CART,
                                 [0.5, 0.3, 0.7, 0.2])
    assert abs(g) < 1e-9 and np.max(np.abs(c)) < 1e-9


def test_isotropic_unit_medium_equals_vacuum_form():
    rng = np.random.default_rng(5)
    e_f, b_f = _make_field(rng), _make_field(rng)
    pt = [0.5, 0.3, 0.7, 0.2]
    g1, c1 = rs.isotropic_residual(lambda x: (e_f(x), b_f(x)), _no_source,
                                   rs.MediumParams(1.0, 1.0), M_CART, pt)
    g2, c2 = rs.rs_residual(
        lambda x: rs.kl_from_rs(rs.to_rs(e_f(x), b_f(x), e_f(x), b_f(x))),
        _no_source, M_CART, pt)
    assert abs(g1 - g2) < 1e-8 and np.max(np.abs(c1 - c2)) < 1e-8


def test_isotropic_residual_rejects_singular_metric_point():
    m = metric_from_chart(builtin_chart("cylindrical"))
    with pytest.raises(rs.RSError):
        rs.isotropic_residual(lambda x: (np.ones(3), np.zeros(3)), _no_source,
                              rs.MediumParams(1.0, 1.0), m, [0.0, 0.0, 0.3, 0.2])


def test_fft_roundtrip_and_parseval():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(16, 16, 16))
    spec = rs.fft_forward(a, (0.1, 0.2, 0.3))
    assert np.max(np.abs(rs.fft_inverse(spec) - a)) <= 1e-12
    assert abs(np.linalg.norm(a) - np.linalg.norm(spec.values)) <= 1e-12


def test_spectral_derivative_rule_band_limited():
    n, length = 32, 2.0
    xs = np.arange(n) * length / n
    k0 = 2 * math.pi / length
    f = np.sin(3 * k0 * xs) + 0.5 * np.cos(5 * k0 * xs)
    df = 3 * k0 * np.cos(3 * k0 * xs) - 2.5 * k0 * np.sin(5 * k0 * xs)
    assert rs.spectral_derivative_check(f, df, (length / n,), 0) < 1e-10


def test_maxwell_k_residual_on_exact_mode():
    n = 16
    dx = 2 * math.pi / n
    x = np.arange(n) * dx
    _, _, Z = np.meshgrid(x, x, x, indexing="ij")
    t = 0.4
    ey = np.cos(Z - t)
    zero = np.zeros_like(ey)
    E3 = np.stack([zero, ey, zero])
    B3 = np.stack([-ey, zero, zero])
    dtE = np.stack([zero, np.sin(Z - t), zero])
    dtB = np.stack([-np.sin(Z - t), zero, zero])

    def hat(arr):
        return np.stack([rs.fft_forward(comp, (dx, dx, dx)).values
                         for comp in arr])

    kv = rs.wavevectors((n, n, n), (dx, dx, dx))
    res = rs.maxwell_k_residual(hat(E3), hat(B3), hat(E3), hat(B3),
                                hat(dtE), hat(dtB), np.zeros((n, n, n)),
                                np.zeros((3, n, n, n)), kv)
    for name, val in res.items():
        assert np.max(np.abs(val)) < 1e-9, name


def test_maxwell_k_residual_on_a_sheared_affine_chart():
    """A vacuum plane wave pulled back to u on the chart x = J u, whose
    metric g3 = J^T J is constant: contravariant components E^u = J^-1 E^x
    and wavevector k_u = J^T k_x."""
    n = 16
    du = 2 * math.pi / n
    jac = np.array([[1.0, 0.4, 0.2], [0.0, 1.2, -0.3], [0.1, 0.0, 0.9]])
    k_u = np.array([1.0, -2.0, 1.0])  # integer, so the wave is periodic on the u-lattice
    k_x = np.linalg.solve(jac.T, k_u)
    omega = np.linalg.norm(k_x)  # c = 1
    e_x = np.cross(k_x, [0.0, 0.0, 1.0])
    e_x /= np.linalg.norm(e_x)
    b_x = np.cross(k_x / omega, e_x)
    e_u, b_u = np.linalg.solve(jac, e_x), np.linalg.solve(jac, b_x)
    u = np.meshgrid(*[np.arange(n) * du] * 3, indexing="ij")
    phase = sum(k * ui for k, ui in zip(k_u, u)) - omega * 0.4
    cos, sin = np.cos(phase), np.sin(phase)

    def hat(amplitude, wave):
        return np.stack([rs.fft_forward(a * wave, (du, du, du)).values for a in amplitude])

    E, B = hat(e_u, cos), hat(b_u, cos)
    dtE, dtB = hat(omega * e_u, sin), hat(omega * b_u, sin)
    kv = rs.wavevectors((n, n, n), (du, du, du))
    zero_rho, zero_j = np.zeros((n, n, n)), np.zeros((3, n, n, n))
    # in vacuum D^i = E^i and H^i = B^i
    res = rs.maxwell_k_residual(E, B, E, B, dtE, dtB, zero_rho, zero_j, kv, g3=jac.T @ jac)
    for name, val in res.items():
        assert np.max(np.abs(val)) <= 1e-12, name
    flat = rs.maxwell_k_residual(E, B, E, B, dtE, dtB, zero_rho, zero_j, kv)
    for name in ("faraday", "ampere"):
        assert np.max(np.abs(flat[name])) > 1.0, name


def test_maxwell_k_residual_equals_fft_of_real_space_residuals():
    """Single non-solution mode: analytic real-space residuals, transformed."""
    n = 16
    dx = 2 * math.pi / n
    x = np.arange(n) * dx
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    ey = np.cos(Z) * np.sin(X)
    zero = np.zeros_like(ey)
    E3 = np.stack([zero, ey, zero])        # only E_2 nonzero, static
    B3 = np.stack([zero, zero, zero])
    dt = np.zeros_like(E3)
    # analytic residuals (Cartesian, no sources, all time derivatives zero):
    # faraday = curl E = (-dZ ey, 0, dX ey), ampere = 0,
    # gauss_D = div E = dY ey = 0, gauss_B = 0
    curl_e = np.stack([np.sin(Z) * np.sin(X), zero, np.cos(Z) * np.cos(X)])
    div_e = zero

    def hat(arr):
        return rs.fft_forward(arr, (dx, dx, dx)).values

    kv = rs.wavevectors((n, n, n), (dx, dx, dx))
    res = rs.maxwell_k_residual(np.stack([hat(c) for c in E3]),
                                np.stack([hat(c) for c in B3]),
                                np.stack([hat(c) for c in E3]),
                                np.stack([hat(c) for c in B3]),
                                np.stack([hat(c) for c in dt]),
                                np.stack([hat(c) for c in dt]),
                                np.zeros((n, n, n)), np.zeros((3, n, n, n)), kv)
    for i in range(3):
        assert np.max(np.abs(res["faraday"][i] - hat(curl_e[i]))) < 1e-9
        assert np.max(np.abs(res["ampere"][i])) < 1e-9
    assert np.max(np.abs(res["gauss_D"] - hat(div_e))) < 1e-9
    assert np.max(np.abs(res["gauss_B"])) < 1e-9


def test_fft_rejects_bad_input():
    with pytest.raises(rs.RSError):
        rs.fft_forward(np.zeros((4, 4, 4)), (0.1, 0.1))
