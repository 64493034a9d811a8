"""Acceptance gate: the eleven release criteria, one pass/fail line each.

Each test exercises one criterion at its stated tolerance and records a
``CRITERION nn PASS|FAIL`` line; the conftest terminal-summary hook prints
all recorded lines at the end of the run.
"""

import importlib.resources as ir
import math

import numpy as np
import pytest

from curvmax import maxwell4 as m4
from curvmax import rs_momentum as rs
from curvmax import solver as sv
from curvmax import symexpr as sx
from curvmax.chart import builtin_chart, lame_coefficients, metric_from_chart
from curvmax.cli import main as cli_main
from curvmax.maxwell3 import RESIDUAL_NAMES, golden_check
from curvmax.symexpr import parse_expr, simplify


def _report(num, desc, ok, detail=""):
    from conftest import ACCEPTANCE_LINES
    tail = f" ({detail})" if detail else ""
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{tail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_01_golden_cylindrical():
    report = golden_check("cylindrical", seed=20120196)
    _report(1, "stored cylindrical equations reproduced", report.passed,
            "; ".join(report.lines()) if not report.passed else
            f"{len(report.results)} equations")
    assert set(report.results) == set(RESIDUAL_NAMES)


def test_criterion_02_golden_spherical():
    report = golden_check("spherical", seed=20120196)
    _report(2, "stored spherical equations reproduced", report.passed,
            f"{len(report.results)} equations")
    assert set(report.results) == set(RESIDUAL_NAMES)


def test_criterion_03_metric_and_lame_literals():
    lit = lambda s: simplify(parse_expr(s))
    ok = True
    mc = metric_from_chart(builtin_chart("cylindrical"))
    ok &= [mc.g_lo[i][i] for i in range(3)] == [lit("1"), lit("r^2"), lit("1")]
    ok &= mc.sqrt_abs_g == lit("r")
    ok &= list(lame_coefficients(mc)) == [lit("1"), lit("r"), lit("1")]
    ms = metric_from_chart(builtin_chart("spherical"))
    ok &= [ms.g_lo[i][i] for i in range(3)] == [lit("1"), lit("r^2"),
                                                lit("r^2*sin(theta)^2")]
    ok &= ms.sqrt_abs_g == lit("r^2*sin(theta)")
    ok &= list(lame_coefficients(ms)) == [lit("1"), lit("r"),
                                          lit("r*sin(theta)")]
    ok &= all(mc.g_lo[i][j] == sx.ZERO and ms.g_lo[i][j] == sx.ZERO
              for i in range(3) for j in range(3) if i != j)
    _report(3, "metric and Lame coefficient literals (structural)", bool(ok))


def test_criterion_04_operator_oracle():
    from test_diffops import (CHART_NAMES, _cart_binding, _cart_ops,
                              _chart_fields, _random_scalar, _sample_points)
    from curvmax.diffops import curl, div, grad, laplacian
    from curvmax.symexpr import eval_expr
    worst = 0.0
    for chart_name in CHART_NAMES:
        rng = np.random.default_rng(42)
        chart = builtin_chart(chart_name)
        m = metric_from_chart(chart)
        for _ in range(20):
            phi_cart = _random_scalar(rng)
            vec_cart = tuple(_random_scalar(rng) for _ in range(3))
            phi_c, v_up, w_lo, j = _chart_fields(chart, phi_cart, vec_cart)
            g_cart, d_cart, c_cart, lap_cart = _cart_ops(phi_cart, vec_cart)
            g_c, d_c = grad(phi_c, chart), div(v_up, m)
            c_c, lap_c = curl(w_lo, m), laplacian(phi_c, m)
            for point in _sample_points(chart, rng, 2):
                xb = _cart_binding(chart, point)
                jn = np.array([[eval_expr(j[a][i], point) for i in range(3)]
                               for a in range(3)])
                gc = np.array([eval_expr(g_c[i], point) for i in range(3)])
                ga = np.array([eval_expr(g_cart[a], xb) for a in range(3)])
                cc = np.array([eval_expr(c_c[i], point) for i in range(3)])
                ca = np.array([eval_expr(c_cart[a], xb) for a in range(3)])
                pairs = [(gc, jn.T @ ga), (jn @ cc, ca),
                         (eval_expr(d_c, point), eval_expr(d_cart, xb)),
                         (eval_expr(lap_c, point), eval_expr(lap_cart, xb))]
                for got, want in pairs:
                    scale = max(1.0, float(np.max(np.abs(want))))
                    worst = max(worst, float(np.max(np.abs(np.asarray(got)
                                                           - want))) / scale)
    _report(4, "operators agree with Cartesian pullback oracle",
            worst <= 1e-9, f"max rel err {worst:.2e}")


def test_criterion_05_nonholonomic_consistency():
    from curvmax.chart import ComponentVector, convert_basis
    from curvmax.diffops import (curl, curl_nh, div, div_nh, grad, grad_nh)
    from curvmax.symexpr import FieldAtom, equivalent
    ok = True
    for chart_name in ("cartesian", "cylindrical", "spherical"):
        chart = builtin_chart(chart_name)
        m = metric_from_chart(chart)
        dom = chart.domains()
        phi = FieldAtom("f", chart.coords)
        v = ComponentVector(tuple(FieldAtom(f"u_{i}", chart.coords)
                                  for i in range(3)),
                            "contravariant", "holonomic")
        w = ComponentVector(tuple(FieldAtom(f"w_{i}", chart.coords)
                                  for i in range(3)),
                            "covariant", "holonomic")
        ok &= all(equivalent(a, b, dom, seed=6) for a, b in zip(
            grad_nh(phi, m), convert_basis(grad(phi, chart), m, "nonholonomic")))
        ok &= equivalent(div_nh(convert_basis(v, m, "nonholonomic"), m),
                         div(v, m), dom, seed=6)
        ok &= all(equivalent(a, b, dom, seed=6) for a, b in zip(
            curl_nh(convert_basis(w, m, "nonholonomic"), m),
            convert_basis(curl(w, m), m, "nonholonomic")))
    _report(5, "nonholonomic operators equal basis-converted holonomic",
            bool(ok))


def test_criterion_06_four_tensor_suite():
    gm = m4.Metric4.minkowski()
    # printed matrix structure
    E = tuple(sx.Var(f"E_{i}") for i in (1, 2, 3))
    B = tuple(sx.Var(f"B_{i}") for i in (1, 2, 3))
    f = m4.assemble_F_lower(E, B).matrix
    ok = (f[0][1], f[0][2], f[0][3]) == E
    ok &= (f[2][3], f[3][1], f[1][2]) == tuple(simplify(-b) for b in B)
    # double dual on 50 random tensors
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        a = a - a.T
        t = m4.FieldTensor4(tuple(map(tuple, a)), "lower", "F")
        dd = m4.hodge_dual(m4.hodge_dual(t, gm), gm).as_array()
        worst = max(worst, float(np.max(np.abs(dd + a))))
    ok &= worst <= 1e-12
    # eight ordered-pair correspondences
    ok &= m4.check_pair_table(gm, seed=2).passed
    for _ in range(10):
        r = float(rng.uniform(0.2, 3.0))
        g = m4.Metric4.numeric(np.diag([1.0, -1.0, -r * r, -1.0]))
        ok &= m4.check_pair_table(g, seed=2).passed
    _report(6, "4-tensor packing, double dual, pair correspondences",
            bool(ok), f"double-dual max err {worst:.2e}")


def test_criterion_07_derivative_residuals():
    gm = m4.Metric4.minkowski()
    pt = np.array([0.2, 0.1, -0.4, 0.9])

    def f_from_potential(x):
        t, _, _, z = x
        f = np.zeros((4, 4))
        f[0, 1] = -math.cos(z - t)
        f[1, 0] = -f[0, 1]
        f[3, 1] = math.cos(z - t)
        f[1, 3] = -f[3, 1]
        return f

    bianchi = float(np.max(np.abs(m4.bianchi_residual(f_from_potential, gm,
                                                      pt, h=1e-4))))

    def g_up(x):
        t, _, _, z = x
        d = np.array([0.0, math.cos(z - t), 0.0])
        h = np.array([-math.cos(z - t), 0.0, 0.0])
        return m4.raise4(m4.assemble_G_lower(d, h), gm)

    source = float(np.max(np.abs(m4.source_residual_4(
        g_up, lambda x: np.zeros(4), gm, pt, h=1e-4))))
    _report(7, "Bianchi and source finite-difference residuals",
            bianchi < 1e-7 and source < 1e-7,
            f"bianchi {bianchi:.2e}, source {source:.2e}")


def test_criterion_08_spinor_suite():
    # canonical fields
    ok = np.allclose(m4.phi_from_EB((1, 0, 0), (0, 0, 0)).phi,
                     np.diag([0.5, -0.5]))
    ok &= np.allclose(m4.phi_from_EB((0, 0, 0), (0, 0, 1)).phi,
                      np.array([[0, 0.5j], [0.5j, 0]]))
    ok &= np.allclose(m4.phi_from_EB((0, 1, 0), (0, 0, 0)).phi,
                      np.diag([-0.5j, -0.5j]))
    # roundtrip on 100 random fields
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        E, B = rng.normal(size=3), rng.normal(size=3)
        f = m4.reconstruct_F_from_spinor(m4.phi_from_EB(E, B)).as_array()
        worst = max(worst, float(np.max(np.abs(
            f - m4.assemble_F_lower(E, B).as_array()))))
    ok &= worst <= 1e-12
    # residual agreement with the complex 3-vector combination
    from test_maxwell4 import _curl, _fd, _make_field
    e_f, b_f = _make_field(rng), _make_field(rng)
    pt = np.array([0.2, 0.1, -0.4, 0.9])
    s = m4.spinor_maxwell_residual(lambda x: m4.phi_from_EB(e_f(x), b_f(x)),
                                   lambda x: np.zeros(4), pt)
    far = _curl(e_f, pt) + _fd(b_f, pt, 0)
    amp = _curl(b_f, pt) - _fd(e_f, pt, 0)
    div_e = sum(_fd(e_f, pt, a)[a - 1] for a in (1, 2, 3))
    div_b = sum(_fd(b_f, pt, a)[a - 1] for a in (1, 2, 3))
    scale = max(1.0, float(np.max(np.abs(s))))
    rel = max(abs(s[0] - (div_e - 1j * div_b) / 2),
              float(np.max(np.abs(s[1:] - (amp + 1j * far) / 2)))) / scale
    ok &= rel < 1e-6
    _report(8, "spinor canonical values, roundtrip, residual agreement",
            bool(ok), f"roundtrip {worst:.2e}, residual rel {rel:.2e}")


def test_criterion_09_complex_momentum_suite():
    m_cart = metric_from_chart(builtin_chart("cartesian"))
    rng = np.random.default_rng(0)
    # exact vacuum K/L reduction
    E, B = rng.normal(size=3), rng.normal(size=3)
    kl = rs.kl_from_rs(rs.to_rs(E, B, E, B))
    ok = kl.K == tuple(e + 1j * b for e, b in zip(E, B)) and kl.L == (0j,) * 3
    # rs residual equals the complex combination of real residuals
    from test_rs_momentum import _fd, _make_field
    e_f, b_f = _make_field(rng), _make_field(rng)
    pt = np.array([0.5, 0.3, 0.7, 0.2])
    g, c = rs.rs_residual(
        lambda x: rs.kl_from_rs(rs.to_rs(e_f(x), b_f(x), e_f(x), b_f(x))),
        lambda x: (0.0, np.zeros(3)), m_cart, pt)
    jac = np.array([_fd(e_f, pt, a) for a in (1, 2, 3)])
    far = np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2],
                    jac[0, 1] - jac[1, 0]]) + _fd(b_f, pt, 0)
    jac = np.array([_fd(b_f, pt, a) for a in (1, 2, 3)])
    amp = np.array([jac[1, 2] - jac[2, 1], jac[2, 0] - jac[0, 2],
                    jac[0, 1] - jac[1, 0]]) - _fd(e_f, pt, 0)
    div_e = sum(_fd(e_f, pt, a)[a - 1] for a in (1, 2, 3))
    div_b = sum(_fd(b_f, pt, a)[a - 1] for a in (1, 2, 3))
    rs_err = max(abs(g - (div_e + 1j * div_b)),
                 float(np.max(np.abs(c - (far + 1j * amp)))))
    ok &= rs_err < 1e-9
    # spectral derivative rule
    n, length = 32, 2.0
    xs = np.arange(n) * length / n
    k0 = 2 * math.pi / length
    sd = rs.spectral_derivative_check(np.sin(3 * k0 * xs),
                                      3 * k0 * np.cos(3 * k0 * xs),
                                      (length / n,), 0)
    ok &= sd < 1e-10
    # momentum residual equals transform of real-space residuals
    n = 16
    dx = 2 * math.pi / n
    x = np.arange(n) * dx
    X, _, Z = np.meshgrid(x, x, x, indexing="ij")
    ey = np.cos(Z) * np.sin(X)
    zero = np.zeros_like(ey)
    E3 = np.stack([zero, ey, zero])
    dt0 = np.zeros_like(E3)
    hat = lambda a: rs.fft_forward(a, (dx, dx, dx)).values
    kv = rs.wavevectors((n, n, n), (dx, dx, dx))
    res = rs.maxwell_k_residual(
        np.stack([hat(c_) for c_ in E3]), np.stack([hat(c_) for c_ in dt0]),
        np.stack([hat(c_) for c_ in E3]), np.stack([hat(c_) for c_ in dt0]),
        np.stack([hat(c_) for c_ in dt0]), np.stack([hat(c_) for c_ in dt0]),
        np.zeros((n, n, n)), np.zeros((3, n, n, n)), kv)
    curl_e = np.stack([np.sin(Z) * np.sin(X), zero, np.cos(Z) * np.cos(X)])
    k_err = max(float(np.max(np.abs(res["faraday"][i] - hat(curl_e[i]))))
                for i in range(3))
    k_err = max(k_err, float(np.max(np.abs(res["gauss_D"]))))
    ok &= k_err < 1e-9
    # roundtrip and Parseval
    a = rng.normal(size=(16, 16, 16))
    spec = rs.fft_forward(a, (0.1, 0.2, 0.3))
    rt = float(np.max(np.abs(rs.fft_inverse(spec) - a)))
    pv = abs(np.linalg.norm(a) - np.linalg.norm(spec.values))
    ok &= rt <= 1e-12 and pv <= 1e-12
    _report(9, "complex/momentum representation suite", bool(ok),
            f"rs {rs_err:.2e}, spectral {sd:.2e}, k {k_err:.2e}, "
            f"roundtrip {rt:.2e}")


def test_criterion_10_solver():
    def one_period(n):
        spec = sv.GridSpec("cartesian", ((0, 1),) * 3, (n, n, n), cfl=0.5)
        state = sv.init_grid(spec, "plane_wave")
        dt = sv.time_step(spec)
        e0 = sv.diagnostics(state, spec)["energy"]
        state = sv.run(state, spec, round(1.0 / dt))
        exact, _ = sv._initial_fields(spec, "plane_wave", state.t)
        err = float(np.linalg.norm(state.e - exact) / np.linalg.norm(exact))
        drift = abs(sv.diagnostics(state, spec)["energy"] - e0) / e0
        return err, drift

    err32, _ = one_period(32)
    err64, drift64 = one_period(64)
    ratio = err32 / err64
    spec16 = sv.GridSpec("cartesian", ((0, 1),) * 3, (16, 16, 16), cfl=0.5)
    st = sv.run(sv.init_grid(spec16, "plane_wave"), spec16, 1000)
    div_b = sv.diagnostics(st, spec16)["div_B"]
    ok = (err64 < 0.01 and 3.4 <= ratio <= 4.6 and div_b <= 1e-12
          and drift64 < 1e-3)
    _report(10, "solver accuracy, convergence, conservation", ok,
            f"L2 {err64:.2e}, ratio {ratio:.2f}, divB {div_b:.2e}, "
            f"drift {drift64:.2e}")


def test_criterion_11_cli_exit_codes(tmp_path, monkeypatch, capsys):
    def run(*argv):
        code = 0
        try:
            cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
        return code, capsys.readouterr().out

    green, _ = run("check", "--suite", "all", "--seed", "11")
    # corrupt one golden equation and re-run the paper suite
    data = ir.files("curvmax").joinpath("data")
    for name in ("golden_cylindrical.txt", "golden_spherical.txt"):
        text = data.joinpath(name).read_text()
        if "cylindrical" in name:
            text = text.replace("B_1", "B_2", 1)
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("CURVMAX_GOLDEN_DIR", str(tmp_path))
    red, out = run("check", "--suite", "paper", "--seed", "11")
    failing = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    named = any(eq in ln for ln in failing for eq in RESIDUAL_NAMES)
    ok = green == 0 and red == 1 and named
    _report(11, "CLI exit-code contract and corrupted-golden control", ok,
            f"green exit {green}, corrupted exit {red}, "
            f"named: {'; '.join(failing[:2])}")
