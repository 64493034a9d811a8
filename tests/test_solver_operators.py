"""Operator oracle: the solver's curls against integer incidence matrices.

C+ (forward curl, edges to faces) and C- (backward curl, faces to edges)
are built here from their definition as scipy.sparse matrices over the
flattened (3, N1, N2, N3) arrays, with the closures as diagonals.  The
matrix recurrence

    b+ = b - C+ e;   d' = d + C- M_h b+;   e' = P M_e d';   b' = b+ - C+ e',

with P the diagonal that zeroes tangential e on the PEC walls, is the
leapfrog that ``step`` runs.  Because C- = (C+)^T, it conserves
Q = 2 e.d + b.M_h b - (C+ e).M_h (C+ e), and Q is positive definite exactly
when lambda_max(M_e^1/2 C- M_h C+ M_e^1/2) < 2 (with M_e standing for P M_e).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

sparse = pytest.importorskip("scipy.sparse")

from curvmax import solver as sv  # noqa: E402

_BC_MIXES = list(itertools.product(("periodic", "pec"), repeat=3))


def _difference(n, bc, forward):
    """1-D incidence: (D w)[m] = w[m + 1] - w[m] forward, w[m] - w[m - 1]
    backward; past the end w wraps (periodic) or is zero (PEC)."""
    rows, cols, vals = [], [], []
    for m in range(n):
        rows.append(m), cols.append(m), vals.append(-1 if forward else 1)
        other = m + 1 if forward else m - 1
        if 0 <= other < n or bc == "periodic":
            rows.append(m), cols.append(other % n), vals.append(1 if forward else -1)
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n), dtype=np.int64)


def _axis_differences(shape, bc, forward):
    """The three 3-D differences along each axis, in C order of the cells."""
    eye = [sparse.identity(n, dtype=np.int64, format="csr") for n in shape]
    out = []
    for a in range(3):
        parts = [_difference(n, bc[a], forward) if b == a else eye[b]
                 for b, n in enumerate(shape)]
        out.append(sparse.kron(sparse.kron(parts[0], parts[1]), parts[2], format="csr"))
    return out


def _curl(shape, bc, forward):
    """(C w)_i = D_j w_k - D_k w_j for cyclic (i, j, k)."""
    d = _axis_differences(shape, bc, forward)
    return sparse.block_array([[None, -d[2], d[1]],
                               [d[2], None, -d[0]],
                               [-d[1], d[0], None]], format="csr")


def _divergence(shape, bc, forward):
    return sparse.hstack(_axis_differences(shape, bc, forward), format="csr")


def _is_zero(m):
    return sparse.csr_array(m).count_nonzero() == 0


@pytest.mark.parametrize("bc", _BC_MIXES, ids=",".join)
def test_backward_curl_is_the_transpose_of_the_forward_one(bc):
    shape = (3, 4, 5)
    cp, cm = _curl(shape, bc, True), _curl(shape, bc, False)
    assert cp.dtype == cm.dtype == np.int64
    assert _is_zero(cm - cp.T)
    assert _is_zero(_divergence(shape, bc, True) @ cp)
    assert _is_zero(_divergence(shape, bc, False) @ cm)


@pytest.mark.parametrize("bc", _BC_MIXES, ids=",".join)
def test_the_solver_curls_are_the_incidence_matrices(bc):
    spec = sv.GridSpec("cartesian", ((0, 1),) * 3, (3, 4, 5), bc=bc)
    w = np.random.default_rng(1).normal(size=(3, *spec.shape))
    for offset, forward, sign in ((1, True, -1), (-1, False, 1)):
        got = np.empty(w.shape)
        sv._execute(sv._circulate(np.zeros(w.shape), w, offset, spec, got, (0, 3, {})))
        want = sign * (_curl(spec.shape, bc, forward) @ w.ravel())
        assert np.max(np.abs(got.ravel() - want)) <= 1e-15 * np.max(np.abs(want))


def _closures(spec):
    """Diagonals (M_e, M_h) over the flattened arrays, P folded into M_e."""
    geo = sv._geometry(spec)
    m_e = np.stack([np.broadcast_to(geo.d_to_e[i], spec.shape) for i in range(3)])
    m_h = np.stack([np.broadcast_to(geo.b_to_h[i], spec.shape) for i in range(3)])
    return sv._apply_pec(m_e, spec).ravel(), m_h.ravel()


_SHELLS = {
    "cylindrical": sv.GridSpec("cylindrical", ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)),
                               (6, 8, 4), cfl=0.9, bc=("pec", "periodic", "pec")),
    "spherical": sv.GridSpec("spherical", ((0.5, 1.5), (0.3, math.pi - 0.3),
                                           (0.0, 2 * math.pi)),
                             (6, 6, 8), cfl=0.9, bc=("pec", "pec", "periodic")),
}


@pytest.mark.parametrize("chart", sorted(_SHELLS))
def test_step_is_the_matrix_recurrence_for_20_steps(chart):
    spec = _SHELLS[chart]
    cp, cm = _curl(spec.shape, spec.bc, True), _curl(spec.shape, spec.bc, False)
    m_e, m_h = _closures(spec)
    rng = np.random.default_rng(2)
    e = sv._apply_pec(rng.normal(size=(3, *spec.shape)), spec)
    state = sv.GridField(e=e, d=rng.normal(size=e.shape), b=rng.normal(size=e.shape), t=0.0)
    scale = sv._geometry(spec).scale
    e, d, b = (np.stack([x[i] * s[i] for i in range(3)]).ravel()
               for x, s in zip((state.e, state.d, state.b), scale))
    for _ in range(20):
        b_half = b - cp @ e
        d = d + cm @ (m_h * b_half)
        e = m_e * d
        b = b_half - cp @ e
        state = sv.step(state, spec)
    for got, want in zip(state._arrays, (e, d, b)):
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.max(np.abs(want))


def _lambda_max(spec):
    cp, cm = _curl(spec.shape, spec.bc, True), _curl(spec.shape, spec.bc, False)
    m_e, m_h = _closures(spec)
    root = sparse.diags_array(np.sqrt(m_e))
    a = (root @ cm @ sparse.diags_array(m_h) @ cp @ root).toarray()
    assert np.max(np.abs(a - a.T)) <= 1e-15 * np.max(np.abs(a))  # symmetric to rounding
    return float(np.linalg.eigvalsh(a)[-1])


@pytest.mark.parametrize("chart", sorted(_SHELLS))
def test_q_is_positive_definite_at_cfl_1(chart):
    assert _lambda_max(dataclasses.replace(_SHELLS[chart], cfl=1.0)) < 2.0


def test_cfl_1_is_the_stability_limit_of_a_periodic_cartesian_grid():
    # every axis holds the alternating mode, so the bound of the
    # metric-weighted CFL rule is reached: lambda_max = 6 (c dt / h)^2 = 2
    spec = sv.GridSpec("cartesian", ((0, 1),) * 3, (4, 4, 4), cfl=1.0)
    assert _lambda_max(spec) == pytest.approx(2.0, rel=1e-12)
