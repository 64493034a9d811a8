"""4-tensor and flat-space spinor forms of the electromagnetic field.

Assembles the field tensors F (from E, B) and G (from D, H) with the
signature (+, -, -, -) and x^0 = t (c = 1), raises/lowers indices with a
spacetime metric, builds Hodge duals via the 4-D alternating tensor, and
checks the eight ordered-pair correspondences between the tensors and
their 3-vector contents.  Field-equation residuals (Bianchi identity and
the sourced divergence law, step ``h``, and the spinor equation, step
1e-4) are evaluated numerically with central finite differences; they
assume a constant metric, where partial derivatives coincide with
covariant ones.

The spinor layer works in the constant real spin basis with
eps = [[0, 1], [-1, 0]] and the Infeld--van der Waerden symbols
g_alpha = (sigma_0, sigma_1, -sigma_2, sigma_3) / sqrt(2); this is the
sign choice under which the component formulas

    phi_00 = (F_1 - i F_2) / 2,  phi_01 = phi_10 = -F_3 / 2,
    phi_11 = -(F_1 + i F_2) / 2,       with  F_i = E_i - i B^i,

reproduce F_{alpha beta} exactly through the bilinear reconstruction
F = phi eps + eps conj(phi).  Spinor indices are raised with eps using
the northwest-to-southeast convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import symexpr as sx
from .symexpr import Expr, eval_expr, simplify

__all__ = [
    "Maxwell4Error", "Metric4", "FieldTensor4", "EMSpinor",
    "assemble_F_lower", "assemble_G_lower", "assemble_pair", "read_pair",
    "raise4", "lower4", "hodge_dual", "check_pair_table", "PairTableReport",
    "bianchi_residual", "source_residual_4",
    "phi_from_EB", "gamma_from_DH", "reconstruct_F_from_spinor",
    "spinor_maxwell_residual", "map_vector4", "unmap_vector4",
    "IVDW", "IVDW_INV", "EPS_SPIN",
    "matrix_text", "matrix_latex",
]


class Maxwell4Error(Exception):
    pass


def _is_sym(matrix):
    return any(isinstance(x, Expr) for row in matrix for x in row)


# ---------------------------------------------------------------------------
# Spacetime metric
# ---------------------------------------------------------------------------

_DET_SIGN = "spacetime metric must have det < 0"


@dataclass(frozen=True)
class Metric4:
    """Diagonal-or-numeric spacetime metric with det < 0.

    ``g_lo``/``g_hi`` are 4x4 nested tuples of Expr or numbers, ``det`` and
    ``sqrt_minus_g`` match their entry type.  Symbolic metrics must be
    diagonal; full numeric matrices are inverted with numpy.
    ``is_symbolic`` (some entry of ``g_lo`` is an Expr) is found once, when
    the metric is built.
    """

    g_lo: tuple
    g_hi: tuple
    det: object
    sqrt_minus_g: object
    is_symbolic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_symbolic", _is_sym(self.g_lo))

    @classmethod
    def minkowski(cls):
        lo = tuple(tuple(float(1 if a == b == 0 else (-1 if a == b else 0))
                         for b in range(4)) for a in range(4))
        return cls(lo, lo, -1.0, 1.0)

    @classmethod
    def diagonal(cls, entries):
        """Metric diag(entries); entries are 4 Exprs or numbers."""
        if len(entries) != 4:
            raise Maxwell4Error("diagonal metric needs 4 entries")
        if not any(isinstance(e, Expr) for e in entries):
            return cls.numeric(np.diag(entries))
        entries = tuple(simplify(e) if isinstance(e, Expr) else sx.Const(e)
                        for e in entries)
        det = entries[0] * entries[1] * entries[2] * entries[3]
        if sx.is_zero(det):
            raise Maxwell4Error(_DET_SIGN)
        try:
            # variables are positive on their domains, so sqrt refuses -det
            # when det is a positive constant or has a positive coefficient
            sqrt_neg_det = sx.sqrt(-det)
        except sx.ConstantDomainError:
            raise Maxwell4Error(_DET_SIGN) from None
        lo = tuple(tuple(entries[a] if a == b else sx.ZERO
                         for b in range(4)) for a in range(4))
        hi = tuple(tuple(sx.pow_(entries[a], -1) if a == b else sx.ZERO
                         for b in range(4)) for a in range(4))
        return cls(lo, hi, det, sqrt_neg_det)

    @classmethod
    def from_spatial(cls, m3):
        """Lift an orthogonal spatial metric to diag(1, -g_11, -g_22, -g_33)."""
        if m3.lame is None:
            raise Maxwell4Error("spacetime lift requires an orthogonal spatial metric")
        return cls.diagonal((sx.ONE,) + tuple(-m3.g_lo[i][i] for i in range(3)))

    @classmethod
    def numeric(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4) or not np.allclose(m, m.T):
            raise Maxwell4Error("metric must be a symmetric 4x4 matrix")
        det = float(np.linalg.det(m))
        if det >= 0:
            raise Maxwell4Error(_DET_SIGN)
        hi = np.linalg.inv(m)
        return cls(tuple(map(tuple, m)), tuple(map(tuple, hi)),
                   det, math.sqrt(-det))

    def evaluate(self, binding):
        """Numeric Metric4 obtained by evaluating symbolic entries."""
        if not self.is_symbolic:
            return self
        m = [[eval_expr(x, binding) if isinstance(x, Expr) else float(x)
              for x in row] for row in self.g_lo]
        return Metric4.numeric(m)


# ---------------------------------------------------------------------------
# Field tensors
# ---------------------------------------------------------------------------

_KINDS = ("F", "G", "dualF", "dualG")
_DUAL_KIND = {"F": "dualF", "dualF": "F", "G": "dualG", "dualG": "G"}


@dataclass(frozen=True)
class FieldTensor4:
    """Antisymmetric 4x4 tensor with both indices lower or both upper.
    ``is_symbolic`` (some entry is an Expr) is found once, when it is built."""

    matrix: tuple
    variance: str  # "lower" | "upper"
    kind: str
    is_symbolic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variance not in ("lower", "upper"):
            raise Maxwell4Error(f"bad variance {self.variance!r}")
        if self.kind not in _KINDS:
            raise Maxwell4Error(f"bad tensor kind {self.kind!r}")
        m = self.matrix
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise Maxwell4Error("field tensor must be 4x4")
        sym = _is_sym(m)
        object.__setattr__(self, "is_symbolic", sym)
        # rounding noise of a numeric tensor grows with its entries
        tol = None if sym else 1e-12 * max(1.0, *(abs(x) for row in m for x in row))
        for a in range(4):
            for b in range(a, 4):
                s = m[a][b] + m[b][a]
                bad = not sx.is_zero(s) if sym else abs(s) > tol
                if bad:
                    raise Maxwell4Error(
                        f"field tensor must be antisymmetric (entries {a},{b})")

    def as_array(self):
        if self.is_symbolic:
            raise Maxwell4Error("symbolic tensor has no numeric array")
        return np.array(self.matrix)


def assemble_pair(first, second, variance="lower", kind="F"):
    """Build the antisymmetric tensor of the ordered pair (a_i, b^i).

    T_{0i} = a_i and T_{ij} = -eps_{ijk} b^k (same reading for the upper
    variance); this is the packing every printed field-tensor matrix obeys.
    """
    a1, a2, a3 = first
    b1, b2, b3 = second
    z = sx.ZERO if any(isinstance(x, Expr) for x in (*first, *second)) else 0.0
    m = ((z, a1, a2, a3),
         (-a1, z, -b3, b2),
         (-a2, b3, z, -b1),
         (-a3, -b2, b1, z))
    return FieldTensor4(m, variance, kind)


def assemble_F_lower(E, B):
    """F_{alpha beta} from covariant E_i and contravariant B^i."""
    return assemble_pair(tuple(E), tuple(B), "lower", "F")


def assemble_G_lower(D, H):
    """G_{alpha beta} from covariant D_i and contravariant H^i."""
    return assemble_pair(tuple(D), tuple(H), "lower", "G")


def read_pair(t):
    """Inverse of assemble_pair: ordered pair (a_i, b^i) of a tensor."""
    m = t.matrix
    return ((m[0][1], m[0][2], m[0][3]),
            (-m[2][3], -m[3][1], -m[1][2]))


def _nonzero(x):
    if isinstance(x, Expr):
        return x != sx.ZERO
    return x != 0


def _sum_products(pairs, sym):
    """Sum of w * x over the (w, x) pairs with nonzero x, in pair order.

    Symbolic entries are summed by one ``sx.add``, numeric ones left to
    right, so either kind is built from the same products in the same order.
    """
    terms = [w * x for w, x in pairs if _nonzero(x)]
    if not terms:
        return sx.ZERO if sym else 0.0
    return sx.add(*terms) if sym else sum(terms)


def _contract_two(t, g, g_mat):
    m = t.matrix
    sym = t.is_symbolic or g.is_symbolic
    return tuple(tuple(
        _sum_products([(g_mat[a][c] * g_mat[b][d], m[c][d])
                       for c in range(4) for d in range(4)
                       if _nonzero(g_mat[a][c]) and _nonzero(g_mat[b][d])], sym)
        for b in range(4)) for a in range(4))


def raise4(t, g):
    """T^{alpha beta} = g^{alpha gamma} g^{beta delta} T_{gamma delta}."""
    if t.variance != "lower":
        raise Maxwell4Error("raise4 expects a both-lower tensor")
    return FieldTensor4(_contract_two(t, g, g.g_hi), "upper", t.kind)


def lower4(t, g):
    """T_{alpha beta} = g_{alpha gamma} g_{beta delta} T^{gamma delta}."""
    if t.variance != "upper":
        raise Maxwell4Error("lower4 expects a both-upper tensor")
    return FieldTensor4(_contract_two(t, g, g.g_lo), "lower", t.kind)


#: The 24 nonzero entries (a, b, c, d, [abcd]) of the 4-D permutation symbol,
#: in lexicographic order of (a, b, c, d).
_PERMUTATIONS4 = tuple(
    (*p, (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)))
    for p in permutations(range(4)))


def hodge_dual(t, g):
    """Half-contraction with the 4-D alternating tensor.

    A lower tensor yields *T^{ab} = (1/2) e^{abcd} T_{cd} (upper), an upper
    tensor yields *T_{ab} = (1/2) e_{abcd} T^{cd} (lower).

    The alternating tensor is anchored by epsilon_0123 = -1 (the convention
    under which the Hodge duals of the field tensors reproduce the reference
    component matrices).  With [0123] = +1 this folds a minus sign into the
    lower prefactor: e^{abcd} = [abcd] / sqrt(-g) and
    e_{abcd} = -sqrt(-g) [abcd].
    """
    sym = t.is_symbolic or g.is_symbolic
    s = g.sqrt_minus_g
    if t.variance == "lower":
        pref = sx.pow_(s, -1) if isinstance(s, Expr) else 1.0 / s
    else:
        pref = -s
    weight = {sign: (sx.Const(sign) if sym else sign) * pref for sign in (1, -1)}
    pairs = [[[] for _ in range(4)] for _ in range(4)]
    for a, b, c, d, sign in _PERMUTATIONS4:
        pairs[a][b].append((weight[sign], t.matrix[c][d]))
    out = tuple(tuple(_sum_products(p, sym) / 2 for p in row) for row in pairs)
    new_variance = "upper" if t.variance == "lower" else "lower"
    return FieldTensor4(out, new_variance, _DUAL_KIND[t.kind])


# ---------------------------------------------------------------------------
# Ordered-pair correspondence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairTableReport:
    """Outcome of the eight tensor <-> ordered-pair correspondences."""

    results: tuple  # of (name, max_abs_error, passed)

    @property
    def passed(self):
        return all(ok for _, _, ok in self.results)

    def lines(self):
        return [f"{'PASS' if ok else 'FAIL'} {name} (max err {err:.3e})"
                for name, err, ok in self.results]


def check_pair_table(g, seed=None):
    """Verify the eight ordered-pair correspondences for random fields;
    each passes when its largest absolute error is at most 1e-10.

    The lower-index tensors are assembled from (E_i, B^i) and (D_i, H^i);
    the upper-index tensors carry the pairs (-E^i, B_i) and (-D^i, H_i)
    with 3-indices raised/lowered by the spatial metric.  The dual rows are
    genuine oracles: each dual matrix is produced by direct contraction
    with the 4-D alternating tensor and must reproduce the paired contents
    with the sqrt(-g) / 1/sqrt(-g) prefactors.  When the spatial block has
    unit determinant (Cartesian Minkowski) the upper tensors are also
    cross-checked against metric raising of the lower ones, where the two
    constructions coincide.

    ``g`` must be numeric (evaluate a symbolic metric first) and diagonal
    in its spatial block so 3-index raising is well defined.
    """
    if g.is_symbolic:
        raise Maxwell4Error("check_pair_table needs a numeric metric")
    tol = 1e-10
    rng = np.random.default_rng(sx.default_seed() if seed is None else seed)
    g3_lo = -np.array(g.g_lo)[1:, 1:]
    g3_hi = np.linalg.inv(g3_lo)
    s = g.sqrt_minus_g

    E_lo, B_up, D_lo, H_up = (rng.uniform(-1, 1, size=3) for _ in range(4))
    E_up, D_up = g3_hi @ E_lo, g3_hi @ D_lo
    B_lo, H_lo = g3_lo @ B_up, g3_lo @ H_up

    F_lo = assemble_F_lower(E_lo, B_up)
    G_lo = assemble_G_lower(D_lo, H_up)
    F_up = assemble_pair(-E_up, B_lo, "upper", "F")
    G_up = assemble_pair(-D_up, H_lo, "upper", "G")
    cases = [
        ("F_lower ~ (E_i, B^i)", F_lo, E_lo, B_up),
        ("F_upper ~ (-E^i, B_i)", F_up, -E_up, B_lo),
        ("G_lower ~ (D_i, H^i)", G_lo, D_lo, H_up),
        ("G_upper ~ (-D^i, H_i)", G_up, -D_up, H_lo),
        ("dualF_lower ~ sqrt(-g)(B_i, -E^i)", hodge_dual(F_up, g), s * B_lo, -s * E_up),
        ("dualF_upper ~ (-B^i, -E_i)/sqrt(-g)", hodge_dual(F_lo, g), -B_up / s, -E_lo / s),
        ("dualG_lower ~ sqrt(-g)(H_i, -D^i)", hodge_dual(G_up, g), s * H_lo, -s * D_up),
        ("dualG_upper ~ (-H^i, -D_i)/sqrt(-g)", hodge_dual(G_lo, g), -H_up / s, -D_lo / s),
    ]
    results = []
    for name, tensor, want_a, want_b in cases:
        got_a, got_b = read_pair(tensor)
        err = max(float(np.max(np.abs(np.array(got_a) - want_a))),
                  float(np.max(np.abs(np.array(got_b) - want_b))))
        results.append((name, err, err <= tol))
    if abs(np.linalg.det(g3_lo) - 1.0) <= tol:
        err = max(float(np.max(np.abs(raise4(F_lo, g).as_array() - F_up.as_array()))),
                  float(np.max(np.abs(raise4(G_lo, g).as_array() - G_up.as_array()))))
        results.append(("metric raising matches printed upper matrices",
                        err, err <= tol))
    return PairTableReport(tuple(results))


# ---------------------------------------------------------------------------
# Finite-difference field-equation residuals (constant metric)
# ---------------------------------------------------------------------------

def _fd_matrix(func, point, axis, h):
    xp = np.array(point, dtype=float)
    xm = np.array(point, dtype=float)
    xp[axis] += h
    xm[axis] -= h
    return (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)


def _fd_divergence(func, point, axes, h):
    """Central-difference sum over k of d func[k] / d x^axes[k]."""
    return sum(_fd_matrix(func, point, a, h)[k] for k, a in enumerate(axes))


def _tensor_matrix(value):
    if isinstance(value, FieldTensor4):
        return value.as_array()
    return np.asarray(value, dtype=float)


def bianchi_residual(f_func, g, point, h=1e-4):
    """div of the dual: residual^beta = d_alpha (*F)^{alpha beta}.

    ``f_func(point4) -> both-lower F`` (FieldTensor4 or 4x4 array); the
    metric must be constant over the stencil.
    """
    if g.is_symbolic:
        raise Maxwell4Error("finite-difference residuals need a numeric metric")

    def star_upper(x):
        m = _tensor_matrix(f_func(x))
        return hodge_dual(FieldTensor4(tuple(map(tuple, m)), "lower", "F"), g).as_array()

    return _fd_divergence(star_upper, point, range(4), h)


def source_residual_4(g_func, j4_func, g, point, h=1e-4):
    """residual^beta = d_alpha G^{alpha beta} - 4 pi j^beta (c = 1).

    ``g_func(point4) -> both-upper G``; constant metric assumed.
    """
    if g.is_symbolic:
        raise Maxwell4Error("finite-difference residuals need a numeric metric")
    div_g = _fd_divergence(lambda x: _tensor_matrix(g_func(x)), point, range(4), h)
    return div_g - 4.0 * math.pi * np.asarray(j4_func(np.asarray(point, float)), float)


# ---------------------------------------------------------------------------
# Spinor layer (flat Cartesian Minkowski only)
# ---------------------------------------------------------------------------

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),  # -sigma_2
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: Infeld--van der Waerden symbols g_alpha^{AA'}, shape (4, 2, 2).
IVDW = np.array(_SIGMA) / math.sqrt(2.0)
#: Inverse symbols g^alpha_{AA'}: IVDW[a].ravel() @ IVDW_INV[b].ravel() = delta.
IVDW_INV = np.linalg.inv(IVDW.reshape(4, 4)).reshape(2, 2, 4).transpose(2, 0, 1)
#: Spin metric eps_{AB} (= eps^{AB} numerically).
EPS_SPIN = np.array([[0, 1], [-1, 0]], dtype=complex)


@dataclass(frozen=True)
class EMSpinor:
    """Symmetric 2x2 spinor phi_AB."""

    phi: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.phi, dtype=complex)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12:
            raise Maxwell4Error("phi must be a symmetric 2x2 spinor")
        object.__setattr__(self, "phi", m)


def _phi_components(fvec):
    f1, f2, f3 = fvec
    return np.array([[0.5 * (f1 - 1j * f2), -0.5 * f3],
                     [-0.5 * f3, -0.5 * (f1 + 1j * f2)]])


def phi_from_EB(E, B):
    """Field spinor of (E_i, B^i) via F_i = E_i - i B^i."""
    return EMSpinor(_phi_components(np.asarray(E) - 1j * np.asarray(B)))


def gamma_from_DH(D, H):
    """Spinor of the excitation pair (D_i, H^i), same packing as phi."""
    return EMSpinor(_phi_components(np.asarray(D) - 1j * np.asarray(H)))


def reconstruct_F_from_spinor(s):
    """F_{alpha beta} = g_alpha g_beta (phi eps + eps conj(phi)); real output."""
    bl = (np.einsum('AB,PQ->APBQ', s.phi, EPS_SPIN)
          + np.einsum('AB,PQ->APBQ', EPS_SPIN, np.conj(s.phi)))
    f = np.einsum('aAP,bBQ,APBQ->ab', IVDW, IVDW, bl)
    if np.max(np.abs(f.imag)) > 1e-10:
        raise Maxwell4Error("spinor reconstruction produced a non-real tensor")
    return FieldTensor4(tuple(map(tuple, f.real)), "lower", "F")


def map_vector4(v4):
    """v^{AA'} = g_alpha^{AA'} v^alpha for a (possibly complex) 4-vector."""
    return np.einsum('aAP,a->AP', IVDW, np.asarray(v4, dtype=complex))


def unmap_vector4(m):
    """Inverse of map_vector4: the 4-vector of a 2x2 spinor-index matrix."""
    return np.linalg.solve(IVDW.reshape(4, 4).T, np.asarray(m, dtype=complex).reshape(4))


def spinor_maxwell_residual(phi_func, j4_func, point):
    """Residual 4-vector of the one-equation spinor form.

    ``phi_func(point4) -> EMSpinor``.  Evaluates nabla^{AB'} phi^B_A
    - 2 pi j^{BB'} by central finite differences of step 1e-4 in flat
    Cartesian Minkowski coordinates (x^0 = t, c = 1) and projects the 2x2
    result back to four complex numbers through the inverse Infeld--van der
    Waerden map.  Spatial components equal
    (ampere_residual + i faraday_residual)/2 of the real 3-vector form;
    the time component equals (div E - 4 pi rho - i div B)/2.
    """
    point = np.asarray(point, dtype=float)
    dphi = np.array([_fd_matrix(lambda x: phi_func(x).phi, point, a, 1e-4)
                     for a in range(4)])
    # nabla_{AA'} phi_{BC} = g^alpha_{AA'} d_alpha phi_{BC}
    nab = np.einsum('aAP,aBC->APBC', IVDW_INV, dphi)
    # raise both derivative indices with eps, then contract A with phi^B_A
    nab_up = np.einsum('AC,PQ,CQbc->APbc', EPS_SPIN, EPS_SPIN, nab)
    r_spin = np.einsum('APbA,Bb->BP', nab_up, EPS_SPIN)
    return unmap_vector4(r_spin) - 2.0 * math.pi * np.asarray(j4_func(point), complex)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def matrix_text(t):
    """Aligned plain-text rendering of a symbolic FieldTensor4."""
    rows = [[sx.print_expr(x) for x in row] for row in t.matrix]
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return "\n".join(
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
        for row in rows)


def matrix_latex(t):
    """pmatrix rendering of a symbolic FieldTensor4."""
    rows = [" & ".join(map(sx.to_latex, row)) for row in t.matrix]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"
