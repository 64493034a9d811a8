"""Reference computations made apart from curvmax.

Nothing here imports curvmax.  The workloads compare the program's outputs
with these: closed-form fields and derivatives, the embedding Jacobians of
the benchmark's charts, plain numpy divergences and energies on the
staggered grid, and readers for the binary and CSV snapshot formats that
follow the formats' documentation rather than the writers' code.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# ---------------------------------------------------------------------------
# Staggered grid sites and geometry
# ---------------------------------------------------------------------------

# Edge-i sites sit at the cell centre along axis i and on nodes elsewhere;
# face-i sites sit at nodes along axis i and at cell centres elsewhere.
EDGE_HALF = tuple(tuple(a == i for a in range(3)) for i in range(3))
FACE_HALF = tuple(tuple(a != i for a in range(3)) for i in range(3))
CENTRE_HALF = (True, True, True)


def site_axes(extents, shape, half):
    """1-D coordinates of a site family; half[a] shifts axis a by h/2."""
    out = []
    for (lo, hi), n, hf in zip(extents, shape, half):
        h = (hi - lo) / n
        out.append(lo + (0.5 * h if hf else 0.0) + h * np.arange(n))
    return out


def spherical_sqrtg(extents, shape, half):
    """sqrt(g) = r^2 sin(theta) of the (r, theta, phi) chart at a site family."""
    r, th, _ = site_axes(extents, shape, half)
    vals = (r ** 2)[:, None, None] * np.sin(th)[None, :, None]
    return np.broadcast_to(vals, tuple(shape))


def spherical_g(extents, shape, half, i):
    """Diagonal metric entry g_ii of the (r, theta, phi) chart."""
    r, th, _ = site_axes(extents, shape, half)
    if i == 0:
        vals = np.ones((shape[0], 1, 1))
    elif i == 1:
        vals = (r ** 2)[:, None, None]
    else:
        vals = (r ** 2)[:, None, None] * (np.sin(th) ** 2)[None, :, None]
    return np.broadcast_to(vals, tuple(shape))


def _shifted(w, axis, step, pec):
    """w moved by `step` cells along axis; a PEC axis reads zero beyond it."""
    out = np.roll(w, -step, axis=axis)
    if pec:
        idx = [slice(None)] * 3
        idx[axis] = -1 if step > 0 else 0
        out[tuple(idx)] = 0.0
    return out


def div_forward(b, spacing, bc):
    """Plain forward-difference divergence of face-densitized components."""
    return sum((_shifted(b[i], i, 1, bc[i] == "pec") - b[i]) / spacing[i]
               for i in range(3))


def div_backward(d, spacing, bc):
    """Plain backward-difference divergence of edge-densitized components."""
    return sum((d[i] - _shifted(d[i], i, -1, bc[i] == "pec")) / spacing[i]
               for i in range(3))


def plane_wave_e2(extents, shape, t, c=1.0):
    """Exact E_2 = cos(k (x3 - c t)) of the axis-3 travelling wave at edge-2 sites."""
    lo, hi = extents[2]
    k = 2.0 * math.pi / (hi - lo)
    x3 = site_axes(extents, shape, EDGE_HALF[1])[2]
    return np.broadcast_to(np.cos(k * (x3 - c * t)), tuple(shape))


def cartesian_energy(e, d, b, spacing):
    """(1/8 pi) sum(E.D + B.H) dV with g = 1, eps = mu = 1, so H = B."""
    dv = float(np.prod(spacing))
    return dv / (8.0 * math.pi) * float(np.sum(e * d) + np.sum(b * b))


# ---------------------------------------------------------------------------
# Snapshot readers
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = 64
COMPONENTS = tuple(f"{f}_{i}" for f in "BDEH" for i in (1, 2, 3))


class SnapshotError(Exception):
    pass


def read_binary_snapshot(blob):
    """Parse a snapshot: 64-byte header, then float64 C-order component arrays.

    Header: b"CVMX", uint32 N1, N2, N3, uint32 dtype code (1 = float64),
    uint32 field count, zero padding; all little-endian.  Components come
    in sorted name order.  Returns a dict of name -> (N1, N2, N3) array.
    """
    if len(blob) < SNAPSHOT_HEADER or blob[:4] != b"CVMX":
        raise SnapshotError("bad magic")
    n1, n2, n3, code, count = struct.unpack("<3I2I", blob[4:24])
    if code != 1:
        raise SnapshotError(f"dtype code {code}, expected 1 (float64)")
    if any(blob[24:SNAPSHOT_HEADER]):
        raise SnapshotError("header padding is not zero")
    if count != len(COMPONENTS):
        raise SnapshotError(f"{count} fields, expected {len(COMPONENTS)}")
    cells = n1 * n2 * n3
    if len(blob) != SNAPSHOT_HEADER + 8 * cells * count:
        raise SnapshotError("payload size does not match the header")
    data = np.frombuffer(blob, dtype="<f8", offset=SNAPSHOT_HEADER)
    return {name: data[k * cells:(k + 1) * cells].reshape(n1, n2, n3)
            for k, name in enumerate(COMPONENTS)}


def read_csv_snapshot(text):
    """Parse a CSV snapshot: header x1,x2,x3 plus component names, one row per cell."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header != ["x1", "x2", "x3", *COMPONENTS]:
        raise SnapshotError(f"unexpected CSV header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return rows


# ---------------------------------------------------------------------------
# Cartesian field basis with closed-form derivatives
# ---------------------------------------------------------------------------

# phi_k(x, y, z) as text for the program side, with gradient and Laplacian
# in numpy.  Every random field is a combination of all five with
# nonzero integer coefficients, so each draw has the same structure.
BASIS_TEXT = ("x*y", "y*z^2", "sin(x)", "y*cos(z)", "exp(y)")


def basis_gradients(p):
    """Row k is grad phi_k at p."""
    x, y, z = p
    return np.array([
        [y, x, 0.0],
        [0.0, z * z, 2.0 * y * z],
        [math.cos(x), 0.0, 0.0],
        [0.0, math.cos(z), -y * math.sin(z)],
        [0.0, math.exp(y), 0.0],
    ])


def basis_laplacians(p):
    x, y, z = p
    return np.array([0.0, 2.0 * y, -math.sin(x), -y * math.cos(z), math.exp(y)])


def random_coefficients(rng, count):
    """Integers of magnitude 1000-9999 and random sign.

    Wide enough that two coefficients almost never coincide: equal ones let
    the simplifier cancel or merge terms (sin^2 + cos^2 = 1), which would
    make the symbolic work, and so the unit time, depend on the seed.
    """
    mags = rng.integers(1000, 10000, size=count)
    signs = rng.choice((-1, 1), size=count)
    return [int(m * s) for m, s in zip(mags, signs)]


def cartesian_operator(op, coeffs, p):
    """Cartesian grad / div / curl / Laplacian of the basis field at point p.

    ``coeffs`` is a list of 5 coefficients for a scalar field, or three such
    lists (one per Cartesian component) for a vector field.
    """
    grads = basis_gradients(p)
    if op == "grad":
        return np.asarray(coeffs, dtype=float) @ grads
    if op == "laplacian":
        return np.array([np.asarray(coeffs, dtype=float) @ basis_laplacians(p)])
    # jac[a, b] = d W_a / d x_b
    jac = np.array([np.asarray(c, dtype=float) @ grads for c in coeffs])
    if op == "div":
        return np.array([np.trace(jac)])
    return np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                     jac[1, 0] - jac[0, 1]])


# ---------------------------------------------------------------------------
# Charts of the derivation workload
# ---------------------------------------------------------------------------

# Embeddings as program input text, sampling domains, and the Jacobian
# d x_a / d u^i in closed form.
PARABOLIC_CHART_FILE = """\
[chart]
name = parabolic
coords = u, v, z
embedding = (u^2 - v^2)/2, u*v, z
domain = u:(0.1,2.0), v:(0.1,2.0), z:(-1.0,1.0)
"""

CHART_DOMAINS = {
    "cartesian": ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    "cylindrical": ((0.1, 2.0), (0.1, 2.0), (-1.0, 1.0)),
    "spherical": ((0.1, 2.0), (0.1, 2.0), (0.1, 2.0)),
    "parabolic": ((0.1, 2.0), (0.1, 2.0), (-1.0, 1.0)),
}


def embed(chart, u):
    a, b, c = u
    if chart == "cartesian":
        return np.array([a, b, c])
    if chart == "cylindrical":
        return np.array([a * math.cos(b), a * math.sin(b), c])
    if chart == "spherical":
        return np.array([a * math.sin(b) * math.cos(c), a * math.sin(b) * math.sin(c),
                         a * math.cos(b)])
    return np.array([(a * a - b * b) / 2.0, a * b, c])


def embedding_jacobian(chart, u):
    """Matrix J[a, i] = d x_a / d u^i."""
    a, b, c = u
    if chart == "cartesian":
        return np.eye(3)
    if chart == "cylindrical":
        return np.array([[math.cos(b), -a * math.sin(b), 0.0],
                         [math.sin(b), a * math.cos(b), 0.0],
                         [0.0, 0.0, 1.0]])
    if chart == "spherical":
        st, ct, sp, cp = math.sin(b), math.cos(b), math.sin(c), math.cos(c)
        return np.array([[st * cp, a * ct * cp, -a * st * sp],
                         [st * sp, a * ct * sp, a * st * cp],
                         [ct, -a * st, 0.0]])
    return np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, 1.0]])


def pulled_back_operator(chart, op, coeffs, u):
    """The chart-component result the program should derive, at chart point u.

    grad: covariant J^T grad F.  div, Laplacian: the Cartesian scalar at
    x(u).  curl of covariant w = J^T W: contravariant J^-1 curl W.
    """
    jac = embedding_jacobian(chart, u)
    cart = cartesian_operator(op, coeffs, embed(chart, u))
    if op == "grad":
        return jac.T @ cart
    if op == "curl":
        return np.linalg.solve(jac, cart)
    return cart


def agree(got, want, rtol):
    """Relative agreement scaled by the largest reference magnitude (at least 1)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(got - want)) <= rtol * scale)
