"""Structured-grid leapfrog solver for the covariant 3-vector system.

Discretization: a Yee-style staggered dual grid over the chart's logical
coordinates.  Covariant E_i (and the collocated D^i) live on edge-i sites,
contravariant B^i (and the collocated H_i) on face-i sites.  The scheme
advances the densitized variables d_i = sqrt(g) D^i and b_i = sqrt(g) B^i
with plain forward/backward difference circulations of E and H in a
half/full/half leapfrog split:

    b -= (c dt/2) curl_f(e);   d += c dt curl_b(h) - 4 pi dt sqrt(g) j;
    b -= (c dt/2) curl_f(e_new),

with the constitutive pointwise closures of a homogeneous isotropic
medium, E_i = g_ii d_i / (sqrt(g) eps) and H_i = g_ii b_i / (sqrt(g) mu),
evaluated with the metric factors of each staggered site.  Because the
discrete divergence (plain backward differences of the densitized
components) commutes with the plain-difference curls, div b telescopes to
zero exactly and charge continuity holds to machine precision.

The metric enters the update only through those closures, so the chart
acts as a fixed medium (Ward & Pendry 1996).  The coefficients
g_ii / (sqrt(g) eps) at edge sites and g_ii / (sqrt(g) mu) at face sites
are computed once per GridSpec, together with the time step, and a step
only multiplies by them.  Every geometry array keeps the broadcast shape
of the coordinates it depends on -- (1, 1, 1) on the Cartesian chart,
(N1, 1, 1) on the cylindrical one, (N1, N2, 1) on the spherical one --
and is read-only, because all callers share it.

Time stepping is leapfrog (b half step, d full step, b half step) with a
metric-weighted CFL limit dt = cfl * min over cells of
(sum_i g^{ii} / h_i^2)^{-1/2} / c.

Boundary conditions per axis: periodic, or PEC (tangential E treated as
zero beyond the boundary planes of the difference stencils).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chart import builtin_chart, metric_from_chart
from .diffops import CYCLIC
from .symexpr import lambdify

__all__ = [
    "SolverError", "InstabilityError", "GridSpec", "GridField",
    "init_grid", "step", "run", "diagnostics",
    "write_snapshot_csv", "write_snapshot_binary", "write_diagnostics_csv",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = b"CVMX"
_DTYPE_CODE_F64 = 1
_CSV_ROWS_PER_WRITE = 4096


class SolverError(Exception):
    pass


class InstabilityError(SolverError):
    """Raised when a step produces non-finite field values."""

    def __init__(self, step_index):
        self.step_index = step_index
        super().__init__(f"instability detected at step {step_index}")


@dataclass(frozen=True)
class GridSpec:
    """Static description of a structured grid run."""

    chart: str
    extents: tuple  # ((min,max),)*3 in chart coordinates
    shape: tuple    # (N1, N2, N3)
    cfl: float = 0.5
    bc: tuple = ("periodic", "periodic", "periodic")
    epsilon: float = 1.0
    mu: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if len(self.extents) != 3 or len(self.shape) != 3 or len(self.bc) != 3:
            raise SolverError("GridSpec needs 3 extents, 3 cell counts, 3 bcs")
        if any(n < 2 for n in self.shape):
            raise SolverError("need at least 2 cells per axis")
        if any(hi <= lo for lo, hi in self.extents):
            raise SolverError("each extent needs min < max")
        if not 0.0 < self.cfl <= 1.0:
            raise SolverError("CFL number must lie in (0, 1]")
        if any(b not in ("periodic", "pec") for b in self.bc):
            raise SolverError("boundary conditions are 'periodic' or 'pec'")
        if self.epsilon <= 0 or self.mu <= 0:
            raise SolverError("medium parameters must be positive")

    @property
    def spacing(self):
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extents, self.shape))


@dataclass(frozen=True)
class GridField:
    """Field state: covariant e on edges, densitized d, b as described above.

    ``step`` ends with the second half step of ``b``, so ``e``, ``d`` and
    ``b`` are all at time ``t``; ``nstep`` counts accepted steps.
    """

    e: np.ndarray       # (3, N1, N2, N3) covariant E_i at edge-i sites
    d: np.ndarray       # (3, N1, N2, N3) sqrt(g) D^i at edge-i sites
    b: np.ndarray       # (3, N1, N2, N3) sqrt(g) B^i at face-i sites
    t: float
    nstep: int = 0


# ---------------------------------------------------------------------------
# Geometry (metric factors at staggered sites)
# ---------------------------------------------------------------------------

def _site_axes(spec, half):
    """1-D coordinate arrays; half[a] True puts axis a at cell centers."""
    out = []
    for a in range(3):
        lo, _ = spec.extents[a]
        d = spec.spacing[a]
        shift = 0.5 * d if half[a] else 0.0
        out.append(lo + shift + d * np.arange(spec.shape[a]))
    return out


@dataclass(frozen=True)
class _Geometry:
    """Read-only metric arrays of one GridSpec, each at its broadcast shape."""

    g_edge: tuple           # g_ii at edge-i sites
    sqrtg_edge: tuple       # sqrt(g) at edge-i sites
    sqrtg_face: tuple       # sqrt(g) at face-i sites
    sqrtg_node: np.ndarray  # sqrt(g) at nodes, where the divergence of d lives
    e_coef: tuple           # g_ii / (sqrt(g) eps) at edge-i sites: E_i = e_coef[i] d_i
    h_coef: tuple           # g_ii / (sqrt(g) mu) at face-i sites: H_i = h_coef[i] b_i
    dt: float


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
def _geometry(spec):
    chart = builtin_chart(spec.chart)
    m = metric_from_chart(chart)
    if m.lame is None:
        raise SolverError("solver supports orthogonal charts only")
    coords = list(chart.coords)

    def sample(expr, half):
        grids = np.meshgrid(*_site_axes(spec, half), indexing="ij", sparse=True)
        return np.array(lambdify(expr)(dict(zip(coords, grids))), dtype=float, ndmin=3)

    edge_half = [tuple(a == i for a in range(3)) for i in range(3)]
    face_half = [tuple(a != i for a in range(3)) for i in range(3)]
    g_edge = [sample(m.g_lo[i][i], edge_half[i]) for i in range(3)]
    g_face = [sample(m.g_lo[i][i], face_half[i]) for i in range(3)]
    g_center = [sample(m.g_lo[i][i], (True, True, True)) for i in range(3)]
    sqrtg_edge = [sample(m.sqrt_abs_g, edge_half[i]) for i in range(3)]
    sqrtg_face = [sample(m.sqrt_abs_g, face_half[i]) for i in range(3)]
    sqrtg_node = sample(m.sqrt_abs_g, (False, False, False))
    for arr in (*sqrtg_edge, *sqrtg_face, sqrtg_node):
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise SolverError("grid extents touch a chart singularity")
    h = spec.spacing
    speed2 = sum((1.0 / g_center[i]) / h[i] ** 2 for i in range(3))
    return _Geometry(
        g_edge=tuple(_read_only(a) for a in g_edge),
        sqrtg_edge=tuple(_read_only(a) for a in sqrtg_edge),
        sqrtg_face=tuple(_read_only(a) for a in sqrtg_face),
        sqrtg_node=_read_only(sqrtg_node),
        e_coef=tuple(_read_only(g_edge[i] / (sqrtg_edge[i] * spec.epsilon))
                     for i in range(3)),
        h_coef=tuple(_read_only(g_face[i] / (sqrtg_face[i] * spec.mu))
                     for i in range(3)),
        dt=spec.cfl / (spec.c * math.sqrt(float(np.max(speed2)))),
    )


def time_step(spec):
    """Metric-weighted CFL time step for the spec."""
    return _geometry(spec).dt


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def _plane(axis, index):
    idx = [slice(None)] * 3
    idx[axis] = index
    return tuple(idx)


_HEAD, _TAIL = slice(None, -1), slice(1, None)


def _diff_forward(w, axis, spec, out):
    """out = (w[i+1] - w[i]) / h along ``axis``; past the last plane w wraps
    around (periodic) or is zero (PEC)."""
    np.subtract(w[_plane(axis, _TAIL)], w[_plane(axis, _HEAD)],
                out=out[_plane(axis, _HEAD)])
    beyond = w[_plane(axis, 0)] if spec.bc[axis] == "periodic" else 0.0
    np.subtract(beyond, w[_plane(axis, -1)], out=out[_plane(axis, -1)])
    out /= spec.spacing[axis]
    return out


def _diff_backward(w, axis, spec, out):
    """out = (w[i] - w[i-1]) / h along ``axis``; before the first plane w
    wraps around (periodic) or is zero (PEC)."""
    np.subtract(w[_plane(axis, _TAIL)], w[_plane(axis, _HEAD)],
                out=out[_plane(axis, _TAIL)])
    before = w[_plane(axis, -1)] if spec.bc[axis] == "periodic" else 0.0
    np.subtract(w[_plane(axis, 0)], before, out=out[_plane(axis, 0)])
    out /= spec.spacing[axis]
    return out


def _curl(w, diff, spec, out):
    """Circulation of w into out: component i is diff(w_k, j) - diff(w_j, k).

    With ``_diff_forward`` it maps edge fields to faces (used for E), with
    ``_diff_backward`` faces to edges (used for H).
    """
    tmp = np.empty(spec.shape)
    for i, j, k in CYCLIC:
        diff(w[k], j, spec, out[i])
        out[i] -= diff(w[j], k, spec, tmp)
    return out


def _divergence(w, diff, spec, out, tmp):
    """sum_i diff(w_i, i) into out."""
    diff(w[0], 0, spec, out)
    for i in (1, 2):
        out += diff(w[i], i, spec, tmp)
    return out


def _closure(w, coef, out):
    """Pointwise constitutive closure: out_i = coef[i] w_i."""
    for i in range(3):
        np.multiply(w[i], coef[i], out=out[i])
    return out


def _apply_pec(e, spec):
    for a in range(3):
        if spec.bc[a] != "pec":
            continue
        for i in range(3):
            if i != a:  # tangential components on the wall plane
                e[(i, *_plane(a, 0))] = 0.0
    return e


def _max_abs(x):
    # abs() clears the sign of a maximum that is -0.0; nan propagates.
    return abs(float(max(x.max(), -x.min())))


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _plane_wave_fields(spec):
    """Plane wave along axis 3: E_2 = cos(k(x3 - ct)), B^1 = -E_2."""
    lo, hi = spec.extents[2]
    k = 2.0 * math.pi / (hi - lo)

    def e_field(t):
        axes = _site_axes(spec, (False, True, False))
        x3 = axes[2].reshape(1, 1, -1)
        e = np.zeros((3, *spec.shape))
        e[1] = np.broadcast_to(np.cos(k * (x3 - spec.c * t)), spec.shape)
        return e

    def b_field(t):
        axes = _site_axes(spec, (False, True, True))
        x3 = axes[2].reshape(1, 1, -1)
        b = np.zeros((3, *spec.shape))
        b[0] = np.broadcast_to(-np.cos(k * (x3 - spec.c * t)), spec.shape)
        return b

    return e_field, b_field


def _azimuthal_mode_fields(spec):
    """Cylindrical test mode: E_z = cos(m phi), no initial B."""
    def e_field(t):
        axes = _site_axes(spec, (False, False, True))
        phi = axes[1].reshape(1, -1, 1)
        e = np.zeros((3, *spec.shape))
        e[2] = np.broadcast_to(np.cos(2.0 * phi), spec.shape)
        return e

    def b_field(t):
        return np.zeros((3, *spec.shape))

    return e_field, b_field


_INITIAL_CONDITIONS = {
    "zero": lambda spec: (lambda t: np.zeros((3, *spec.shape)),
                          lambda t: np.zeros((3, *spec.shape))),
    "plane_wave": _plane_wave_fields,
    "azimuthal_mode": _azimuthal_mode_fields,
}


def init_grid(spec, initial="zero"):
    """Sample a named analytic initial condition at the staggered sites."""
    if initial not in _INITIAL_CONDITIONS:
        raise SolverError(f"unknown initial condition {initial!r}; "
                          f"known: {sorted(_INITIAL_CONDITIONS)}")
    geo = _geometry(spec)
    e_field, b_field = _INITIAL_CONDITIONS[initial](spec)
    e = _apply_pec(e_field(0.0), spec)
    b0 = b_field(0.0)
    d = np.stack([geo.sqrtg_edge[i] * spec.epsilon * e[i] / geo.g_edge[i]
                  for i in range(3)])
    b = np.stack([geo.sqrtg_face[i] * b0[i] for i in range(3)])
    return GridField(e=e, d=d, b=b, t=0.0)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def step(state, spec, j_func=None):
    """One leapfrog step (b half, d full, b half); returns the new state.

    ``j_func(t) -> (3, N1, N2, N3)`` contravariant current samples at the
    edge sites, or None for source-free runs.
    """
    geo = _geometry(spec)
    dt = time_step(spec)
    c = spec.c
    shape = (3, *spec.shape)

    b = _curl(state.e, _diff_forward, spec, np.empty(shape))
    b *= 0.5 * c * dt
    np.subtract(state.b, b, out=b)
    h = _closure(b, geo.h_coef, np.empty(shape))
    d = _curl(h, _diff_backward, spec, np.empty(shape))
    d *= c * dt
    np.add(state.d, d, out=d)
    if j_func is not None:
        j = np.asarray(j_func(state.t + 0.5 * dt))
        for i in range(3):
            d[i] -= 4.0 * math.pi * dt * (geo.sqrtg_edge[i] * j[i])
    e = _apply_pec(_closure(d, geo.e_coef, np.empty(shape)), spec)
    kick = _curl(e, _diff_forward, spec, h)  # h is spent; reuse its memory
    kick *= 0.5 * c * dt
    b -= kick
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(b))):
        raise InstabilityError(state.nstep + 1)
    return GridField(e=e, d=d, b=b, t=state.t + dt, nstep=state.nstep + 1)


def run(state, spec, nsteps, j_func=None, callback=None):
    """Advance ``nsteps`` steps; optional callback(state) after each."""
    for _ in range(nsteps):
        state = step(state, spec, j_func=j_func)
        if callback is not None:
            callback(state)
    return state


# ---------------------------------------------------------------------------
# Diagnostics and output
# ---------------------------------------------------------------------------

def diagnostics(state, spec, rho=None):
    """Energy, Gauss-law defects, and max |field| of a state.

    Energy is (1/8pi) sum (E.D + B.H) sqrt(g) dV with the staggered
    midpoint quadrature; the divergence defects use the same plain
    backward differences whose commutation with the update curls makes
    div b an exact invariant.
    """
    geo = _geometry(spec)
    dv = float(np.prod(spec.spacing))
    prod = np.multiply(state.e, state.d)
    ed = np.sum(prod)
    hb = _closure(state.b, geo.h_coef, prod)
    hb *= state.b
    energy = dv / (8.0 * math.pi) * float(ed + np.sum(hb))

    # b is driven by forward-difference curls, d by backward ones; the
    # matching divergence direction is what makes each defect telescope.
    acc, tmp = np.empty(spec.shape), np.empty(spec.shape)
    div_b = _max_abs(_divergence(state.b, _diff_forward, spec, acc, tmp))
    div_d = _divergence(state.d, _diff_backward, spec, acc, tmp)
    if rho is not None:
        div_d -= 4.0 * math.pi * np.asarray(rho) * geo.sqrtg_node
    return {
        "energy": energy,
        "div_D_minus_4pi_rho": _max_abs(div_d),
        "div_B": div_b,
        # np.max, unlike the builtin, propagates a nan from any field
        "max_abs": float(np.max([_max_abs(state.e), _max_abs(state.b),
                                 _max_abs(state.d)])),
    }


def _all_components(state, spec):
    geo = _geometry(spec)
    h = _closure(state.b, geo.h_coef, np.empty((3, *spec.shape)))
    comps = {}
    for i in range(3):
        comps[f"E_{i + 1}"] = state.e[i]
        comps[f"D_{i + 1}"] = state.d[i] / geo.sqrtg_edge[i]
        comps[f"B_{i + 1}"] = state.b[i] / geo.sqrtg_face[i]
        comps[f"H_{i + 1}"] = h[i]
    return comps


def write_snapshot_csv(stream, state, spec):
    """Cell-indexed CSV snapshot: coordinates plus all 12 components."""
    comps = _all_components(state, spec)
    names = sorted(comps)
    coords = np.meshgrid(*_site_axes(spec, (True, True, True)), indexing="ij")
    table = np.column_stack([x.ravel() for x in coords]
                            + [comps[n].ravel() for n in names])
    stream.write("x1,x2,x3," + ",".join(names) + "\n")
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    for lo in range(0, len(table), _CSV_ROWS_PER_WRITE):
        rows = table[lo:lo + _CSV_ROWS_PER_WRITE]
        stream.write(line * len(rows) % tuple(rows.ravel().tolist()))


def write_snapshot_binary(stream, state, spec):
    """Raw little-endian snapshot with a 64-byte header.

    Header: magic "CVMX"; uint32 dims N1, N2, N3; uint32 dtype code
    (1 = float64); uint32 field count; zero padding to 64 bytes.  Payload:
    the field arrays in sorted component-name order, C order.
    """
    comps = _all_components(state, spec)
    names = sorted(comps)
    header = SNAPSHOT_MAGIC + struct.pack(
        "<3I2I", *spec.shape, _DTYPE_CODE_F64, len(names))
    stream.write(header.ljust(64, b"\0"))
    for n in names:
        stream.write(np.ascontiguousarray(comps[n], dtype="<f8").tobytes())


def write_diagnostics_csv(stream, rows):
    """Diagnostics time series: (step, t, energy, gauss defects, max_abs)."""
    stream.write("step,t,energy,div_D_minus_4pi_rho,div_B,max_abs\n")
    for nstep, t, diag in rows:
        stream.write(f"{nstep},{t:.12g},{diag['energy']:.12g},"
                     f"{diag['div_D_minus_4pi_rho']:.12g},"
                     f"{diag['div_B']:.12g},{diag['max_abs']:.12g}\n")
