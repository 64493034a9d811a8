"""Structured-grid leapfrog solver for the covariant 3-vector system.

Discretization: a Yee-style staggered dual grid over the chart's logical
coordinates.  Covariant E_i (and the collocated D^i) live on edge-i sites,
contravariant B^i (and the collocated H_i) on face-i sites; d_i =
sqrt(g) D^i and b_i = sqrt(g) B^i are the densitized components.

The solver works in finite-integration variables (Weiland 1977; Teixeira
& Chew 1999).  With grid spacings h_i, cell volume V = h1 h2 h3 and time
step dt, the state holds

    edge integrals  e~_i = (c dt / 2) h_i e_i,
    face fluxes     b~_i = (V / h_i) b_i  and  d~_i = (V / h_i) d_i.

In these variables every curl and divergence is a sum of +-1 slices of
neighbouring values, and all of the metric, the medium, the spacings and
c dt sit in the two pointwise constitutive closures,

    h~_i = (c dt h_i^2 / V) g_ii / (sqrt(g) mu) b~_i        (faces),
    e~_i = (c dt h_i^2 / 2V) g_ii / (sqrt(g) eps) d~_i      (edges),

evaluated with the metric factors of each staggered site.  One step is
the half/full/half leapfrog split

    b~ -= curl+ e~;   d~ += curl- h~ - 4 pi dt (V / h_i) sqrt(g) j;
    b~ -= curl+ e~_new,

where curl+ uses forward and curl- backward incidence sums.  The metric
enters only through the closures, so the chart acts as a fixed medium
(Ward & Pendry 1996).  The closure and current coefficients are computed
once per GridSpec, together with the time step; every geometry array
keeps the broadcast shape of the coordinates it depends on -- (1, 1, 1)
on the Cartesian chart, (N1, 1, 1) on the cylindrical one, (N1, N2, 1) on
the spherical one -- and is read-only, because all callers share it.
Because the divergences are the same +-1 sums, div b~ telescopes to zero
exactly and charge continuity holds to machine precision; ``diagnostics``
divides only the final maxima by V.

Every sweep -- the three curls of a step, with the b~ closure and the
finiteness guard riding along, and the single pass of ``diagnostics`` --
runs over slabs of axis 0 of about ``_SLAB_CELLS`` cells, so that each
component's slab stays in cache between the passes of a sweep; a grid
that small is one slab.  A slab reads one plane of its source beyond
its rows, and only the first or last slab wraps periodically.  The
+-1 sums along the last axis run as one contiguous pass over the slab
flattened to 1-D, with the end column saved and put back, rather than
one short inner loop per row.  Each value goes through the same
operations in the same order as in a whole-array sweep, so results are
bitwise those of whole-array sweeps.

Physical and integral variables differ by one positive scalar per
component.  ``step`` converts a state built from physical arrays (by
``init_grid``, ``GridField(...)`` or ``dataclasses.replace``) once and
returns integral states, which later steps use as they are.  Reading
``state.e``, ``state.d`` or ``state.b`` of an integral state divides by
those scalars into a new read-only array; it is not cached on the state,
because holding both forms would double the memory of a run.

The time step is the metric-weighted CFL limit dt = cfl * min over cells
of (sum_i g^{ii} / h_i^2)^{-1/2} / c.

Boundary conditions per axis: periodic, or PEC (tangential E treated as
zero beyond the boundary planes of the difference stencils).
"""

from __future__ import annotations

import itertools
import math
import operator
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
_UNIT_SCALE = ((1.0,) * 3,) * 3  # the scalars of a state that holds physical arrays
# Sweeps run over slabs of axis 0 of about this many cells, 256 KiB per
# float64 component, so that a slab's components stay in cache from one
# pass of a sweep to the next.
_SLAB_CELLS = 1 << 15


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
        # tuples, so that a spec built from lists can key _geometry's cache
        object.__setattr__(self, "extents", tuple(tuple(e) for e in self.extents))
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "bc", tuple(self.bc))
        if len(self.extents) != 3 or len(self.shape) != 3 or len(self.bc) != 3:
            raise SolverError("GridSpec needs 3 extents, 3 cell counts, 3 bcs")
        if any(n < 2 for n in self.shape):
            raise SolverError("need at least 2 cells per axis")
        if any(hi <= lo for lo, hi in self.extents):
            raise SolverError("each extent needs min < max")
        h = self.spacing
        # the geometry forms h_i^2 and the cell volume: neither may overflow or vanish
        if not all(0.0 < x < math.inf for x in (*h, *(a * a for a in h), math.prod(h))):
            raise SolverError("extents must be finite, with spacings whose squares and "
                              "product are finite and nonzero")
        if not 0.0 < self.cfl <= 1.0:
            raise SolverError("CFL number must lie in (0, 1]")
        if any(b not in ("periodic", "pec") for b in self.bc):
            raise SolverError("boundary conditions are 'periodic' or 'pec'")
        if not all(0.0 < v < math.inf for v in (self.epsilon, self.mu, self.c)):
            raise SolverError("epsilon, mu and c must be finite and positive")

    @property
    def spacing(self):
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extents, self.shape))


@dataclass(frozen=True, init=False, eq=False)
class GridField:
    """Field state at time ``t`` after ``nstep`` accepted steps.

    ``e``, ``d`` and ``b`` read the physical arrays: covariant E_i at
    edge-i sites, sqrt(g) D^i at edge-i sites and sqrt(g) B^i at face-i
    sites, each of shape (3, N1, N2, N3).  ``step`` ends with the second
    half step of ``b``, so all three are at time ``t``.

    A state built as ``GridField(e=, d=, b=, t=)`` (or by
    ``dataclasses.replace``) holds the given physical arrays.  A state
    returned by ``step`` holds the integral arrays e~, d~, b~ of the module
    docstring and the per-component scalars that relate them to the
    physical ones; each read of ``e``, ``d`` or ``b`` then divides by those
    scalars into a new array, which is not kept: keeping it would hold
    every field twice.  Either way the arrays read are read-only, so a
    write raises instead of being lost.
    """

    e: np.ndarray
    d: np.ndarray
    b: np.ndarray
    t: float
    nstep: int = 0

    def __init__(self, e, d, b, t, nstep=0, *, _scale=None):
        # _scale (from ``step`` only) marks e, d, b as integral arrays with
        # physical = arrays[k][i] / _scale[k][i]
        arrays = tuple(np.asarray(x) for x in (e, d, b))
        for name, value in (("_arrays", arrays), ("_scale", _scale),
                            ("t", t), ("nstep", nstep)):
            object.__setattr__(self, name, value)

    def _physical(self, k):
        x = self._arrays[k]
        if self._scale is None:
            out = x.view()
        else:
            out = np.empty(x.shape)
            for i in range(3):
                np.divide(x[i], self._scale[k][i], out=out[i])
        out.flags.writeable = False
        return out

    e = property(lambda self: self._physical(0))
    d = property(lambda self: self._physical(1))
    b = property(lambda self: self._physical(2))


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
    """Read-only metric and closure arrays of one GridSpec, each at its
    broadcast shape, with the time step and the integral scalars."""

    g_edge: tuple           # g_ii at edge-i sites
    sqrtg_edge: tuple       # sqrt(g) at edge-i sites
    sqrtg_face: tuple       # sqrt(g) at face-i sites
    sqrtg_node: np.ndarray  # sqrt(g) at nodes, where the divergence of d lives
    h_coef: tuple           # g_ii / (sqrt(g) mu) at face-i sites: H_i = h_coef[i] b_i
    d_to_e: tuple           # e~_i = d_to_e[i] d~_i at edge-i sites
    b_to_h: tuple           # h~_i = b_to_h[i] b~_i at face-i sites
    j_coef: tuple           # d~_i -= j_coef[i] j_i at edge-i sites
    scale: tuple            # (e, d, b) scalars per component: integral = scale * physical
    dt: float


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=8)
@np.errstate(all="ignore")  # overflow leaves inf or nan, which the checks reject
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
    for arr in (*g_edge, *g_face, *g_center, *sqrtg_edge, *sqrtg_face, sqrtg_node):
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise SolverError("the metric is not positive and finite on the grid: "
                              "its extents touch a chart singularity or are too large")
    h = spec.spacing
    speed2 = float(np.max(sum((1.0 / g_center[i]) / h[i] ** 2 for i in range(3))))
    if not 0.0 < speed2 < math.inf:
        raise SolverError("the grid's metric and spacing give no finite time step")
    dt = spec.cfl / (spec.c * math.sqrt(speed2))
    cdt, vol = spec.c * dt, h[0] * h[1] * h[2]
    edge = tuple(0.5 * cdt * h[i] for i in range(3))  # e~_i = edge[i] e_i
    flux = tuple(vol / h[i] for i in range(3))        # b~_i = flux[i] b_i, same for d
    h_coef = [g_face[i] / (sqrtg_face[i] * spec.mu) for i in range(3)]
    geo = _Geometry(
        g_edge=tuple(_read_only(a) for a in g_edge),
        sqrtg_edge=tuple(_read_only(a) for a in sqrtg_edge),
        sqrtg_face=tuple(_read_only(a) for a in sqrtg_face),
        sqrtg_node=_read_only(sqrtg_node),
        h_coef=tuple(_read_only(a) for a in h_coef),
        d_to_e=tuple(_read_only(g_edge[i] / (sqrtg_edge[i] * spec.epsilon)
                                * (edge[i] / flux[i])) for i in range(3)),
        b_to_h=tuple(_read_only(h_coef[i] * (cdt * h[i] / flux[i])) for i in range(3)),
        j_coef=tuple(_read_only((4.0 * math.pi * dt * flux[i]) * sqrtg_edge[i])
                     for i in range(3)),
        scale=(edge, flux, flux),
        dt=dt,
    )
    coefs = (*geo.h_coef, *geo.d_to_e, *geo.b_to_h, *geo.j_coef, *edge, *flux)
    if not all(np.all((0 < c) & (c < math.inf)) for c in coefs):
        raise SolverError("the grid's closure coefficients are not positive and finite: "
                          "its extents are too large or too small")
    return geo


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


def _slabs(shape):
    """(lo, hi) row ranges of axis 0 that split the grid into slabs of about
    _SLAB_CELLS cells; a grid of at most that many cells is one slab."""
    n1 = shape[0]
    rows = max(1, _SLAB_CELLS // (shape[1] * shape[2]))
    return [(lo, min(lo + rows, n1)) for lo in range(0, n1, rows)]


def _rows(x, lo, hi):
    """Rows lo..hi of axis 0 of a broadcast-shaped array; a scalar or an
    array with one row broadcasts over every slab as it is."""
    return x[lo:hi] if np.ndim(x) == 3 and len(x) > 1 else x


def _add_shifted(out, w, axis, offset, op, spec, lo):
    """out op= w[n + offset] along ``axis`` (op is np.add or np.subtract),
    where ``out`` holds rows lo, lo + 1, ... of axis 0 of the result and
    ``w`` is the whole source; past the boundary plane w wraps around
    (periodic) or is zero (PEC)."""
    periodic = spec.bc[axis] == "periodic"
    if axis == 0:
        # the slab reads one plane of w past its end; only the first
        # (offset -1) or last (offset +1) slab holds a boundary plane
        n, hi = len(w), lo + len(out)
        a, b = (lo, min(hi, n - 1)) if offset > 0 else (max(lo, 1), hi)
        op(out[a - lo:b - lo], w[a + offset:b + offset], out=out[a - lo:b - lo])
        edge = n - 1 if offset > 0 else 0
        if periodic and lo <= edge < hi:
            op(out[edge - lo], w[(edge + offset) % n], out=out[edge - lo])
        return
    w = w[lo:lo + len(out)]
    dst, src = (_HEAD, _TAIL) if offset > 0 else (_TAIL, _HEAD)
    end = _plane(axis, -1 if offset > 0 else 0)  # no neighbour inside the grid
    if axis == 2:
        # One pass over the slab flattened to 1-D instead of one short inner
        # loop per row.  It pairs each row's end with the next row's start,
        # so the end column is saved first and put back (or wrapped) after.
        before = out[end].copy()
        flat = out.reshape(-1)
        assert np.may_share_memory(flat, out), "reshape copied: the update would be lost"
        op(flat[dst], w.reshape(-1)[src], out=flat[dst])
    else:
        before = out[end]  # a view; the pass below leaves the end plane alone
        op(out[_plane(axis, dst)], w[_plane(axis, src)], out=out[_plane(axis, dst)])
    if periodic:
        op(before, w[_plane(axis, 0 if offset > 0 else -1)], out=out[end])
    elif axis == 2:
        out[end] = before


def _circulate(src, w, offset, spec, out, lo, hi):
    """out_i = src_i + w_k - w_j - w_k[n + offset along j] + w_j[n + offset along k]
    on rows lo..hi of axis 0.

    With offset +1 this is src - curl(w) by forward incidence sums (the
    Faraday update, edges to faces); with offset -1 it is src + curl(w) by
    backward ones (the Ampere update, faces to edges).  ``src`` may be
    ``out``; ``w`` is read one plane beyond the rows.
    """
    for i, j, k in CYCLIC:
        o = out[i, lo:hi]
        np.add(src[i, lo:hi], w[k, lo:hi], out=o)
        o -= w[j, lo:hi]
        _add_shifted(o, w[k], j, offset, np.subtract, spec, lo)
        _add_shifted(o, w[j], k, offset, np.add, spec, lo)
    return out


def _divergence(w, offset, spec, out, lo):
    """out = sum_i w_i[n] - w_i[n + offset along i] on the rows lo, lo + 1,
    ... of axis 0 that ``out`` holds: the backward divergence for offset -1
    and minus the forward one for offset +1, as +-1 sums."""
    hi = lo + len(out)
    np.add(w[0, lo:hi], w[1, lo:hi], out=out)
    out += w[2, lo:hi]
    for i in range(3):
        _add_shifted(out, w[i], i, offset, np.subtract, spec, lo)
    return out


def _closure(w, coef, out, lo=0, hi=None):
    """Pointwise closure or rescaling on rows lo..hi of axis 0 (all rows by
    default): out_i = coef[i] w_i."""
    for i in range(3):
        np.multiply(w[i, lo:hi], _rows(coef[i], lo, hi), out=out[i, lo:hi])
    return out


def _integral_arrays(state, geo):
    """(e~, d~, b~) of a state; a state from an earlier step with the same
    geometry already holds them, any other is converted once."""
    if state._scale == geo.scale:
        return state._arrays
    return tuple(_closure(x, s, np.empty(x.shape))
                 for x, s in zip((state.e, state.d, state.b), geo.scale))


def _wall_sites(spec):
    """Index tuples of the tangential components on each PEC wall plane."""
    return [(i, *_plane(a, 0)) for a in range(3) if spec.bc[a] == "pec"
            for i in range(3) if i != a]


def _apply_pec(e, spec):
    for site in _wall_sites(spec):
        e[site] = 0.0
    return e


def _peak(x):
    """max |x| up to the sign of a zero maximum; a nan propagates."""
    return max(x.max(), -x.min())


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
    e, d, b = _integral_arrays(state, geo)
    shape = (3, *spec.shape)
    slabs = _slabs(spec.shape)

    b_half, h, d_new = np.empty(shape), np.empty(shape), np.empty(shape)
    for lo, hi in slabs:
        _circulate(b, e, 1, spec, b_half, lo, hi)
        _closure(b_half, geo.b_to_h, h, lo, hi)
    for lo, hi in slabs:  # reads h one plane before each slab
        _circulate(d, h, -1, spec, d_new, lo, hi)
    b, d = b_half, d_new
    if j_func is not None:
        j = np.asarray(j_func(state.t + 0.5 * dt))
        for i in range(3):
            d[i] -= geo.j_coef[i] * j[i]
    e = _apply_pec(_closure(d, geo.d_to_e, h), spec)  # h is spent; reuse its memory
    # The finiteness guard.  Every e~_k enters the unshifted term of b~_i
    # (i != k) in the same cell and slab, every d~ reaches e~ through a
    # positive finite closure, and adding finite values never makes inf or
    # nan finite; so checking b~ covers all three fields, except d~ on the
    # PEC wall planes, whose e~ is zeroed.
    if not all(np.isfinite(d[site]).all() for site in _wall_sites(spec)):
        raise InstabilityError(state.nstep + 1)
    for lo, hi in slabs:
        _circulate(b, e, 1, spec, b, lo, hi)
        if not np.isfinite(b[:, lo:hi]).all():
            raise InstabilityError(state.nstep + 1)
    return GridField(e, d, b, state.t + dt, state.nstep + 1, _scale=geo.scale)


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
    midpoint quadrature, that is (sum e~.d~ / (c dt/2) + sum h~.b~ / (c dt))
    / 8pi in integral variables; the divergence defects use the same +-1
    incidence sums whose commutation with the update curls makes div b an
    exact invariant.
    """
    geo = _geometry(spec)
    e, d, b = _integral_arrays(state, geo)
    cdt, vol = spec.c * geo.dt, float(np.prod(spec.spacing))
    if rho is not None:
        rho = np.broadcast_to(rho, spec.shape)
    slabs = _slabs(spec.shape)
    acc = np.empty((slabs[0][1], *spec.shape[1:]))
    # Per slab: the dot products of e.d and h.b along the last axis, and the
    # running peaks of div b, div d - 4 pi rho and the nine stored components.
    # The row dots are summed once at the end by numpy's pairwise sum, which
    # keeps the rounding error of np.sum(x * y); one np.vdot over 3 x 64^3
    # values sums in sequence and was off by 4e-14 relative on a plane wave,
    # against 2e-16 for this.
    ed, hb = np.empty((3, *spec.shape[:2])), np.empty((3, *spec.shape[:2]))
    peaks = np.zeros(11)
    for lo, hi in slabs:
        t = acc[:hi - lo]
        for i in range(3):
            np.einsum("ijk,ijk->ij", e[i, lo:hi], d[i, lo:hi], out=ed[i, lo:hi])
            np.multiply(b[i, lo:hi], _rows(geo.b_to_h[i], lo, hi), out=t)
            np.einsum("ijk,ijk->ij", t, b[i, lo:hi], out=hb[i, lo:hi])
        # b is driven by forward-difference curls, d by backward ones; the
        # matching divergence direction is what makes each defect telescope.
        slab_peaks = [_peak(_divergence(b, 1, spec, t, lo))]
        _divergence(d, -1, spec, t, lo)
        if rho is not None:
            t -= (4.0 * math.pi * vol) * rho[lo:hi] * _rows(geo.sqrtg_node, lo, hi)
        slab_peaks.append(_peak(t))
        slab_peaks += [_peak(x[i, lo:hi]) for x in state._arrays for i in range(3)]
        np.maximum(peaks, slab_peaks, out=peaks)  # np.maximum, unlike max, keeps a nan
    hb_sum = sum(float(np.sum(x)) for x in hb)  # per component, as it was always summed
    energy = (2.0 * float(np.sum(ed)) + hb_sum) / (8.0 * math.pi * cdt)
    # max |x_i| / scale_i per component equals the maximum over the arrays
    # .e, .d, .b read: dividing by a positive scalar keeps the order of values.
    scale = [s for field in state._scale or _UNIT_SCALE for s in field]
    fields = [abs(float(p)) / s for p, s in zip(peaks[2:], scale)]
    return {
        "energy": energy,
        "div_D_minus_4pi_rho": abs(float(peaks[1])) / vol,
        "div_B": abs(float(peaks[0])) / vol,
        # np.max, unlike the builtin, propagates a nan from any field
        "max_abs": float(np.max(fields)),
    }


def _all_components(state, spec):
    """Yield (name, array) for the 12 snapshot components in sorted name
    order, each computed when it is reached, so a writer need not hold all."""
    geo = _geometry(spec)
    (e, d, b), (se, sd, sb) = state._arrays, state._scale or _UNIT_SCALE
    for i in range(3):
        yield f"B_{i + 1}", b[i] / (sb[i] * geo.sqrtg_face[i])
    for i in range(3):
        yield f"D_{i + 1}", d[i] / (sd[i] * geo.sqrtg_edge[i])
    for i in range(3):
        yield f"E_{i + 1}", e[i] / se[i]  # as state.e reads it
    for i in range(3):
        yield f"H_{i + 1}", b[i] * (geo.h_coef[i] / sb[i])


def _cut_invariant_axes(x):
    """``x`` with each axis along which it repeats its first plane, bit for
    bit (so -0.0 and each nan payload are told apart), cut to that plane.
    One line along the axis is compared before the whole array, so an
    array with no symmetry is rejected after three short comparisons."""
    for a in range(3):
        bits = x.view(np.int64)
        line = bits[tuple(slice(None) if b == a else 0 for b in range(3))]
        first = _plane(a, slice(0, 1))
        if (line == line[0]).all() and (bits == bits[first]).all():
            x = x[first]
    return x


def write_snapshot_csv(stream, state, spec):
    """Cell-indexed CSV snapshot.

    The header is ``x1,x2,x3`` (the cell-centre coordinates) followed by
    the 12 component names in sorted order; each row, in C order of the
    cells, prints every value with ``%.12g``.  The bytes are those of
    formatting every cell, but the writer formats less:

    - each axis's coordinates once, joined into a row prefix per cell;
    - each component only along the axes it varies on: an axis along
      which it repeats its first plane bit for bit (so -0.0 and nan
      payloads stay exact) is cut to that plane, and a component cut to
      one value is formatted once into the row template;
    - the component text of a row once per cell of the grid spanned by
      the axes the components vary on, one x1 plane of it at a time; each
      row is its coordinate prefix followed by the text it shares with
      the other rows of that cell.
    """
    names, cells, varying = [], [], []
    for name, comp in _all_components(state, spec):
        names.append(name)
        cut = _cut_invariant_axes(np.asarray(comp, dtype=np.float64))
        if cut.size == 1:
            cells.append("%.12g" % cut.flat[0])
        else:
            cells.append("%.12g")
            varying.append(cut)
    stream.write("x1,x2,x3," + ",".join(names) + "\n")
    line = "," + ",".join(cells) + "\n"
    axes = [["%.12g" % x for x in axis.tolist()]
            for axis in _site_axes(spec, (True, True, True))]
    prefixes = map(",".join, itertools.product(*axes))
    n1, *plane = spec.shape
    sub = np.broadcast_shapes((1, 1, 1), *(x.shape for x in varying))
    varying = [np.broadcast_to(x, sub) for x in varying]
    for p in range(sub[0]):
        values = np.empty((sub[1] * sub[2], len(varying)))
        for k, x in enumerate(varying):
            values[:, k] = x[p].ravel()
        texts = [line % tuple(row) for row in values.tolist()]
        shared = np.broadcast_to(np.array(texts, dtype=object).reshape(sub[1:]), plane)
        # sub[0] is 1 or n1, so the x1 planes that share plane p of the
        # texts are all of them or p alone
        for _ in range(p, n1, sub[0]):
            stream.write("".join(map(operator.add, itertools.islice(prefixes, shared.size),
                                     shared.flat)))


def write_snapshot_binary(stream, state, spec):
    """Raw little-endian snapshot with a 64-byte header.

    Header: magic "CVMX"; uint32 dims N1, N2, N3; uint32 dtype code
    (1 = float64); uint32 field count; zero padding to 64 bytes.  Payload:
    the field arrays in sorted component-name order, C order.
    """
    header = SNAPSHOT_MAGIC + struct.pack("<3I2I", *spec.shape, _DTYPE_CODE_F64, 12)
    stream.write(header.ljust(64, b"\0"))
    for _, comp in _all_components(state, spec):
        stream.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def write_diagnostics_csv(stream, rows):
    """Diagnostics time series: (step, t, energy, gauss defects, max_abs)."""
    stream.write("step,t,energy,div_D_minus_4pi_rho,div_B,max_abs\n")
    for nstep, t, diag in rows:
        stream.write(f"{nstep},{t:.12g},{diag['energy']:.12g},"
                     f"{diag['div_D_minus_4pi_rho']:.12g},"
                     f"{diag['div_B']:.12g},{diag['max_abs']:.12g}\n")
