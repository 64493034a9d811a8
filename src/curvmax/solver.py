"""Structured-grid leapfrog solver for the covariant 3-vector system.

Discretization: a Yee-style staggered dual grid over the chart's logical
coordinates.  Covariant E_i (and the collocated D^i) live on edge-i sites,
contravariant B^i (and the collocated H_i) on face-i sites; d_i =
sqrt(g) D^i and b_i = sqrt(g) B^i are the densitized components.

The solver works in finite-integration variables (Weiland 1977; Teixeira
& Chew 1999).  With grid spacings h_i, cell volume V = h1 h2 h3 and time
step dt, the state holds

    edge integrals  e~_i = (dt / 2) h_i e_i,
    face fluxes     b~_i = (V / h_i) b_i  and  d~_i = (V / h_i) d_i.

In these variables every curl and divergence is a sum of +-1 slices of
neighbouring values, and all of the metric, the spacings and dt sit in
the two pointwise constitutive closures,

    h~_i = (dt h_i^2 / V) g_ii / sqrt(g) b~_i        (faces),
    e~_i = (dt h_i^2 / 2V) g_ii / sqrt(g) d~_i       (edges),

evaluated with the metric factors of each staggered site.  One step is
the half/full/half leapfrog split

    b~ -= curl+ e~;   d~ += curl- h~ - 4 pi dt (V / h_i) sqrt(g) j;
    b~ -= curl+ e~_new,

where curl+ uses forward and curl- backward incidence sums.  The metric
enters only through the closures, so the chart acts as the only medium
(Ward & Pendry 1996): runs are in vacuum, with c = 1.  The closure and
current coefficients are computed once per GridSpec, together with the
time step, and are read-only, because all callers share them.  Each
metric array keeps the broadcast shape of the coordinates it depends on --
(1, 1, 1) on the Cartesian chart, (N1, 1, 1) on the cylindrical one,
(N1, N2, 1) on the spherical one.  Each closure is one (3, ...) array of
its three components' common broadcast shape, so that it is one multiply:
(3, 1, 1, 1) and (3, N1, 1, 1) on the first two charts.  A closure that
varies along axis 1 but not along axis 2 is stored full size along axis 2,
(3, N1, N2, N3) on the spherical chart, because a multiply by an
(N1, N2, 1) coefficient runs one short inner loop per (x1, x2) line.
Because the divergences are the same +-1 sums, div b~ telescopes to zero
exactly and charge continuity holds to machine precision; ``diagnostics``
divides only the final maxima by V.

The backward incidence sums are the transpose of the forward ones,
curl- = (curl+)^T, and both closures are positive diagonals.  So the
leapfrog conserves its discrete energy exactly, up to rounding:

    Q = 2 sum e~.d~ + sum h~.b~ - sum (M_h curl+ e~).(curl+ e~),

with M_h the b~ closure.  Q is sum e~.d~ twice plus h~.b~ paired between
the half steps n - 1/2 and n + 1/2, b~ -+ curl+ e~; a step changes it by
2 (d~.e~' - d~'.e~), which vanishes because e~ = M_e d~ with a diagonal
M_e (zero on the PEC wall sites).  ``energy_invariant`` returns Q on the
scale of ``diagnostics()["energy"]``, which is Q plus the last term and
so swings as a wave moves (Teixeira & Chew 1999; Joly 2003).

Every sweep -- the three curls of a step, with the b~ closure and the
finiteness guard riding along, and the single pass of ``diagnostics`` --
runs over slabs of axis 0 of about ``_SLAB_CELLS`` cells, so that each
component's slab stays in cache between the passes of a sweep; a grid
that small is one slab.  A slab reads one plane of its source beyond
its rows, and only the first or last slab wraps periodically.  The
+-1 sums along each of the last two axes are one pass over the slab
flattened to 1-D, the neighbour one stride away, with the end plane saved
first and put back (PEC) or wrapped (periodic), both planes read from a
table built once per axis.  ``diagnostics`` takes e.d and h.b, and the
maximum and minimum of each stored field, over all three components at
once.
Each value goes through the same operations in the same order as in a
whole-array sweep, so results are bitwise those of whole-array sweeps.

Initial conditions are one table, ``INITIAL_CONDITIONS``, of nonzero
components (field, component, axis, profile); one routine samples it at
any time, E_i at edge-i sites and B^i at face-i sites.

Physical and integral variables differ by one positive scalar per
component.  A state built from physical arrays (by ``init_grid``,
``GridField(...)`` or ``dataclasses.replace``) holds the scalars
``_UNIT_SCALE``, all 1.0.  ``step`` converts such a state once and
returns integral states, which later steps use as they are.  Reading
``state.e``, ``state.d`` or ``state.b`` of an integral state divides by
those scalars into a new read-only array; it is not cached on the state,
because holding both forms would double the memory of a run.

The time step is the metric-weighted CFL limit dt = cfl * min over cells
of (sum_i g^{ii} / h_i^2)^{-1/2}.

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

from .chart import builtin_metric
from .diffops import CYCLIC
from .symexpr import lambdify

__all__ = [
    "SolverError", "InstabilityError", "GridSpec", "GridField",
    "INITIAL_CONDITIONS", "init_grid", "step", "run", "diagnostics",
    "energy_invariant", "write_snapshot_csv", "write_snapshot_binary",
    "write_diagnostics_csv", "SNAPSHOT_MAGIC",
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
    """Static description of a structured grid run in vacuum, c = 1."""

    chart: str
    extents: tuple  # ((min,max),)*3 in chart coordinates
    shape: tuple    # (N1, N2, N3)
    cfl: float = 0.5
    bc: tuple = ("periodic", "periodic", "periodic")

    def __post_init__(self):
        # tuples, so that a spec built from lists can key _geometry's cache
        object.__setattr__(self, "extents", tuple(tuple(e) for e in self.extents))
        try:  # numpy integers are stored as int; floats and strings are refused
            object.__setattr__(self, "shape", tuple(map(operator.index, self.shape)))
        except TypeError:
            raise SolverError("cell counts must be integers") from None
        object.__setattr__(self, "bc", tuple(self.bc))
        if len(self.extents) != 3 or len(self.shape) != 3 or len(self.bc) != 3:
            raise SolverError("GridSpec needs 3 extents, 3 cell counts, 3 bcs")
        if any(n < 2 for n in self.shape):
            raise SolverError("need at least 2 cells per axis")
        if 24 * math.prod(self.shape) > np.iinfo(np.intp).max:  # 3 float64 per cell
            raise SolverError("grid too large to address as (3, N1, N2, N3) float64 arrays")
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

    @property
    def spacing(self):
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extents, self.shape))


@dataclass(frozen=True, init=False, eq=False)
class GridField:
    """Field state at time ``t`` after ``nstep`` accepted steps.

    ``e``, ``d`` and ``b`` read the physical arrays: covariant E_i at
    edge-i sites, sqrt(g) D^i at edge-i sites and sqrt(g) B^i at face-i
    sites, each of shape (3, N1, N2, N3); for any other shape ``step``,
    ``diagnostics`` and the snapshot writers raise SolverError.  ``step``
    ends with the second half step of ``b``, so all three are at time ``t``.

    A state built as ``GridField(e=, d=, b=, t=)`` (or by
    ``dataclasses.replace``) holds the given physical arrays and the
    scalars ``_UNIT_SCALE``, all 1.0.  A state returned by ``step`` holds
    the integral arrays e~, d~, b~ of the module docstring and the
    per-component scalars that relate them to the physical ones; each read
    of ``e``, ``d`` or ``b`` then divides by those scalars into a new
    array, which is not kept: keeping it would hold every field twice.
    Either way the arrays read are read-only, so a write raises instead of
    being lost.
    """

    e: np.ndarray
    d: np.ndarray
    b: np.ndarray
    t: float
    nstep: int = 0

    def __init__(self, e, d, b, t, nstep=0, *, _scale=_UNIT_SCALE):
        # physical = arrays[k][i] / _scale[k][i]; only ``step`` passes
        # scalars other than _UNIT_SCALE, those of integral arrays
        arrays = tuple(np.asarray(x) for x in (e, d, b))
        for name, value in (("_arrays", arrays), ("_scale", _scale),
                            ("t", t), ("nstep", nstep)):
            object.__setattr__(self, name, value)

    def _physical(self, k):
        x = self._arrays[k]
        if self._scale is _UNIT_SCALE:
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

# Axes at cell centres per site: edge i (E_i, D^i) on axis i, face i (B^i, H_i) on the others
_HALF = {"e": [tuple(a == i for a in range(3)) for i in range(3)],
         "b": [tuple(a != i for a in range(3)) for i in range(3)]}


def _site_axes(spec, half):
    """1-D coordinate arrays; half[a] True puts axis a at cell centers."""
    return [lo + (0.5 * d if c else 0.0) + d * np.arange(n)
            for (lo, _), d, n, c in zip(spec.extents, spec.spacing, spec.shape, half)]


@dataclass(frozen=True)
class _Geometry:
    """Read-only metric and closure arrays of one GridSpec, with the time
    step and the integral scalars.  The metric arrays keep their broadcast
    shape; each closure is one (3, ...) array (see the module docstring)."""

    g_edge: tuple           # g_ii at edge-i sites
    sqrtg_edge: tuple       # sqrt(g) at edge-i sites
    sqrtg_face: tuple       # sqrt(g) at face-i sites
    sqrtg_node: np.ndarray  # sqrt(g) at nodes, where the divergence of d lives
    h_coef: tuple           # g_ii / sqrt(g) at face-i sites: H_i = h_coef[i] b_i
    d_to_e: np.ndarray      # e~_i = d_to_e[i] d~_i at edge-i sites, (3, ...)
    b_to_h: np.ndarray      # h~_i = b_to_h[i] b~_i at face-i sites, (3, ...)
    j_coef: tuple           # d~_i -= j_coef[i] j_i at edge-i sites
    scale: tuple            # (e, d, b) scalars per component: integral = scale * physical
    dt: float


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _stacked(parts, shape):
    """One read-only (3, ...) array of three broadcast-shaped components, at
    their common broadcast shape; one that varies along axis 1 but not
    along axis 2 is made full size along axis 2 (``shape`` is the grid's),
    so that a multiply by it runs over contiguous rows."""
    common = np.broadcast_shapes(*(p.shape for p in parts))
    if common[1] > 1 and common[2] == 1:
        common = (*common[:2], shape[2])
    return _read_only(np.stack([np.broadcast_to(p, common) for p in parts]))


@lru_cache(maxsize=8)
@np.errstate(all="ignore")  # overflow leaves inf or nan, which the checks reject
def _geometry(spec):
    m = builtin_metric(spec.chart)
    if m.lame is None:
        raise SolverError("solver supports orthogonal charts only")
    coords = list(m.chart.coords)

    def sample(expr, half):
        grids = np.meshgrid(*_site_axes(spec, half), indexing="ij", sparse=True)
        return np.array(lambdify(expr)(dict(zip(coords, grids))), dtype=float, ndmin=3)

    g_edge = [sample(m.g_lo[i][i], _HALF["e"][i]) for i in range(3)]
    g_face = [sample(m.g_lo[i][i], _HALF["b"][i]) for i in range(3)]
    g_center = [sample(m.g_lo[i][i], (True, True, True)) for i in range(3)]
    sqrtg_edge = [sample(m.sqrt_abs_g, _HALF["e"][i]) for i in range(3)]
    sqrtg_face = [sample(m.sqrt_abs_g, _HALF["b"][i]) for i in range(3)]
    sqrtg_node = sample(m.sqrt_abs_g, (False, False, False))
    h = spec.spacing
    speed2 = float(np.max(sum((1.0 / g_center[i]) / h[i] ** 2 for i in range(3))))
    dt, vol = spec.cfl / math.sqrt(speed2), h[0] * h[1] * h[2]
    edge = tuple(0.5 * dt * h[i] for i in range(3))  # e~_i = edge[i] e_i
    flux = tuple(vol / h[i] for i in range(3))       # b~_i = flux[i] b_i, same for d
    h_coef = [g_face[i] / sqrtg_face[i] for i in range(3)]
    geo = _Geometry(
        g_edge=tuple(_read_only(a) for a in g_edge),
        sqrtg_edge=tuple(_read_only(a) for a in sqrtg_edge),
        sqrtg_face=tuple(_read_only(a) for a in sqrtg_face),
        sqrtg_node=_read_only(sqrtg_node),
        h_coef=tuple(_read_only(a) for a in h_coef),
        d_to_e=_stacked([g_edge[i] / sqrtg_edge[i] * (edge[i] / flux[i]) for i in range(3)],
                        spec.shape),
        b_to_h=_stacked([h_coef[i] * (dt * h[i] / flux[i]) for i in range(3)], spec.shape),
        j_coef=tuple(_read_only((4.0 * math.pi * dt * flux[i]) * sqrtg_edge[i])
                     for i in range(3)),
        scale=(edge, flux, flux),
        dt=dt,
    )
    coefs = (*geo.h_coef, *geo.d_to_e, *geo.b_to_h, *geo.j_coef, *edge, *flux)
    if not all(np.all((0 < c) & (c < math.inf)) for c in coefs):
        raise SolverError("the grid's closure coefficients are not positive and finite: "
                          "its extents touch a chart singularity or are too large or too small")
    return geo


def time_step(spec):
    """Metric-weighted CFL time step of the spec: cfl times the minimum over
    cells of (sum_i g^{ii} / h_i^2)^{-1/2}."""
    return _geometry(spec).dt


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def _plane(axis, index):
    idx = [slice(None)] * 3
    idx[axis] = index
    return tuple(idx)


def _slabs(shape):
    """(lo, hi) row ranges of axis 0 that split the grid into slabs of about
    _SLAB_CELLS cells; a grid of at most that many cells is one slab."""
    n1 = shape[0]
    rows = max(1, _SLAB_CELLS // (shape[1] * shape[2]))
    return [(lo, min(lo + rows, n1)) for lo in range(0, n1, rows)]


def _rows(x, lo, hi):
    """Rows lo..hi of grid axis 0 of a broadcast-shaped array, its axis -3
    (the axis after the component axis of a closure); an array with one
    row there broadcasts over every slab as it is."""
    return x[..., lo:hi, :, :] if x.shape[-3] > 1 else x


# The flat pass's boundary planes along axes 1 and 2, per offset: the end
# plane, which has no neighbour inside the grid, and the plane it wraps to.
_FLAT_PLANES = {(a, o): (_plane(a, -1 if o > 0 else 0), _plane(a, 0 if o > 0 else -1))
                for a in (1, 2) for o in (1, -1)}


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
    # One pass over the slab flattened to 1-D, the neighbour one stride away.
    # It runs each row's end plane into the next row, so that plane is saved.
    w = w[lo:lo + len(out)]
    stride = out.strides[axis] // out.itemsize
    head, tail = slice(None, -stride), slice(stride, None)
    dst, src = (head, tail) if offset > 0 else (tail, head)
    end, wrap = _FLAT_PLANES[axis, offset]
    before = out[end].copy()
    flat = out.reshape(-1)
    assert np.may_share_memory(flat, out), "reshape copied: the update would be lost"
    o = flat[dst]
    op(o, w.reshape(-1)[src], out=o)
    if periodic:
        op(before, w[wrap], out=out[end])
    else:
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
    default), one multiply over the three components: out_i = coef[i] w_i,
    with ``coef`` a (3, ...) array."""
    np.multiply(w[:, lo:hi], _rows(coef, lo, hi), out=out[:, lo:hi])
    return out


def _stored_arrays(state, spec):
    """The (e, d, b) arrays a state holds; SolverError unless each is
    (3, N1, N2, N3) for the spec's cells."""
    want = (3, *spec.shape)
    for x in state._arrays:
        if x.shape != want:
            raise SolverError(f"state array of shape {x.shape} does not fit the grid's {want}")
    return state._arrays


def _integral_arrays(state, spec, geo):
    """(e~, d~, b~) of a state; a state from an earlier step with the same
    geometry already holds them, any other is converted once."""
    arrays = _stored_arrays(state, spec)
    if state._scale == geo.scale:
        return arrays
    return tuple(_closure(x, np.reshape(s, (3, 1, 1, 1)), np.empty(x.shape))
                 for x, s in zip((state.e, state.d, state.b), geo.scale))


# the two components tangential to a wall normal to each axis, as one slice
_TANGENTIAL = (slice(1, 3), slice(0, 3, 2), slice(0, 2))


@lru_cache(maxsize=8)
def _wall_sites(spec):
    """One index per PEC wall plane: its tangential components, as a view."""
    return tuple((_TANGENTIAL[a], *_plane(a, 0)) for a in range(3) if spec.bc[a] == "pec")


def _apply_pec(e, spec):
    for site in _wall_sites(spec):
        e[site] = 0.0
    return e


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def _plane_wave(spec, x3, t):
    """cos(k (x3 - t)), one wavelength across the extent of axis 3."""
    lo, hi = spec.extents[2]
    return np.cos(2.0 * math.pi / (hi - lo) * (x3 - t))


# Each initial condition lists its nonzero components (field, i, a, profile):
# component i of E ("e") or B ("b") is profile(spec, x, t) of the coordinate
# x of axis a at that component's sites, constant along the other axes.
INITIAL_CONDITIONS = {
    "zero": (),
    # plane wave along axis 3: E_2 = cos(k(x3 - t)), B^1 = -E_2
    "plane_wave": (("e", 1, 2, _plane_wave),
                   ("b", 0, 2, lambda spec, x, t: -_plane_wave(spec, x, t))),
    # cylindrical test mode: E_z = cos(2 phi), no initial B
    "azimuthal_mode": (("e", 2, 1, lambda spec, x, t: np.cos(2.0 * x)),),
}


def _initial_fields(spec, initial, t):
    """Physical (E, B) of a named initial condition at time ``t``: E_i at
    edge-i sites, B^i at face-i sites, each of shape (3, N1, N2, N3)."""
    fields = {"e": np.zeros((3, *spec.shape)), "b": np.zeros((3, *spec.shape))}
    for field, i, a, profile in INITIAL_CONDITIONS[initial]:
        x = np.meshgrid(*_site_axes(spec, _HALF[field][i]), indexing="ij", sparse=True)[a]
        fields[field][i] = profile(spec, x, t)
    return fields["e"], fields["b"]


def init_grid(spec, initial="zero"):
    """Sample a named analytic initial condition at the staggered sites."""
    if initial not in INITIAL_CONDITIONS:
        raise SolverError(f"unknown initial condition {initial!r}; "
                          f"known: {sorted(INITIAL_CONDITIONS)}")
    geo = _geometry(spec)
    e, b = _initial_fields(spec, initial, 0.0)
    _apply_pec(e, spec)
    d = np.stack([geo.sqrtg_edge[i] * e[i] / geo.g_edge[i] for i in range(3)])
    b = np.stack([geo.sqrtg_face[i] * b[i] for i in range(3)])
    return GridField(e=e, d=d, b=b, t=0.0)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def step(state, spec, j_func=None):
    """One leapfrog step (b half, d full, b half); returns the new state.

    ``j_func(t) -> (3, N1, N2, N3)`` contravariant current samples at the
    edge sites, or None for source-free runs; a current of any other shape
    is a SolverError.
    """
    geo = _geometry(spec)
    dt = time_step(spec)
    e, d, b = _integral_arrays(state, spec, geo)
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
        if j.shape != shape:
            raise SolverError(f"current of shape {j.shape} does not fit the grid's {shape}")
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
    midpoint quadrature, that is (sum e~.d~ / (dt/2) + sum h~.b~ / dt)
    / 8pi in integral variables; the divergence defects use the same +-1
    incidence sums whose commutation with the update curls makes div b an
    exact invariant.  ``rho`` is the charge density at the nodes, a scalar
    or an array that broadcasts to (N1, N2, N3); any other is a SolverError.
    """
    geo = _geometry(spec)
    e, d, b = _integral_arrays(state, spec, geo)
    vol = math.prod(spec.spacing)  # h1 h2 h3, in the geometry's order
    if rho is not None:
        try:
            rho = np.broadcast_to(rho, spec.shape)
        except ValueError:
            raise SolverError(f"charge density of shape {np.shape(rho)} does not "
                              f"broadcast to the grid's {spec.shape}") from None
    slabs = _slabs(spec.shape)
    acc = np.empty((3, slabs[0][1], *spec.shape[1:]))
    # Per slab: the dot products of e.d and h.b along the last axis, and the
    # extremes of div b, div d - 4 pi rho and the nine stored components.
    # The row dots are summed once at the end by numpy's pairwise sum, which
    # keeps the rounding error of np.sum(x * y); one np.vdot over 3 x 64^3
    # values sums in sequence and was off by 4e-14 relative on a plane wave,
    # against 2e-16 for this.
    ed, hb = np.empty((3, *spec.shape[:2])), np.empty((3, *spec.shape[:2]))
    ext = np.empty((len(slabs), 2, 11))
    for (lo, hi), (top, bottom) in zip(slabs, ext):
        h = acc[:, :hi - lo]
        np.einsum("cijk,cijk->cij", e[:, lo:hi], d[:, lo:hi], out=ed[:, lo:hi])
        np.multiply(b[:, lo:hi], _rows(geo.b_to_h, lo, hi), out=h)
        np.einsum("cijk,cijk->cij", h, b[:, lo:hi], out=hb[:, lo:hi])
        t = h[0]  # h is spent; the divergences reuse its first component
        # b is driven by forward-difference curls, d by backward ones; the
        # matching divergence direction is what makes each defect telescope.
        _divergence(b, 1, spec, t, lo)
        top[0], bottom[0] = t.max(), t.min()
        _divergence(d, -1, spec, t, lo)
        if rho is not None:
            t -= (4.0 * math.pi * vol) * rho[lo:hi] * _rows(geo.sqrtg_node, lo, hi)
        top[1], bottom[1] = t.max(), t.min()
        for f, x in enumerate(state._arrays):
            x[:, lo:hi].max(axis=(1, 2, 3), out=top[2 + 3 * f:5 + 3 * f])
            x[:, lo:hi].min(axis=(1, 2, 3), out=bottom[2 + 3 * f:5 + 3 * f])
    # one pairwise sum per component, then the three in order: the rounding
    # the pinned energies hold
    hb_sum = sum(hb.sum(axis=(1, 2)).tolist())
    energy = (2.0 * float(np.sum(ed)) + hb_sum) / (8.0 * math.pi * geo.dt)
    np.negative(ext[:, 1], out=ext[:, 1])
    peaks = ext.max(axis=(0, 1))  # max |x| up to the sign of a zero; a nan propagates
    # max |x_i| / scale_i per component equals the maximum over the arrays
    # .e, .d, .b read: dividing by a positive scalar keeps the order of values.
    return {
        "energy": energy,
        "div_D_minus_4pi_rho": abs(float(peaks[1])) / vol,
        "div_B": abs(float(peaks[0])) / vol,
        # np.max, unlike the builtin, propagates a nan from any field
        "max_abs": float(np.max(np.abs(peaks[2:]) / np.ravel(state._scale))),
    }


def energy_invariant(state, spec):
    """The leapfrog's exact discrete energy, on the scale of ``diagnostics``.

    Q = 2 sum e~.d~ + sum h~.b~ - sum (M_h C+e~).(C+e~), with M_h the b~
    closure and C+ the forward curl, divided by 8 pi dt.  It is
    ``diagnostics()["energy"]`` minus the last term.  ``step`` keeps it
    constant to rounding (see the module docstring) from any state whose
    e~ is the closure of its d~, zero on the PEC walls, as in every state
    ``init_grid`` or ``step`` returns.  A state whose arrays do not fit the spec is a
    SolverError.
    """
    geo = _geometry(spec)
    e, d, b = _integral_arrays(state, spec, geo)
    ce = np.zeros(e.shape)
    for lo, hi in _slabs(spec.shape):
        _circulate(ce, e, 1, spec, ce, lo, hi)  # ce = -C+ e~
    hb = sum(float(np.sum(geo.b_to_h[i] * (b[i] * b[i] - ce[i] * ce[i]))) for i in range(3))
    return (2.0 * float(np.sum(e * d)) + hb) / (8.0 * math.pi * geo.dt)


def _all_components(state, spec):
    """Check the state's shapes, then return (name, array) for the 12 snapshot
    components in sorted name order, each computed when it is reached."""
    geo = _geometry(spec)
    (e, d, b), (se, sd, sb) = _stored_arrays(state, spec), state._scale
    return itertools.chain(
        ((f"B_{i + 1}", b[i] / (sb[i] * geo.sqrtg_face[i])) for i in range(3)),
        ((f"D_{i + 1}", d[i] / (sd[i] * geo.sqrtg_edge[i])) for i in range(3)),
        ((f"E_{i + 1}", e[i] / se[i]) for i in range(3)),  # as state.e reads it
        ((f"H_{i + 1}", b[i] * (geo.h_coef[i] / sb[i])) for i in range(3)))


def write_snapshot_csv(stream, state, spec):
    """Cell-indexed CSV snapshot.

    The header is ``x1,x2,x3`` (the cell-centre coordinates) followed by
    the 12 component names in sorted order; each row, in C order of the
    cells, prints every value with ``%.12g``.  The bytes are those of
    formatting every cell, but the writer formats less:

    - each axis's coordinates once;
    - each component only along the axes it varies on (one comparison of
      the 12 components' bits per axis): an axis along which it repeats
      its first plane bit for bit (so -0.0 and nan payloads stay exact)
      is cut to that plane, and one cut to one value is formatted once
      into the row template;
    - the component text of a row once per cell of the grid spanned by
      the axes the components vary on, one x1 plane of it at a time;
    - the rows of each (x1, x2) pair as one ``str.join`` with the pair's
      prefix ``pre`` as separator; if no component varies along x3, the
      rows share one text ``t``: ``pre + (t + pre).join(x3) + t``.
    """
    names, comps = [], np.empty((12, *spec.shape))
    for k, (name, comp) in enumerate(_all_components(state, spec)):
        names.append(name)
        comps[k] = comp
    bits = comps.view(np.int64)
    invariant = [np.all(bits == bits[(slice(None), *_plane(a, slice(0, 1)))], axis=(1, 2, 3))
                 for a in range(3)]
    cells, varying = [], []
    for k, x in enumerate(comps):
        cut = x[tuple(slice(0, 1) if inv[k] else slice(None) for inv in invariant)]
        if cut.size == 1:
            cells.append("%.12g" % cut.flat[0])
        else:
            cells.append("%.12g")
            varying.append(cut)
    stream.write("x1,x2,x3," + ",".join(names) + "\n")
    x1s, x2s, x3s = [["%.12g" % x for x in axis.tolist()]
                     for axis in _site_axes(spec, (True, True, True))]
    sub = np.broadcast_shapes((1, 1, 1), *(x.shape for x in varying))
    varying = [np.broadcast_to(x, sub) for x in varying]
    # a row's text starts with its x3 coordinate if the texts vary along x3
    line = ("%s," if sub[2] > 1 else ",") + ",".join(cells) + "\n"
    x2s = [x2 + "," for x2 in x2s]
    for p in range(sub[0]):
        values = np.empty((sub[1] * sub[2], len(varying)))
        for k, x in enumerate(varying):
            values[:, k] = x[p].ravel()
        if sub[2] > 1:
            texts = [line % (x3, *row) for x3, row in zip(itertools.cycle(x3s), values.tolist())]
            blocks = [texts[j:j + sub[2]] for j in range(0, len(texts), sub[2])]
        else:
            blocks = [line % tuple(row) for row in values.tolist()]
        blocks *= spec.shape[1] // sub[1]  # sub[1] is 1 or N2
        # sub[0] is 1 or N1, so the x1 planes that share plane p of the
        # texts are all of them or p alone
        for x1 in x1s[p::sub[0]]:
            pres = [x1 + "," + x2 for x2 in x2s]
            if sub[2] > 1:
                rows = [pre + pre.join(texts) for pre, texts in zip(pres, blocks)]
            else:
                rows = [pre + (t + pre).join(x3s) + t for pre, t in zip(pres, blocks)]
            stream.write("".join(rows))


def write_snapshot_binary(stream, state, spec):
    """Raw little-endian snapshot with a 64-byte header.

    Header: magic "CVMX"; uint32 dims N1, N2, N3; uint32 dtype code
    (1 = float64); uint32 field count; zero padding to 64 bytes.  Payload:
    the field arrays in sorted component-name order, C order.
    """
    components = _all_components(state, spec)  # checks the state first
    header = SNAPSHOT_MAGIC + struct.pack("<3I2I", *spec.shape, _DTYPE_CODE_F64, 12)
    stream.write(header.ljust(64, b"\0"))
    for _, comp in components:
        stream.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def write_diagnostics_csv(stream, rows):
    """Diagnostics time series: (step, t, energy, gauss defects, max_abs)."""
    stream.write("step,t,energy,div_D_minus_4pi_rho,div_B,max_abs\n")
    for nstep, t, diag in rows:
        stream.write(f"{nstep},{t:.12g},{diag['energy']:.12g},"
                     f"{diag['div_D_minus_4pi_rho']:.12g},"
                     f"{diag['div_B']:.12g},{diag['max_abs']:.12g}\n")
