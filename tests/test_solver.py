"""Staggered-grid time stepper: conservation, accuracy, and output formats."""

import dataclasses
import io
import math
import struct

import numpy as np
import pytest

from curvmax import solver as sv
from curvmax.chart import builtin_chart, metric_from_chart
from curvmax.diffops import CYCLIC
from curvmax.symexpr import lambdify


def _cart_spec(n, cfl=0.5, length=1.0):
    return sv.GridSpec("cartesian", ((0, length),) * 3, (n, n, n), cfl=cfl)


def _plane_wave_l2_error(spec, state):
    e_field, _ = sv._INITIAL_CONDITIONS["plane_wave"](spec)
    exact = e_field(state.t)
    return float(np.linalg.norm(state.e - exact) / np.linalg.norm(exact))


def _run_one_period(n, cfl=0.5):
    spec = _cart_spec(n, cfl=cfl)
    state = sv.init_grid(spec, "plane_wave")
    dt = sv.time_step(spec)
    state = sv.run(state, spec, round(1.0 / dt))
    return spec, state


def test_plane_wave_one_period_error_small():
    spec, state = _run_one_period(32)
    assert _plane_wave_l2_error(spec, state) < 0.04


def test_second_order_convergence():
    _, s16 = _run_one_period(16)
    _, s32 = _run_one_period(32)
    e16 = _plane_wave_l2_error(_cart_spec(16), s16)
    e32 = _plane_wave_l2_error(_cart_spec(32), s32)
    assert 3.4 <= e16 / e32 <= 4.6


def test_divergence_b_is_exactly_conserved():
    spec = _cart_spec(16)
    state = sv.run(sv.init_grid(spec, "plane_wave"), spec, 200)
    assert sv.diagnostics(state, spec)["div_B"] <= 1e-12


def test_divergence_d_without_sources_is_conserved():
    spec = _cart_spec(16)
    state = sv.init_grid(spec, "plane_wave")
    d0 = sv.diagnostics(state, spec)["div_D_minus_4pi_rho"]
    state = sv.run(state, spec, 200)
    d1 = sv.diagnostics(state, spec)["div_D_minus_4pi_rho"]
    assert abs(d1 - d0) <= 1e-12


def test_energy_drift_is_bounded():
    spec = _cart_spec(16)
    state = sv.init_grid(spec, "plane_wave")
    e0 = sv.diagnostics(state, spec)["energy"]
    dt = sv.time_step(spec)
    state = sv.run(state, spec, round(1.0 / dt))
    e1 = sv.diagnostics(state, spec)["energy"]
    assert abs(e1 - e0) / e0 < 1e-3


def test_cylindrical_grid_conserves_div_b():
    spec = sv.GridSpec("cylindrical",
                       ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)),
                       (12, 16, 8), bc=("pec", "periodic", "pec"))
    state = sv.run(sv.init_grid(spec, "azimuthal_mode"), spec, 200)
    diag = sv.diagnostics(state, spec)
    assert diag["div_B"] <= 1e-12
    assert np.isfinite(diag["max_abs"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic is the point
def test_instability_reports_step_index():
    import dataclasses
    spec = _cart_spec(8)
    state = sv.init_grid(spec, "plane_wave")
    state = sv.run(state, spec, 3)
    bad = np.array(state.e)
    bad[0, 0, 0, 0] = np.inf
    state = dataclasses.replace(state, e=bad)
    with pytest.raises(sv.InstabilityError) as exc:
        sv.run(state, spec, 10)
    assert exc.value.step_index == 4
    assert "step 4" in str(exc.value)


def test_singular_extent_rejected():
    spec = sv.GridSpec("cylindrical", ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
                       (8, 8, 8))
    with pytest.raises(sv.SolverError):
        sv.init_grid(spec, "zero")


def test_gridspec_validation():
    with pytest.raises(sv.SolverError):
        sv.GridSpec("cartesian", ((0, 1),) * 3, (8, 8))
    with pytest.raises(sv.SolverError):
        sv.GridSpec("cartesian", ((1, 0), (0, 1), (0, 1)), (8, 8, 8))
    unit = ((0, 1),) * 3
    bad_extents = [((0, math.inf), (0, 1), (0, 1)), ((math.nan, 1), (0, 1), (0, 1)),
                   ((-math.inf, 0), (0, 1), (0, 1)), ((0, 1), (0, 1), (-1e308, 1e308))]
    for extents in bad_extents:
        with pytest.raises(sv.SolverError, match="finite"):
            sv.GridSpec("cartesian", extents, (8, 8, 8))
    for name in ("epsilon", "mu", "c"):
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(sv.SolverError, match="finite and positive"):
                sv.GridSpec("cartesian", unit, (8, 8, 8), **{name: value})


def test_snapshot_csv_format():
    spec = _cart_spec(4)
    state = sv.init_grid(spec, "plane_wave")
    buf = io.StringIO()
    sv.write_snapshot_csv(buf, state, spec)
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["x1", "x2", "x3"]
    assert len(header) == 15 and header[3:] == sorted(header[3:])
    assert len(lines) == 1 + 4 ** 3


def test_snapshot_binary_format():
    spec = _cart_spec(4)
    state = sv.init_grid(spec, "plane_wave")
    buf = io.BytesIO()
    sv.write_snapshot_binary(buf, state, spec)
    raw = buf.getvalue()
    assert raw[:4] == b"CVMX"
    n1, n2, n3, dtype_code, nfields = struct.unpack_from("<3I2I", raw, 4)
    assert (n1, n2, n3) == (4, 4, 4)
    assert dtype_code == 1 and nfields == 12
    assert len(raw) == 64 + nfields * n1 * n2 * n3 * 8
    # payload decodes to finite float64 arrays
    payload = np.frombuffer(raw, dtype="<f8", offset=64)
    assert np.all(np.isfinite(payload))


def test_diagnostics_csv_format():
    spec = _cart_spec(4)
    state = sv.init_grid(spec, "plane_wave")
    rows = [(state.nstep, state.t, sv.diagnostics(state, spec))]
    buf = io.StringIO()
    sv.write_diagnostics_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,t,energy,div_D_minus_4pi_rho,div_B,max_abs"
    assert len(lines) == 2


def test_instability_from_nan_in_b_reports_step_index():
    spec = _cart_spec(8)
    state = sv.run(sv.init_grid(spec, "plane_wave"), spec, 5)
    bad = np.array(state.b)
    bad[2, 3, 1, 4] = np.nan
    with pytest.raises(sv.InstabilityError) as exc:
        sv.step(dataclasses.replace(state, b=bad), spec)
    assert exc.value.step_index == 6


@pytest.mark.parametrize("field", ["b", "d"])
def test_diagnostics_max_abs_reports_nan_in_any_field(field):
    spec = _cart_spec(4)
    state = sv.init_grid(spec, "plane_wave")
    bad = np.array(getattr(state, field))
    bad[0, 1, 1, 1] = np.nan
    diag = sv.diagnostics(dataclasses.replace(state, **{field: bad}), spec)
    assert math.isnan(diag["max_abs"])


def test_charge_term_is_sampled_at_nodes():
    # The backward divergence of d lives at nodes; the largest node radius
    # of r in (0.5, 1.5) on 16 cells is 0.5 + 15/16.
    spec = sv.GridSpec("cylindrical",
                       ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)),
                       (16, 16, 16), bc=("pec", "periodic", "pec"))
    state = sv.init_grid(spec, "zero")
    diag = sv.diagnostics(state, spec, rho=np.ones(spec.shape))
    assert diag["div_D_minus_4pi_rho"] == pytest.approx(4 * math.pi * 1.4375, abs=1e-12)


def _geometry_arrays(geo):
    for f in dataclasses.fields(geo):
        value = getattr(geo, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, np.ndarray):
                yield v


@pytest.mark.parametrize("chart, extents, shape", [
    ("cartesian", ((0, 1),) * 3, (1, 1, 1)),
    ("cylindrical", ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)), (6, 1, 1)),
    ("spherical", ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi)), (6, 5, 1)),
])
def test_geometry_arrays_are_read_only_and_broadcast_shaped(chart, extents, shape):
    spec = sv.GridSpec(chart, extents, (6, 5, 4))
    geo = sv._geometry(spec)
    arrays = list(_geometry_arrays(geo))
    assert len(arrays) == 16
    assert geo.sqrtg_node.shape == shape
    for arr in arrays:
        assert np.broadcast_shapes(arr.shape, shape) == shape
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


# ---------------------------------------------------------------------------
# Reference stepper: the np.roll + np.stack formulation on full-size metric
# arrays, kept as the oracle for the solver's sliced hot path.
# ---------------------------------------------------------------------------

def _ref_geometry(spec):
    chart = builtin_chart(spec.chart)
    m = metric_from_chart(chart)

    def sample(expr, half):
        axes = [lo + (0.5 * h if hf else 0.0) + h * np.arange(n)
                for (lo, _), h, n, hf in zip(spec.extents, spec.spacing, spec.shape, half)]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(lambdify(expr)(dict(zip(chart.coords, grids))), dtype=float)
        return np.broadcast_to(vals, spec.shape)

    edge = [tuple(a == i for a in range(3)) for i in range(3)]
    face = [tuple(a != i for a in range(3)) for i in range(3)]
    geo = {
        "g_edge": [sample(m.g_lo[i][i], edge[i]) for i in range(3)],
        "sqrtg_edge": [sample(m.sqrt_abs_g, edge[i]) for i in range(3)],
        "g_face": [sample(m.g_lo[i][i], face[i]) for i in range(3)],
        "sqrtg_face": [sample(m.sqrt_abs_g, face[i]) for i in range(3)],
    }
    g_center = [sample(m.g_lo[i][i], (True, True, True)) for i in range(3)]
    speed2 = sum((1.0 / g_center[i]) / spec.spacing[i] ** 2 for i in range(3))
    geo["dt"] = spec.cfl / (spec.c * math.sqrt(float(np.max(speed2))))
    return geo


def _ref_diff(w, axis, spec, shift):
    out = np.roll(w, shift, axis=axis)
    if spec.bc[axis] == "pec":
        idx = [slice(None)] * 3
        idx[axis] = -1 if shift == -1 else 0
        out[tuple(idx)] = 0.0
    return ((out - w) if shift == -1 else (w - out)) / spec.spacing[axis]


def _ref_curl(w, spec, shift):
    return np.stack([_ref_diff(w[k], j, spec, shift) - _ref_diff(w[j], k, spec, shift)
                     for _, j, k in CYCLIC])


def _ref_step(state, spec, geo):
    dt, c = geo["dt"], spec.c
    b = state.b - 0.5 * c * dt * _ref_curl(state.e, spec, -1)
    h = np.stack([geo["g_face"][i] * b[i] / (geo["sqrtg_face"][i] * spec.mu)
                  for i in range(3)])
    d = state.d + c * dt * _ref_curl(h, spec, 1)
    e = np.stack([geo["g_edge"][i] * d[i] / (geo["sqrtg_edge"][i] * spec.epsilon)
                  for i in range(3)])
    for a in range(3):
        if spec.bc[a] == "pec":
            for i in range(3):
                if i != a:
                    idx = [slice(None)] * 3
                    idx[a] = 0
                    e[(i, *idx)] = 0.0
    b = b - 0.5 * c * dt * _ref_curl(e, spec, -1)
    return sv.GridField(e=e, d=d, b=b, t=state.t + dt, nstep=state.nstep + 1)


_TRAJECTORY_CASES = {
    "cartesian": (sv.GridSpec("cartesian", ((-0.3, 0.7), (0.1, 1.2), (0.0, 0.9)),
                              (16, 12, 10)), "plane_wave"),
    "cylindrical": (sv.GridSpec("cylindrical",
                                ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)),
                                (12, 16, 8), bc=("pec", "periodic", "pec")),
                    "azimuthal_mode"),
    "spherical": (sv.GridSpec("spherical",
                              ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi)),
                              (16, 16, 16), bc=("pec", "pec", "periodic")),
                  "azimuthal_mode"),
}


@pytest.mark.parametrize("case", sorted(_TRAJECTORY_CASES))
def test_step_matches_reference_stepper_for_20_steps(case):
    spec, initial = _TRAJECTORY_CASES[case]
    geo = _ref_geometry(spec)
    assert sv.time_step(spec) == geo["dt"]
    got = ref = sv.init_grid(spec, initial)
    for _ in range(20):
        ref = _ref_step(ref, spec, geo)
        prev = got
        copies = [a.copy() for a in (prev.e, prev.d, prev.b)]
        got = sv.step(prev, spec)
        # the input state is never written to
        assert all(np.array_equal(a, c) for a, c in zip((prev.e, prev.d, prev.b), copies))
    assert got.t == ref.t and got.nstep == ref.nstep == 20
    for name in ("e", "d", "b"):
        a, r = getattr(got, name), getattr(ref, name)
        if case == "cartesian":
            assert np.array_equal(a, r), name
        else:
            assert np.max(np.abs(a - r)) <= 1e-12 * np.max(np.abs(r)), name


def _ref_write_snapshot_csv(stream, state, spec):
    comps = sv._all_components(state, spec)
    names = sorted(comps)
    axes = sv._site_axes(spec, (True, True, True))
    stream.write("x1,x2,x3," + ",".join(names) + "\n")
    for idx in np.ndindex(tuple(spec.shape)):
        row = [f"{axes[a][idx[a]]:.12g}" for a in range(3)]
        row += [f"{comps[n][idx]:.12g}" for n in names]
        stream.write(",".join(row) + "\n")


def test_snapshot_csv_matches_row_by_row_writer():
    spec = sv.GridSpec("spherical",
                       ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi)),
                       (5, 4, 3), bc=("pec", "pec", "periodic"))
    rng = np.random.default_rng(3)
    fields = [rng.normal(size=(3, 5, 4, 3)) * 10.0 ** rng.integers(-20, 20, size=(3, 5, 4, 3))
              for _ in range(3)]
    for f in fields:
        f[0, 0, 0, 0] = -0.0
        f[1, 1, 1, 1] = 0.0
        f[2, 2, 2, 2] = 3.0
    state = sv.GridField(e=fields[0], d=fields[1], b=fields[2], t=0.0)
    got, want = io.StringIO(), io.StringIO()
    sv.write_snapshot_csv(got, state, spec)
    _ref_write_snapshot_csv(want, state, spec)
    assert "-0," in got.getvalue()
    assert got.getvalue() == want.getvalue()
