"""Staggered-grid time stepper: conservation, accuracy, and output formats."""

import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert sv.diagnostics(state, spec)["div_B"] == 0.0


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
                   ((-math.inf, 0), (0, 1), (0, 1)), ((0, 1), (0, 1), (-1e308, 1e308)),
                   ((0, 1e308), (0, 1), (0, 1)), ((0, 1e-200), (0, 1), (0, 1))]
    for extents in bad_extents:
        with pytest.raises(sv.SolverError, match="finite"):
            sv.GridSpec("cartesian", extents, (8, 8, 8))
    for name in ("epsilon", "mu", "c"):
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(sv.SolverError, match="finite and positive"):
                sv.GridSpec("cartesian", unit, (8, 8, 8), **{name: value})


@pytest.mark.parametrize("chart, extents, message", [
    ("spherical", ((0.5, 1e150), (0.3, 2.8), (0, 6.28)), "closure coefficients"),
    ("spherical", ((1e100, 1e150), (0.3, 2.8), (0, 6.28)), "closure coefficients"),
    ("cylindrical", ((1e155, 1.000001e155), (0, 6.28), (0, 1)), "metric is not positive and finite"),
])
def test_geometry_that_overflows_is_a_solver_error(chart, extents, message):
    spec = sv.GridSpec(chart, extents, (4, 4, 4), bc=("pec",) * 3)
    with pytest.raises(sv.SolverError, match=message):
        sv.init_grid(spec, "zero")


def test_gridspec_built_from_lists_equals_the_tuple_built_one():
    listed = sv.GridSpec("cartesian", [[0, 1]] * 3, [4, 4, 4], bc=["pec"] * 3)
    tupled = sv.GridSpec("cartesian", ((0, 1),) * 3, (4, 4, 4), bc=("pec",) * 3)
    assert listed == tupled and hash(listed) == hash(tupled)
    for initial in ("zero", "plane_wave"):
        a = sv.step(sv.init_grid(listed, initial), listed)
        b = sv.step(sv.init_grid(tupled, initial), tupled)
        for name in ("e", "d", "b"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.t, a.nstep) == (b.t, b.nstep)


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


_WALL_SITES = [(1, 0, 2, 3), (0, 2, 3, 0), (2, 4, 0, 1)]  # tangential, on x1, x3, x2 = 0
_INNER_SITES = [(1, 3, 2, 3), (0, 0, 2, 3)]  # inside; normal to the x1 = 0 wall


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic is the point
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("site", _WALL_SITES + _INNER_SITES)
@pytest.mark.parametrize("field", ["e", "d", "b", "j"])
def test_non_finite_value_in_any_field_stops_the_step(field, site, bad):
    # e~ is zeroed on the PEC walls, so a non-finite d~ there never reaches
    # e~ or b~: the guard must look at it itself
    spec = sv.GridSpec("cartesian", ((0, 1),) * 3, (6, 6, 6), bc=("pec", "pec", "pec"))
    state = sv.run(sv.init_grid(spec, "plane_wave"), spec, 2)
    j = np.zeros((3, 6, 6, 6))
    if field == "j":
        j[site] = bad
    else:
        x = np.array(getattr(state, field))
        x[site] = bad
        state = dataclasses.replace(state, **{field: x})
    with pytest.raises(sv.InstabilityError) as exc:
        sv.run(state, spec, 5, j_func=lambda t: j)
    assert exc.value.step_index == 3


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


_SHELL = sv.GridSpec("cylindrical", ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0)),
                     (8, 8, 4), bc=("pec", "periodic", "pec"))


def test_current_source_matches_charge_update_oracle():
    spec = _SHELL
    r, phi, z = np.meshgrid(*sv._site_axes(spec, (False, False, False)), indexing="ij")
    profile = np.stack([r * np.cos(phi), np.sin(2 * phi) + z, r * z * np.cos(phi)])
    times = []

    def j_func(t):
        times.append(t)
        return (1.0 + t) * profile

    state = sv.step(sv.init_grid(spec, "zero"), spec, j_func=j_func)
    geo = _ref_geometry(spec)
    dt = geo["dt"]
    assert times == [0.5 * dt]
    want = np.stack([-4.0 * math.pi * dt * (geo["sqrtg_edge"][i] * j_func(0.5 * dt)[i])
                     for i in range(3)])
    assert np.max(np.abs(state.d - want)) <= 1e-12 * np.max(np.abs(want))


def _stepped_shell(nsteps=5):
    state = sv.run(sv.init_grid(_SHELL, "azimuthal_mode"), _SHELL, nsteps)
    assert state.nstep == nsteps
    return state


def test_replaced_field_reads_back_as_given():
    state = _stepped_shell()
    x = np.random.default_rng(1).normal(size=(3, *_SHELL.shape))
    for name in ("e", "d", "b"):
        new = dataclasses.replace(state, **{name: x})
        assert np.array_equal(getattr(new, name), x)
        for other in {"e", "d", "b"} - {name}:
            assert np.array_equal(getattr(new, other), getattr(state, other))
        assert (new.t, new.nstep) == (state.t, state.nstep)


def test_state_stepped_on_another_spec_is_converted_through_its_fields():
    state = _stepped_shell()
    other = dataclasses.replace(_SHELL, cfl=0.25)
    got = sv.step(state, other)
    want = sv.step(sv.GridField(e=state.e, d=state.d, b=state.b, t=state.t,
                                nstep=state.nstep), other)
    for name in ("e", "d", "b"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_field_reads_are_read_only_and_match_the_binary_snapshot():
    state = _stepped_shell()
    for name in ("e", "d", "b"):
        with pytest.raises(ValueError):
            getattr(state, name)[0, 0, 0, 0] = 1.0
    buf = io.BytesIO()
    sv.write_snapshot_binary(buf, state, _SHELL)
    blocks = np.frombuffer(buf.getvalue(), dtype="<f8", offset=64).reshape(12, *_SHELL.shape)
    e = state.e
    for i in range(3):  # sorted names: B_1..3, D_1..3, E_1..3, H_1..3
        assert blocks[6 + i].tobytes() == e[i].tobytes()
    given = sv.GridField(e=np.array(e), d=state.d, b=state.b, t=0.0)
    with pytest.raises(ValueError):
        given.e[0, 0, 0, 0] = 1.0


def test_max_abs_equals_the_maximum_over_the_fields_read():
    integral = _stepped_shell()
    physical = sv.GridField(e=integral.e, d=integral.d, b=integral.b, t=integral.t)
    for state in (integral, physical, sv.init_grid(_SHELL, "azimuthal_mode")):
        want = max(float(np.abs(a).max()) for a in (state.e, state.d, state.b))
        assert sv.diagnostics(state, _SHELL)["max_abs"] == want


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
    assert len(arrays) == 22
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
        assert np.max(np.abs(a - r)) <= 1e-12 * np.max(np.abs(r)), name


def _ref_write_snapshot_csv(stream, state, spec):
    comps = dict(sv._all_components(state, spec))
    names = sorted(comps)
    axes = sv._site_axes(spec, (True, True, True))
    stream.write("x1,x2,x3," + ",".join(names) + "\n")
    for idx in np.ndindex(tuple(spec.shape)):
        row = [f"{axes[a][idx[a]]:.12g}" for a in range(3)]
        row += [f"{comps[n][idx]:.12g}" for n in names]
        stream.write(",".join(row) + "\n")


def _assert_same_text(got, want):
    # names the first differing line; pytest's own diff of two long strings
    # takes minutes
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: got {g[i:i + 1]}, want {w[i:i + 1]}")


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


# the largest grids last, so that a failure shrinks towards the small ones
_SNAPSHOT_GRIDS = [
    ("cartesian", ((0.0, 1.0),) * 3, (2, 3, 7)),
    ("cylindrical", ((0.5, 1.5), (0.0, 2 * math.pi), (-1.0, 1.0)), (5, 2, 4)),
    ("spherical", ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi)), (3, 4, 5)),
    ("cartesian", ((0.0, 1.0), (-2.0, 3.0), (0.0, 0.5)), (17, 16, 16)),
    # 65 x1 planes of 64 texts, each shared by two rows, when the
    # components vary along x1 and x2 only
    ("cartesian", ((0.0, 1.0), (-2.0, 3.0), (0.0, 0.5)), (65, 64, 2)),
]
# A component constant at one of these, or varying across the cells: None
# for random values, "+-0" for zeros of both signs, a tuple of axes for
# random values along those axes only, repeated along the others.  "-0 cut"
# and "nan cut" would vary along x1 only, but their last x1 plane, 0 or nan,
# holds one -0 or one nan of another payload in its last cell, off the lines
# the axis check compares first; that one bit pattern makes them vary along
# every axis.  -nan is nan with the sign bit set, which prints as nan.
_SNAPSHOT_VALUES = st.sampled_from([None] * 3 + [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
                                   + ["+-0", "-0 cut", "nan cut", 0.0, -0.0, math.nan,
                                      -math.nan, 2.5, -1e-300])
_NAN_BITS = np.float64(math.nan).view(np.int64)


def _snapshot_state(shape, values, seed, flat=None):
    """The state of the given component values; with ``flat`` an axis, each
    input component is made to repeat its last plane along that axis."""
    rng = np.random.default_rng(seed)
    fields = np.empty((3, 3) + shape)
    for f, i in np.ndindex(3, 3):
        v = values[3 * f + i]
        x = fields[f, i]
        if v is None:
            x[...] = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
            x.flat[rng.integers(x.size, size=3)] = (-0.0, 0.0, math.nan)
        elif isinstance(v, tuple):
            sub = tuple(n if a in v else 1 for a, n in enumerate(shape))
            x[...] = rng.normal(size=sub) * 10.0 ** rng.integers(-20, 20, size=sub)
        elif v == "+-0":
            x[...] = 0.0
            x.flat[rng.integers(math.prod(shape))] = -0.0
        elif v in ("-0 cut", "nan cut"):
            x[...] = rng.normal(size=(shape[0], 1, 1))
            x[-1] = 0.0 if v == "-0 cut" else math.nan
            x.view(np.int64)[-1, -1, -1] = (np.float64(-0.0).view(np.int64) if v == "-0 cut"
                                            else _NAN_BITS + 1)
        else:
            x[...] = v
        if flat is not None:
            x[...] = x[sv._plane(flat, slice(-1, None))]
    return sv.GridField(e=fields[0], d=fields[1], b=fields[2], t=0.0)


# On the Cartesian chart every physical component is its input array, so a
# constant input is a constant column and an input varying along some axes
# varies along those; on curved ones the metric adds the axes it depends on,
# and only 0, -0 and nan stay constant.  A state flat along an axis the
# metric does not depend on takes the writer's path over fewer axes.
@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          report_multiple_bugs=False)
@given(st.integers(0, len(_SNAPSHOT_GRIDS) - 1),
       st.lists(_SNAPSHOT_VALUES, min_size=9, max_size=9), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 0, 1, 2]))
@example(3, [None, 0.0, -0.0, math.nan, 2.5, "+-0", -math.nan, 0.0, None], 1, None)
@example(3, [0.0, -0.0, math.nan, 2.5, -1e-300, -math.nan, 0.0, 0.0, -0.0], 2, None)
@example(2, [0.0] * 9, 3, None)
# the components vary along x1 and x2 only, over 65 x1 planes
@example(4, [(0,), (1,), (0, 1), 0.0, (0, 1), -0.0, math.nan, 2.5, (0,)], 4, None)
@example(3, [(2,), (2,), 0.0, (2,), -0.0, 2.5, (2,), math.nan, (2,)], 5, None)  # along x3
# one -0 and one nan payload: over all axes, then along x1 and x2 only
@example(3, [(0,), "-0 cut", 0.0, "nan cut", (0,), -0.0, (0,), 2.5, math.nan], 6, None)
@example(3, [(0,), "-0 cut", 0.0, "nan cut", (0,), -0.0, (0,), 2.5, math.nan], 6, 2)
# each component along one axis, all three axes together
@example(0, [(0,), (1,), (2,), (0,), 0.0, 2.5, (1,), (2,), -0.0], 7, None)
def test_snapshot_csv_matches_row_by_row_writer_property(grid, values, seed, flat):
    chart, extents, shape = _SNAPSHOT_GRIDS[grid]
    spec = sv.GridSpec(chart, extents, shape)
    state = _snapshot_state(shape, values, seed, flat)
    got, want = io.StringIO(), io.StringIO()
    sv.write_snapshot_csv(got, state, spec)
    _ref_write_snapshot_csv(want, state, spec)
    _assert_same_text(got.getvalue(), want.getvalue())


# ---------------------------------------------------------------------------
# Whole-array sweeps: step and diagnostics as they ran before the sweeps went
# slab by slab, kept as the bitwise oracle of the slab kernels.
# ---------------------------------------------------------------------------

def _whole_plane(axis, index):
    idx = [slice(None)] * 3
    idx[axis] = index
    return tuple(idx)


def _whole_shift(out, w, axis, offset, op, spec):
    dst, src = (slice(None, -1), slice(1, None)) if offset > 0 else (slice(1, None),
                                                                     slice(None, -1))
    op(out[_whole_plane(axis, dst)], w[_whole_plane(axis, src)],
       out=out[_whole_plane(axis, dst)])
    if spec.bc[axis] == "periodic":
        at, src = (-1, 0) if offset > 0 else (0, -1)
        op(out[_whole_plane(axis, at)], w[_whole_plane(axis, src)],
           out=out[_whole_plane(axis, at)])


def _whole_circulate(src, w, offset, spec, out):
    for i, j, k in CYCLIC:
        np.add(src[i], w[k], out=out[i])
        out[i] -= w[j]
        _whole_shift(out[i], w[k], j, offset, np.subtract, spec)
        _whole_shift(out[i], w[j], k, offset, np.add, spec)
    return out


def _whole_divergence(w, offset, spec, out):
    np.add(w[0], w[1], out=out)
    out += w[2]
    for i in range(3):
        _whole_shift(out, w[i], i, offset, np.subtract, spec)
    return out


def _whole_integral(state, geo):
    if state._scale == geo.scale:
        return state._arrays
    return tuple(np.stack([x[i] * s[i] for i in range(3)])
                 for x, s in zip((state.e, state.d, state.b), geo.scale))


def _whole_step(state, spec, j_func=None):
    geo = sv._geometry(spec)
    e, d, b = _whole_integral(state, geo)
    shape = (3, *spec.shape)
    b = _whole_circulate(b, e, 1, spec, np.empty(shape))
    h = np.stack([b[i] * geo.b_to_h[i] for i in range(3)])
    d = _whole_circulate(d, h, -1, spec, np.empty(shape))
    if j_func is not None:
        j = np.asarray(j_func(state.t + 0.5 * geo.dt))
        for i in range(3):
            d[i] -= geo.j_coef[i] * j[i]
    e = np.stack([d[i] * geo.d_to_e[i] for i in range(3)])
    for a in range(3):
        if spec.bc[a] == "pec":
            for i in set(range(3)) - {a}:
                e[(i, *_whole_plane(a, 0))] = 0.0
    _whole_circulate(b, e, 1, spec, b)
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(b))):
        raise sv.InstabilityError(state.nstep + 1)
    return sv.GridField(e, d, b, state.t + geo.dt, state.nstep + 1, _scale=geo.scale)


def _whole_dot(x, y):
    n = x.shape[-1]
    return float(np.sum(np.einsum("ij,ij->i", x.reshape(-1, n), y.reshape(-1, n))))


def _whole_max_abs(x):
    return abs(float(max(x.max(), -x.min())))


def _whole_diagnostics(state, spec, rho=None):
    geo = sv._geometry(spec)
    e, d, b = _whole_integral(state, geo)
    cdt, vol = spec.c * geo.dt, float(np.prod(spec.spacing))
    hb = sum(_whole_dot(b[i] * geo.b_to_h[i], b[i]) for i in range(3))
    acc = np.empty(spec.shape)
    div_b = _whole_max_abs(_whole_divergence(b, 1, spec, acc)) / vol
    div_d = _whole_divergence(d, -1, spec, acc)
    if rho is not None:
        div_d -= (4.0 * math.pi * vol) * np.asarray(rho) * geo.sqrtg_node
    scale = state._scale or ((1.0,) * 3,) * 3
    peaks = [_whole_max_abs(x[i]) / s[i] for x, s in zip(state._arrays, scale)
             for i in range(3)]
    return {"energy": (2.0 * _whole_dot(e, d) + hb) / (8.0 * math.pi * cdt),
            "div_D_minus_4pi_rho": _whole_max_abs(div_d) / vol,
            "div_B": div_b, "max_abs": float(np.max(peaks))}


_SHELL_EXTENTS = ((0.5, 1.5), (0.3, math.pi - 0.3), (0.0, 2 * math.pi))
_CYL_EXTENTS = ((0.5, 1.5), (0.0, 2 * math.pi), (0.0, 1.0))
# (spec, with a current); at the default slab size the spherical grid is two
# slabs of 54 and 16 rows, the cylindrical one 36 rows and one
_SLAB_CASES = {
    "spherical-pec": (sv.GridSpec("spherical", _SHELL_EXTENTS, (70, 20, 30),
                                  bc=("pec", "pec", "periodic")), True),
    "cylindrical-periodic": (sv.GridSpec("cylindrical", _CYL_EXTENTS, (37, 3, 300),
                                         bc=("periodic", "periodic", "pec")), False),
    "cartesian-pec": (sv.GridSpec("cartesian", ((0, 1), (0, 1.2), (0, 0.9)), (9, 7, 5),
                                  bc=("pec",) * 3), True),
}


@pytest.mark.parametrize("slab_cells", [None, 1, 100])
@pytest.mark.parametrize("case", sorted(_SLAB_CASES))
def test_slab_sweeps_are_bitwise_the_whole_array_sweeps(case, slab_cells, monkeypatch):
    spec, with_current = _SLAB_CASES[case]
    if slab_cells is not None:  # 1: one-row slabs; 100: slabs that do not divide N1
        monkeypatch.setattr(sv, "_SLAB_CELLS", slab_cells)
    rng = np.random.default_rng(7)
    profile = rng.normal(size=(3, *spec.shape))
    j_func = (lambda t: (1.0 + t) * profile) if with_current else None
    rho = rng.normal(size=spec.shape)
    rhos = [rho, 1.5, rho[:, :1, :1]]  # an array, a scalar, an (N1, 1, 1) array
    got = want = sv.GridField(*rng.normal(size=(3, 3, *spec.shape)), t=0.0)
    for n in range(20):
        assert sv.diagnostics(got, spec, rhos[n % 3]) == _whole_diagnostics(want, spec,
                                                                            rhos[n % 3])
        prev, before = got, [a.tobytes() for a in got._arrays]
        got, want = sv.step(got, spec, j_func), _whole_step(want, spec, j_func)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got._arrays, want._arrays))
        assert (got.t, got.nstep) == (want.t, want.nstep)
        # the input state, physical at n = 0 and integral after, is not written to
        assert [a.tobytes() for a in prev._arrays] == before
    assert sv.diagnostics(got, spec) == _whole_diagnostics(want, spec)


@pytest.mark.parametrize("field", ["e", "d", "b"])
def test_nan_in_the_last_slab_is_reported_and_stops_the_step(field, monkeypatch):
    monkeypatch.setattr(sv, "_SLAB_CELLS", 16)  # 4^3 cells: four one-row slabs
    spec = _cart_spec(4)
    state = sv.run(sv.init_grid(spec, "plane_wave"), spec, 2)
    bad = np.array(getattr(state, field))
    bad[1, 3, 2, 1] = np.nan
    state = dataclasses.replace(state, **{field: bad})
    diag = sv.diagnostics(state, spec)
    assert math.isnan(diag["max_abs"]) and math.isnan(diag["energy"])
    if field != "e":
        name = "div_B" if field == "b" else "div_D_minus_4pi_rho"
        assert math.isnan(diag[name])
    with pytest.raises(sv.InstabilityError) as exc:
        sv.step(state, spec)
    assert exc.value.step_index == 3
