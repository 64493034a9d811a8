"""The four workloads: set-up, timed units and the checks of their outputs.

A workload is built once (its set-up counts toward `setup_s`), then runs
whole rounds of `units_per_round` timed units.  `make_input` and `check`
run outside the timed units; `unit` holds only calls into curvmax and
returns (work done, outputs to check).  `finish` writes the run's untimed
output after the last unit and returns the names of the checks it failed.
State carries over from unit to unit, so that every unit follows the same
untimed work (the previous unit's checks) and no unit starts colder.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import reference as ref
from curvmax import chart as ch
from curvmax import cli
from curvmax import diffops as do
from curvmax import solver as sv
from curvmax import symexpr as sx


class Workload:
    units_per_round = 1

    def make_input(self, k):
        return k

    def finish(self):
        return []


# ---------------------------------------------------------------------------
# Solver workloads
# ---------------------------------------------------------------------------

def _round_off(values, spacing):
    """Round-off scale of a plain difference of `values`."""
    return 1e-12 * max(1.0, float(np.max(np.abs(values))) / min(spacing))


class YeeCart64(Workload):
    """Periodic Cartesian plane wave; one unit is one step plus diagnostics."""

    def __init__(self, rng, small, outdir):
        n = 16 if small else 64
        self.units_per_round = 3 if small else 10
        # Seeded box: each axis starts in [-0.5, 0.5] and is 0.8-1.2 long.
        lo = rng.uniform(-0.5, 0.5, size=3)
        length = rng.uniform(0.8, 1.2, size=3)
        self.extents = tuple((float(a), float(a + b)) for a, b in zip(lo, length))
        self.spec = sv.GridSpec("cartesian", self.extents, (n, n, n), cfl=0.5)
        self.initial = sv.init_grid(self.spec, "plane_wave")
        self.cells = n ** 3
        self.path = os.path.join(outdir, "cart64.cvmx")
        spacing = self.spec.spacing
        self.k = 2.0 * math.pi / (self.extents[2][1] - self.extents[2][0])
        self.kh2 = (self.k * spacing[2]) ** 2
        self.energy0 = ref.cartesian_energy(self.initial.e, self.initial.d,
                                            self.initial.b, spacing)
        self.state = self.initial

    def unit(self, _):
        self.state = sv.step(self.state, self.spec)
        diag = sv.diagnostics(self.state, self.spec)
        return self.cells, (self.state, diag)

    def check(self, _, out):
        state, diag = out
        spacing = self.spec.spacing
        fails = []
        exact = ref.plane_wave_e2(self.extents, self.spec.shape, state.t)
        err = np.linalg.norm(state.e[1] - exact) / np.linalg.norm(exact)
        other = max(float(np.max(np.abs(state.e[0]))), float(np.max(np.abs(state.e[2]))))
        # Yee phase error of a resolved wave: (kh)^2 (k c t) (1 - S^2) / 24.
        if not (err <= self.kh2 * (self.k * state.t) / 8.0 + 1e-12 and other == 0.0):
            fails.append("plane wave L2 distance")
        div_b = float(np.max(np.abs(ref.div_forward(state.b, spacing, self.spec.bc))))
        if not (div_b <= 1e-12 and diag["div_B"] <= 1e-12):
            fails.append("div b")
        energy = ref.cartesian_energy(state.e, state.d, state.b, spacing)
        dt = state.t / max(state.nstep, 1)
        if not (abs(energy / self.energy0 - 1.0) <= (self.k * dt) ** 2 / 8.0
                and abs(diag["energy"] - energy) <= 1e-12 * energy):
            fails.append("energy")
        return fails

    def finish(self):
        """One binary snapshot of the final state, outside the timed units."""
        with open(self.path, "wb") as f:
            sv.write_snapshot_binary(f, self.state, self.spec)
        with open(self.path, "rb") as f:
            blob = f.read()
        try:
            comps = ref.read_binary_snapshot(blob)
        except ref.SnapshotError:
            return ["binary snapshot format"]
        if not all(np.array_equal(comps[f"E_{i + 1}"], self.state.e[i]) for i in range(3)):
            return ["binary snapshot E"]
        return []


class YeeCurvIO(Workload):
    """Spherical shell with PEC walls; snapshots after every few steps."""

    def __init__(self, rng, small, outdir):
        n = 8 if small else 16
        self.steps = 2 if small else 10
        self.units_per_round = 2 if small else 10
        r_in = float(rng.uniform(0.4, 0.6))
        margin = float(rng.uniform(0.2, 0.3))
        self.extents = ((r_in, r_in + 1.0), (margin, math.pi - margin), (0.0, 2.0 * math.pi))
        self.spec = sv.GridSpec("spherical", self.extents, (n, n, n), cfl=0.5,
                                bc=("pec", "pec", "periodic"))
        self.initial = sv.init_grid(self.spec, "azimuthal_mode")
        self.cells = n ** 3
        self.csv_path = os.path.join(outdir, "curv.csv")
        self.bin_path = os.path.join(outdir, "curv.cvmx")
        self.diag_path = os.path.join(outdir, "diagnostics.csv")
        shape = self.spec.shape
        self.sqrtg_edge = [ref.spherical_sqrtg(self.extents, shape, ref.EDGE_HALF[i])
                           for i in range(3)]
        self.sqrtg_face = [ref.spherical_sqrtg(self.extents, shape, ref.FACE_HALF[i])
                           for i in range(3)]
        self.g_face = [ref.spherical_g(self.extents, shape, ref.FACE_HALF[i], i)
                       for i in range(3)]
        self.centres = np.stack(np.meshgrid(
            *ref.site_axes(self.extents, shape, ref.CENTRE_HALF), indexing="ij"),
            axis=-1).reshape(-1, 3)
        self.gauss0 = ref.div_backward(self.initial.d, self.spec.spacing, self.spec.bc)
        self.state = self.initial
        self.rows = [(0, 0.0, sv.diagnostics(self.initial, self.spec))]

    def unit(self, _):
        for _ in range(self.steps):
            self.state = sv.step(self.state, self.spec)
            self.rows.append((self.state.nstep, self.state.t,
                              sv.diagnostics(self.state, self.spec)))
        with open(self.csv_path, "w", encoding="utf-8") as f:
            sv.write_snapshot_csv(f, self.state, self.spec)
        with open(self.bin_path, "wb") as f:
            sv.write_snapshot_binary(f, self.state, self.spec)
        return self.steps * self.cells, self.state

    def check(self, _, state):
        with open(self.bin_path, "rb") as f:
            blob = f.read()
        with open(self.csv_path, encoding="utf-8") as f:
            text = f.read()
        return check_curv_state(self, state, blob, text)

    def finish(self):
        with open(self.diag_path, "w", encoding="utf-8") as f:
            sv.write_diagnostics_csv(f, self.rows)
        with open(self.diag_path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        if len(lines) != len(self.rows) + 1 or int(lines[-1].split(",")[0]) != self.state.nstep:
            return ["diagnostics CSV rows"]
        return []


def check_curv_state(wl, state, blob, text):
    """Checks of one spherical-shell unit: invariants, binary and CSV snapshots."""
    spacing, bc = wl.spec.spacing, wl.spec.bc
    fails = []
    gauss = ref.div_backward(state.d, spacing, bc)
    if not np.max(np.abs(gauss - wl.gauss0)) <= _round_off(state.d, spacing):
        fails.append("Gauss defect of d")
    if not np.max(np.abs(ref.div_forward(state.b, spacing, bc))) <= 1e-12:
        fails.append("div b")
    try:
        comps = ref.read_binary_snapshot(blob)
    except ref.SnapshotError:
        return fails + ["binary snapshot format"]
    if tuple(comps["E_1"].shape) != tuple(wl.spec.shape):
        return fails + ["binary snapshot shape"]
    ok = True
    for i in range(3):
        n = i + 1
        h = wl.g_face[i] * state.b[i] / wl.sqrtg_face[i]
        ok &= np.array_equal(comps[f"E_{n}"], state.e[i])
        ok &= ref.agree(comps[f"D_{n}"], state.d[i] / wl.sqrtg_edge[i], 1e-12)
        ok &= ref.agree(comps[f"B_{n}"], state.b[i] / wl.sqrtg_face[i], 1e-12)
        ok &= ref.agree(comps[f"H_{n}"], h, 1e-12)
    if not ok:
        fails.append("binary snapshot values")
    try:
        rows = ref.read_csv_snapshot(text)
    except (ref.SnapshotError, ValueError):
        return fails + ["CSV snapshot format"]
    cells = int(np.prod(wl.spec.shape))
    if rows.shape != (cells, 15):
        return fails + ["CSV snapshot rows"]
    want = np.column_stack([wl.centres] + [comps[n].reshape(-1) for n in ref.COMPONENTS])
    # 12 significant digits: relative 5e-12 of each value, with slack.
    if not np.all(np.abs(rows - want) <= 1e-11 * np.abs(want)):
        fails.append("CSV agrees with binary")
    return fails


# ---------------------------------------------------------------------------
# Symbolic workloads
# ---------------------------------------------------------------------------

OPERATORS = ("grad", "div", "curl", "laplacian")


class DerivePullback(Workload):
    """One random Cartesian field pulled back onto one chart, one operator."""

    units_per_round = 16  # every chart with every operator

    def __init__(self, rng, small, _outdir):
        self.rng = rng
        self.npoints = 2 if small else 8
        charts = [ch.builtin_chart(n) for n in ("cartesian", "cylindrical", "spherical")]
        charts += ch.parse_chart_file(ref.PARABOLIC_CHART_FILE)
        self.charts = charts
        self.metrics = [ch.metric_from_chart(c) for c in charts]
        self.jacobians = [ch.jacobian(c).matrix for c in charts]
        self.basis = [sx.simplify(sx.parse_expr(t)) for t in ref.BASIS_TEXT]

    def make_input(self, k):
        ci, op = k % 4, OPERATORS[(k // 4) % 4]
        if op in ("grad", "laplacian"):
            coeffs = ref.random_coefficients(self.rng, len(self.basis))
        else:
            coeffs = [ref.random_coefficients(self.rng, len(self.basis)) for _ in range(3)]
        lo_hi = ref.CHART_DOMAINS[self.charts[ci].name]
        points = [tuple(float(self.rng.uniform(lo, hi)) for lo, hi in lo_hi)
                  for _ in range(self.npoints)]
        return ci, op, coeffs, points

    def _field(self, coeffs, pullback):
        cart = sx.add(*(sx.mul(sx.const(a), b) for a, b in zip(coeffs, self.basis)))
        return sx.substitute(cart, pullback)

    def unit(self, inputs):
        ci, op, coeffs, points = inputs
        chart, m, jac = self.charts[ci], self.metrics[ci], self.jacobians[ci]
        pullback = dict(zip(("x", "y", "z"), chart.embedding))
        if op in ("grad", "laplacian"):
            f = self._field(coeffs, pullback)
            out = do.grad(f, chart) if op == "grad" else do.laplacian(f, m)
        else:
            comps = [self._field(c, pullback) for c in coeffs]
            w = tuple(sx.simplify(sx.add(*(jac[a][i] * comps[a] for a in range(3))))
                      for i in range(3))
            if op == "curl":
                out = do.curl(ch.ComponentVector(w, "covariant", "holonomic"), m)
            else:
                v = tuple(sx.simplify(sx.add(*(m.g_hi[i][j] * w[j] for j in range(3))))
                          for i in range(3))
                out = do.div(ch.ComponentVector(v, "contravariant", "holonomic"), m)
        exprs = [out] if isinstance(out, sx.Expr) else list(out.components)
        values = [[sx.eval_expr(e, dict(zip(chart.coords, p))) for e in exprs]
                  for p in points]
        return 1, values

    def check(self, inputs, values):
        ci, op, coeffs, points = inputs
        name = self.charts[ci].name
        want = [ref.pulled_back_operator(name, op, coeffs, p) for p in points]
        return [] if ref.agree(values, want, 1e-9) else [f"{op} on {name}"]


class CheckAll(Workload):
    """`curvmax check --suite all --seed s` through cli.main, in-process."""

    def __init__(self, rng, small, _outdir):
        self.units_per_round = 1 if small else 10
        self.next_seed = int(rng.integers(0, 2 ** 31 - 1000))

    def make_input(self, _):
        self.next_seed += 1
        return self.next_seed

    def unit(self, seed):
        out, code = io.StringIO(), 0
        with contextlib.redirect_stdout(out):
            try:
                cli.main(["check", "--suite", "all", "--seed", str(seed)])
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        return max(len(text.splitlines()) - 1, 0), (code, text)

    def check(self, _, out):
        return check_suite_output(*out)


GOLDEN = tuple(f"golden {c} {n}" for c in ("cylindrical", "spherical")
               for n in ("faraday_1", "faraday_2", "faraday_3", "ampere_1",
                         "ampere_2", "ampere_3", "gauss_D", "gauss_B"))


def check_suite_output(code, text):
    """Exit code 0, a PASS line per check, the eight equations on both
    golden charts, and a final count that matches the lines."""
    lines = text.splitlines()
    fails = []
    if code not in (0, None):
        fails.append("exit code")
    results = lines[:-1]
    if not results or not all(line.startswith("PASS ") for line in results):
        fails.append("PASS lines")
    names = {line[5:].split(" (")[0] for line in results}
    if not set(GOLDEN) <= names:
        fails.append("golden equations listed")
    n = len(results)
    if not lines or lines[-1] != f"{n}/{n} checks passed":
        fails.append("count line")
    return fails


WORKLOADS = {
    "yee_cart64": YeeCart64,
    "yee_curv_io": YeeCurvIO,
    "derive_pullback": DerivePullback,
    "check_all": CheckAll,
}
