"""Command-line front end.

Subcommands: ``derive`` prints symbolic operator tables and equation sets
for a chart, ``check`` runs the verification suites, ``simulate`` advances
the staggered-grid solver and writes snapshots plus diagnostics, and
``transform`` converts field-component CSV rows between representations.

Exit codes: 0 success, 1 check failure or runtime failure (instability),
2 usage error.  Every error path prints a single line starting ``error:``.
"""

from __future__ import annotations

import math
import os
import re
import sys

import click
import numpy as np

from . import maxwell4 as m4
from . import solver as sv
from .chart import (BUILTIN_CHARTS, ChartError, ComponentVector, builtin_metric,
                    lame_coefficients, metric_from_chart, parse_chart_file)
from .checks import SUITES, run_suite
from .diffops import DiffOpsError, curl, div, grad, laplacian
from .maxwell3 import assemble_residuals, symbolic_fields, symbolic_sources
from .symexpr import FieldAtom, SymExprError, free_vars, print_expr, to_latex

LATEX_PREAMBLE = "\\documentclass{article}\n\\usepackage{amsmath}\n\\begin{document}\n"
LATEX_POSTAMBLE = "\\end{document}\n"


class CliError(click.ClickException):
    """Failure with a controlled exit code and an ``error:`` line."""

    def __init__(self, message, exit_code=2):
        super().__init__(message)
        self.exit_code = exit_code


def _load_metric(chart, chart_file):
    if (chart is None) == (chart_file is None):
        raise CliError("exactly one of --chart or --chart-file is required")
    if chart is not None:
        try:
            return builtin_metric(chart)
        except ChartError:
            raise CliError(f"unknown built-in chart {chart!r}; "
                           f"known: {', '.join(BUILTIN_CHARTS)}")
    try:
        with open(chart_file, encoding="utf-8") as f:
            charts = parse_chart_file(f.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read chart file: {exc}")
    except (ChartError, SymExprError) as exc:
        raise CliError(f"invalid chart file: {exc}")
    if len(charts) != 1:
        raise CliError(f"chart file must define exactly one chart, found {len(charts)}")
    try:
        return metric_from_chart(charts[0])
    except (ChartError, SymExprError) as exc:
        raise CliError(f"cannot derive metric: {exc}")


def _metric_is_constant(m):
    return all(not free_vars(x) for row in m.g_lo for x in row)


@click.group()
def cli():
    """Symbolic and numeric electromagnetics in curvilinear coordinates."""


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def _emit(lines, fmt):
    if fmt == "latex":
        click.echo(LATEX_PREAMBLE, nl=False)
        for label, body in lines:
            # Both label and body are math-mode material; one display per line.
            click.echo(f"\\[ {label} : \\quad {body} \\]")
        click.echo(LATEX_POSTAMBLE, nl=False)
    else:
        for label, body in lines:
            click.echo(f"{label}: {body}")


def _fmt(e, fmt):
    return to_latex(e) if fmt == "latex" else print_expr(e)


def _derive_operators(chart, m, fmt):
    coords = chart.coords
    f = FieldAtom("f", coords)
    v = ComponentVector(tuple(FieldAtom(f"u_{i+1}", coords) for i in range(3)),
                        "contravariant", "holonomic")
    w = ComponentVector(tuple(FieldAtom(f"w_{i+1}", coords) for i in range(3)),
                        "covariant", "holonomic")
    lines = []
    g = grad(f, chart)
    for i in range(3):
        lines.append((f"(grad f)_{i+1}", _fmt(g[i], fmt)))
    lines.append(("div u", _fmt(div(v, m), fmt)))
    c = curl(w, m)
    for i in range(3):
        lines.append((f"(curl w)^{i+1}", _fmt(c[i], fmt)))
    lines.append(("laplacian f", _fmt(laplacian(f, m), fmt)))
    return lines


def _residuals(chart, m):
    try:
        return assemble_residuals(symbolic_fields(chart), symbolic_sources(chart), m)
    except DiffOpsError as exc:  # a coordinate named like a field, t, c or pi
        raise CliError(str(exc))


def _derive_3vector(chart, m, fmt):
    res = _residuals(chart, m)
    return [(name, _fmt(e, fmt) + " = 0")
            for name, e in res.named().items()]


def _derive_complex(chart, m, fmt):
    res = _residuals(chart, m)
    i_sym = "i\\," if fmt == "latex" else "i "
    lines = [("gauss (div of D + iB)",
              f"({_fmt(res.gauss_D, fmt)}) + {i_sym}({_fmt(res.gauss_B, fmt)}) = 0")]
    for i in range(3):
        lines.append((f"curl_{i+1} (faraday + i ampere)",
                      f"({_fmt(res.faraday[i], fmt)}) + "
                      f"{i_sym}({_fmt(res.ampere[i], fmt)}) = 0"))
    return lines


def _require_constant_metric(chart, m, form):
    if not _metric_is_constant(m):
        raise CliError(
            f"--form {form} is unsupported for chart {chart.name!r}: its metric "
            "depends on the coordinates; constant-metric charts only")


def _derive_4tensor(chart, m, fmt):
    _require_constant_metric(chart, m, "4tensor")
    render = m4.matrix_latex if fmt == "latex" else m4.matrix_text
    from .symexpr import var
    E = tuple(var(f"E_{i+1}") for i in range(3))
    B = tuple(var(f"B_{i+1}") for i in range(3))
    D = tuple(var(f"D_{i+1}") for i in range(3))
    H = tuple(var(f"H_{i+1}") for i in range(3))
    try:
        g4 = m4.Metric4.from_spatial(m)
    except m4.Maxwell4Error as exc:
        raise CliError(f"--form 4tensor is unsupported for chart {chart.name!r}: {exc}")
    f_lo = m4.assemble_F_lower(E, B)
    g_lo = m4.assemble_G_lower(D, H)
    sep = "\n" if fmt != "latex" else ""
    return [("F_{ab} (pair E_i, B^i)", sep + render(f_lo)),
            ("G_{ab} (pair D_i, H^i)", sep + render(g_lo)),
            ("*F^{ab}", sep + render(m4.hodge_dual(f_lo, g4))),
            ("*G^{ab}", sep + render(m4.hodge_dual(g_lo, g4)))]


def _derive_spinor(chart, m, fmt):
    _require_constant_metric(chart, m, "spinor")
    if fmt == "latex":
        return [
            ("\\varphi_{00}", "\\tfrac{1}{2}(F_1 - i F_2),\\quad F_k = E_k - i B^k"),
            ("\\varphi_{01} = \\varphi_{10}", "-\\tfrac{1}{2} F_3"),
            ("\\varphi_{11}", "-\\tfrac{1}{2}(F_1 + i F_2)"),
            ("\\gamma_{AB}", "\\text{same packing with } F_k \\to D_k - i H^k"),
        ]
    return [
        ("phi_00", "(F_1 - i F_2)/2  with F_k = E_k - i B^k"),
        ("phi_01 = phi_10", "-F_3/2"),
        ("phi_11", "-(F_1 + i F_2)/2"),
        ("gamma_AB", "same packing with F_k -> D_k - i H^k"),
    ]


_FORMS = {
    "operators": _derive_operators,
    "3vector": _derive_3vector,
    "complex": _derive_complex,
    "4tensor": _derive_4tensor,
    "spinor": _derive_spinor,
}


@cli.command()
@click.option("--chart", default=None, help="Built-in chart name.")
@click.option("--chart-file", default=None, type=click.Path(),
              help="Chart definition file.")
@click.option("--form", default="operators",
              type=click.Choice(sorted(_FORMS)), show_default=True)
@click.option("--format", "fmt", default="text",
              type=click.Choice(("text", "latex")), show_default=True)
def derive(chart, chart_file, form, fmt):
    """Print symbolic operators or equation sets for a chart."""
    m = _load_metric(chart, chart_file)
    lines = _FORMS[form](m.chart, m, fmt)
    if fmt != "latex":
        click.echo(f"# chart {m.chart.name}, form {form}")
    _emit(lines, fmt)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--suite", default="all",
              type=click.Choice(tuple(SUITES)), show_default=True)
@click.option("--seed", default=None, type=click.IntRange(min=0), envvar="CURVMAX_SEED",
              help="RNG seed (falls back to CURVMAX_SEED).")
def check(suite, seed):
    """Run a verification suite; exit 1 on any failure."""
    try:
        results = run_suite(suite, seed=seed)
    except DiffOpsError as exc:  # a missing, unreadable or unparseable golden file
        raise CliError(str(exc))
    for r in results:
        click.echo(r.line())
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_grid(text):
    mt = re.fullmatch(r"(\d+)x(\d+)x(\d+)", text)
    if not mt:
        raise CliError(f"--grid must look like N1xN2xN3, got {text!r}")
    return tuple(int(g) for g in mt.groups())


def _parse_extents(entries):
    extents = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    for entry in entries:
        parts = entry.split(":")
        try:
            axis, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
            if len(parts) != 3 or axis not in (1, 2, 3) or not lo < hi:
                raise ValueError
        except (ValueError, IndexError):
            raise CliError(f"--extent must be axis:min:max with axis in 1..3 "
                           f"and min < max, got {entry!r}")
        extents[axis - 1] = (lo, hi)
    return tuple(extents)


def _parse_bc(text):
    kinds = tuple(text.split(","))
    if len(kinds) == 1:
        kinds *= 3
    if len(kinds) != 3 or any(k not in ("periodic", "pec") for k in kinds):
        raise CliError(f"--bc must be periodic or pec, or three of them separated "
                       f"by commas, got {text!r}")
    return kinds


@cli.command()
@click.option("--chart", default="cartesian", show_default=True)
@click.option("--grid", required=True, help="Grid shape N1xN2xN3.")
@click.option("--extent", multiple=True,
              help="Axis extent as axis:min:max; repeatable.")
@click.option("--cfl", default=0.5, show_default=True)
@click.option("--steps", required=True, type=int)
@click.option("--dump-every", default=0, show_default=True,
              help="Snapshot interval in steps (0 = final snapshot only).")
@click.option("--out", required=True, type=click.Path(),
              help="Output directory for snapshots and diagnostics.")
@click.option("--initial", default="plane_wave", show_default=True,
              type=click.Choice(tuple(sv.INITIAL_CONDITIONS)))
@click.option("--bc", default="periodic", show_default=True,
              help="periodic or pec on every axis, or one per axis as pec,periodic,pec.")
@click.option("--snapshot-format", default="csv", show_default=True,
              type=click.Choice(("csv", "binary")))
def simulate(chart, grid, extent, cfl, steps, dump_every, out, initial, bc,
             snapshot_format):
    """Time-step the covariant three-vector equations on a staggered grid."""
    if steps < 1:
        raise CliError("--steps must be positive")
    if dump_every < 0:
        raise CliError("--dump-every must be non-negative")
    shape = _parse_grid(grid)
    extents = _parse_extents(extent)
    bcs = _parse_bc(bc)
    try:
        spec = sv.GridSpec(chart, extents, shape, cfl=cfl, bc=bcs)
        state = sv.init_grid(spec, initial)
    except (sv.SolverError, ChartError, SymExprError) as exc:
        raise CliError(str(exc))
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path that cannot be made
        raise CliError(f"cannot create --out directory: {exc}")

    def snap(st):
        ext = "csv" if snapshot_format == "csv" else "cvmx"
        path = os.path.join(out, f"snapshot_{st.nstep:06d}.{ext}")
        if snapshot_format == "csv":
            with open(path, "w", encoding="utf-8") as f:
                sv.write_snapshot_csv(f, st, spec)
        else:
            with open(path, "wb") as f:
                sv.write_snapshot_binary(f, st, spec)

    rows = [(state.nstep, state.t, sv.diagnostics(state, spec))]

    def after_step(st):
        rows.append((st.nstep, st.t, sv.diagnostics(st, spec)))
        if dump_every and st.nstep % dump_every == 0:
            snap(st)

    try:
        state = sv.run(state, spec, steps, callback=after_step)
        if not dump_every or state.nstep % dump_every:
            snap(state)
        with open(os.path.join(out, "diagnostics.csv"), "w", encoding="utf-8") as f:
            sv.write_diagnostics_csv(f, rows)
    except sv.InstabilityError as exc:
        raise CliError(str(exc), exit_code=1)
    except OSError as exc:  # a snapshot or diagnostics.csv could not be written
        raise CliError(f"cannot write output: {exc}", exit_code=1)
    click.echo(f"completed {steps} steps, t = {state.t:.12g}; output in {out}")


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

_FIELD_NAMES = ("E_1", "E_2", "E_3", "B_1", "B_2", "B_3",
                "D_1", "D_2", "D_3", "H_1", "H_2", "H_3")


def _row_floats(cells, n, lineno):
    if len(cells) != n:
        raise CliError(f"line {lineno}: expected {n} comma-separated values, "
                       f"got {len(cells)}")
    try:
        vals = [float(x) for x in cells]
    except ValueError as exc:
        raise CliError(f"line {lineno}: {exc}")
    if not all(map(math.isfinite, vals)):
        raise CliError(f"line {lineno}: values must be finite")
    return vals


def _t_pairs4(vals, _):
    f = m4.assemble_F_lower(vals[0:3], vals[3:6])
    g = m4.assemble_G_lower(vals[6:9], vals[9:12])
    return [x for t in (f, g) for pair in m4.read_pair(t) for x in pair]


def _t_complex(vals, _):
    out = []
    for k in range(3):
        out += [vals[k], vals[3 + k]]        # F_k = E_k + i B^k
    for k in range(3):
        out += [vals[6 + k], vals[9 + k]]    # G_k = D_k + i H^k
    return out


def _t_spinor(vals, _):
    phi = m4.phi_from_EB(vals[0:3], vals[3:6]).phi
    gam = m4.gamma_from_DH(vals[6:9], vals[9:12]).phi
    out = []
    for mt in (phi, gam):
        for z in (mt[0, 0], mt[0, 1], mt[1, 1]):
            out += [z.real, z.imag]
    return out


def _t_nonholonomic(vals, lame_at):
    point, fields = vals[0:3], vals[3:15]
    h = lame_at(point)
    out = list(point)
    for k, name in enumerate(_FIELD_NAMES):
        scale = 1.0 / h[k % 3] if name[0] in "EH" else h[k % 3]
        out.append(fields[k] * scale)
    return out


_TARGETS = {
    "pairs4": (_t_pairs4, 12,
               ["F_01", "F_02", "F_03", "F_23", "F_31", "F_12",
                "G_01", "G_02", "G_03", "G_23", "G_31", "G_12"]),
    "complex": (_t_complex, 12,
                [f"{p}{k}_{s}" for p in "FG" for k in (1, 2, 3)
                 for s in ("re", "im")]),
    "spinor": (_t_spinor, 12,
               [f"{p}_{ab}_{s}" for p in ("phi", "gamma")
                for ab in ("00", "01", "11") for s in ("re", "im")]),
    "nonholonomic": (_t_nonholonomic, 15,
                     ["x1", "x2", "x3"] + [f"{n}p" for n in _FIELD_NAMES]),
}


@cli.command()
@click.option("--target", required=True, type=click.Choice(sorted(_TARGETS)))
@click.option("--chart", default="cartesian", show_default=True,
              help="Chart for the nonholonomic target (row point in its coordinates).")
@click.argument("input", type=click.File("rb"), default="-")
@click.option("--out", type=click.File("w"), default="-")
def transform(target, chart, input, out):
    """Convert CSV rows of (E, B, D, H) components between representations.

    Input columns: E_1..E_3, B_1..B_3, D_1..D_3, H_1..H_3, read as covariant
    E and H and contravariant B and D; no index is raised or lowered.
    The nonholonomic target expects three leading coordinate columns.
    """
    func, ncols, header = _TARGETS[target]
    lame_at = None
    if target == "nonholonomic":
        try:
            m = builtin_metric(chart)
        except (ChartError, SymExprError) as exc:
            raise CliError(str(exc))
        if m.lame is None:
            raise CliError(f"chart {chart!r} is not orthogonal; the "
                           "nonholonomic conversion needs Lame coefficients")
        from .symexpr import lambdify
        hs = [lambdify(hk) for hk in lame_coefficients(m)]

        def lame_at(point):
            binding = dict(zip(m.chart.coords, point))
            h = [hk(binding) for hk in hs]
            if not all(x > 0 for x in h):
                raise ValueError("a Lame coefficient is not positive at this point")
            return h

    rows = []  # every row is converted before any is written: a bad row leaves no output
    header_candidate = True  # the first line that is neither blank nor a comment
    # bytes.splitlines breaks at \n, \r\n and \r only, as text mode reads lines
    for lineno, raw in enumerate(input.read().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise CliError(f"line {lineno}: {exc}")
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header_candidate:
            header_candidate = False
            if any(_not_number(c) for c in cells):
                continue  # header row
        vals = _row_floats(cells, ncols, lineno)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                converted = func(vals, lame_at)
        except (SymExprError, ValueError) as exc:
            raise CliError(f"line {lineno}: {exc}")
        if not all(map(math.isfinite, converted)):
            raise CliError(f"line {lineno}: the converted values overflow")
        rows.append(",".join(f"{v:.12g}" for v in converted) + "\n")
    if not rows:
        raise CliError("no data rows in input")
    out.write(",".join(header) + "\n")
    out.writelines(rows)


def _not_number(text):
    try:
        float(text)
        return False
    except ValueError:
        return True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(2)
    except CliError as exc:
        click.echo(f"error: {exc.message}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except MemoryError as exc:  # a grid that fits the address space but not the machine
        click.echo(f"error: out of memory: {str(exc) or 'allocation failed'}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
