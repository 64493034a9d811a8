"""Per-layer tracing by wrapping curvmax's public functions.

Each listed function is replaced by a wrapper in its own module and in
every curvmax module that imported it by name, so calls from other
modules and recursive calls are all seen.  A wrapper opens a span; a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per function; the per-call durations of
`step` and `diagnostics` and the bytes of each snapshot are kept.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# module -> functions traced in it (the layers are curvmax's modules).
LAYERS = {
    "solver": ("step", "time_step", "diagnostics", "init_grid",
               "write_snapshot_csv", "write_snapshot_binary",
               "write_diagnostics_csv"),
    "symexpr": ("parse_expr", "diff", "simplify", "substitute", "eval_expr",
                "lambdify", "equivalent"),
    "chart": ("metric_from_chart", "jacobian", "parse_chart_file",
              "convert_basis"),
    "diffops": ("grad", "div", "curl", "laplacian"),
    "maxwell3": ("assemble_residuals", "golden_equations", "golden_check"),
    "maxwell4": ("hodge_dual", "check_pair_table", "phi_from_EB"),
    "rs_momentum": ("fft_forward", "fft_inverse", "spectral_derivative_check"),
    "checks": ("run_suite",),
    "cli": ("main",),
}

TIMED_CALLS = ("solver.step", "solver.diagnostics")
WRITERS = ("solver.write_snapshot_csv", "solver.write_snapshot_binary")
NODE_COUNTED = tuple(f"diffops.{f}" for f in LAYERS["diffops"])
MB = float(1 << 20)


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for mod, funcs in LAYERS.items():
        for f in funcs:
            out.append((f"{mod}.{f}.calls", "count", "lower"))
            out.append((f"{mod}.{f}.self_s", "s", "lower"))
    out += [("solver.step.ms_p50", "ms", "lower"),
            ("solver.diagnostics.ms_p50", "ms", "lower"),
            ("solver.step.alloc_mb", "MB", "lower")]
    for w in WRITERS:
        out += [(f"{w}.bytes", "bytes", "lower"), (f"{w}.mb_per_s", "MB/s", "higher")]
    out.append(("diffops.out_nodes", "count", "lower"))
    return out


def count_nodes(obj):
    """Nodes in an expression tree, or summed over a vector's components."""
    if hasattr(obj, "components"):
        return sum(count_nodes(c) for c in obj.components)
    n, stack = 0, [obj]
    while stack:
        x = stack.pop()
        n += 1
        for attr in ("terms", "factors"):
            stack.extend(getattr(x, attr, ()))
        for attr in ("base", "arg", "num", "den"):
            child = getattr(x, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
    return n


class Tracer:
    """Aggregated spans; `mark_setup_end` splits set-up from the timed part."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.durations = {name: [] for name in TIMED_CALLS + WRITERS}
        self.bytes = {name: [] for name in WRITERS}
        self.out_nodes = 0
        self.stack = []  # child time accumulated for each open span
        self.enabled = True
        self.setup = None
        self.patched = []

    def _wrap(self, name, func):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        durations = self.durations.get(name)
        writer = name in WRITERS
        counted = name in NODE_COUNTED
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            pos = args[0].tell() if writer else 0
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return_value = func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
                if durations is not None:
                    durations.append(dur)
            extra = time.perf_counter()
            if writer:
                tracer.bytes[name].append(args[0].tell() - pos)
            if counted:
                tracer.out_nodes += count_nodes(return_value)
            if stack:  # bookkeeping is not the caller's own time
                stack[-1] += time.perf_counter() - extra
            return return_value

        return wrapper

    def install(self):
        """Wrap every listed function wherever a curvmax module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "curvmax" or n.startswith("curvmax.")) and m is not None]
        for mod, funcs in LAYERS.items():
            home = sys.modules[f"curvmax.{mod}"]
            for f in funcs:
                name = f"{mod}.{f}"
                original = getattr(home, f)
                wrapped = self._wrap(name, original)
                self.calls[name] = 0
                self.self_s[name] = 0.0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self.patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self.patched):
            setattr(m, attr, original)
        self.patched.clear()

    def mark_setup_end(self):
        self.setup = (dict(self.calls), dict(self.self_s), self.out_nodes)

    def metrics(self, units, alloc_mb):
        """Per-layer figures for one set-up plus one average unit.

        Counts and self times are the set-up totals plus the totals after
        set-up divided by the number of units.
        """
        s_calls, s_self, s_nodes = self.setup
        units = max(units, 1)
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (s_calls[name]
                                    + (self.calls[name] - s_calls[name]) / units, "count")
            out[f"{name}.self_s"] = (s_self[name]
                                     + (self.self_s[name] - s_self[name]) / units, "s")
        for name in TIMED_CALLS:
            d = self.durations[name]
            out[f"{name}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        out["solver.step.alloc_mb"] = (alloc_mb, "MB")
        for name in WRITERS:
            b, d = self.bytes[name], self.durations[name]
            out[f"{name}.bytes"] = (float(statistics.median(b)) if b else 0.0, "bytes")
            out[f"{name}.mb_per_s"] = (sum(b) / MB / sum(d) if b else 0.0, "MB/s")
        out["diffops.out_nodes"] = (s_nodes + (self.out_nodes - s_nodes) / units, "count")
        return out

    def table(self):
        """Raw totals, written to the trace file."""
        s_calls, s_self, _ = self.setup
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "setup_calls": s_calls[name], "setup_self_s": s_self[name]}
                for name in self.calls}
