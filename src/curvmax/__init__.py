"""Covariant electromagnetics in curvilinear coordinates.

Symbolically derives metrics, Lame coefficients, and covariant differential
operators for any holonomic chart given by a Euclidean embedding; assembles
Maxwell's equations in five representations (covariant 3-vector, 4-tensor
with Hodge duals, complex field vectors, momentum space, two-component
spinors); verifies them against stored closed forms; and time-steps the
3-vector form on staggered structured grids.

``import curvmax`` runs only ``symexpr`` and ``chart``, and neither
imports numpy until the first ``lambdify`` or ``equivalent`` call.
``curvmax.golden_check`` imports ``maxwell3`` on first use (PEP 562).
Importing ``curvmax.cli`` also runs ``diffops`` and registers every other
submodule as a lazy module that runs on first use, so each command runs
only what it uses.  Import the other submodules explicitly, e.g.
``curvmax.solver`` or ``curvmax.rs_momentum``.
"""

from .chart import builtin_chart, metric_from_chart, parse_chart_file

__version__ = "0.1.0"

__all__ = ["builtin_chart", "metric_from_chart", "parse_chart_file",
           "golden_check", "__version__"]


def __getattr__(name):
    if name == "golden_check":
        from .maxwell3 import golden_check
        return golden_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
