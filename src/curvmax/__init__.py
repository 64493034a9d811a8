"""Covariant electromagnetics in curvilinear coordinates.

Symbolically derives metrics, Lame coefficients, and covariant differential
operators for any holonomic chart given by a Euclidean embedding; assembles
Maxwell's equations in five representations (covariant 3-vector, 4-tensor
with Hodge duals, complex field vectors, momentum space, two-component
spinors); verifies them against stored closed forms; and time-steps the
3-vector form on staggered structured grids.

``import curvmax`` loads only ``symexpr``, ``chart``, ``diffops`` and
``maxwell3``; the CLI imports the rest.  Import the other submodules
explicitly, e.g. ``curvmax.solver`` or ``curvmax.rs_momentum``.
"""

from .chart import builtin_chart, metric_from_chart, parse_chart_file
from .maxwell3 import golden_check

__version__ = "0.1.0"

__all__ = ["builtin_chart", "metric_from_chart", "parse_chart_file",
           "golden_check", "__version__"]
