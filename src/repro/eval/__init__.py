"""Experiments: a spec-driven workbench, sweeps, and the paper table.

* :class:`Workbench`, :func:`laptop_graph` — resolve an
  :class:`~repro.api.IndexSpec` into memoised dataset / ground truth /
  graph / quantizer / index (:mod:`repro.eval.workbench`).
* :func:`sweep_beam`, :class:`OperatingPoint`, :func:`metric_at_recall`,
  :func:`max_recall` — curve machinery shared by all figures.
* :mod:`repro.eval.paper` — the paper's tables and figures as one
  declarative table, its runner and renderer.
* :mod:`repro.eval.harness` — serving measurement (batched engine,
  dynamic batching, lockstep construction).
* :func:`format_table`, :func:`format_grid` — output formatting.
"""

from .sweep import (
    DEFAULT_BEAMS,
    OperatingPoint,
    max_recall,
    metric_at_recall,
    run_queries_batched,
    sweep_beam,
)
from .tables import format_grid, format_table
from .workbench import Workbench, laptop_graph

__all__ = [
    "Workbench",
    "laptop_graph",
    "sweep_beam",
    "run_queries_batched",
    "OperatingPoint",
    "metric_at_recall",
    "max_recall",
    "DEFAULT_BEAMS",
    "format_table",
    "format_grid",
]
