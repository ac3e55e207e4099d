"""The paper's evaluation — every table and figure, one test per id.

Each id is a row of :data:`repro.eval.paper.PAPER` (§3 Table 2, §4
Fig. 4, §8 Figs. 5-12 and Tables 4-7, plus the reproduction's design
ablation): the runner executes the row's ``IndexSpec`` grid, the
rendered table is printed and archived under
``benchmarks/results/<id>.txt``, and the row's shape assertion — the
paper's claim at laptop scale — gates the test.  ``docs/api.md``
"Paper experiments" maps ids to paper sections, grids and metrics.

``make bench-paper`` runs all 15 (~16 min on a 2-CPU box); ``make
paper-smoke`` runs the two cheapest.
"""

from __future__ import annotations

import pytest

from repro.eval.paper import PAPER, render, run

from common import save_report


@pytest.mark.parametrize("artifact_id", list(PAPER))
def test_paper(benchmark, artifact_id):
    artifact = PAPER[artifact_id]
    result = benchmark.pedantic(
        lambda: run(artifact), rounds=1, iterations=1
    )
    save_report(artifact_id, render(result))
    artifact.check(result)
