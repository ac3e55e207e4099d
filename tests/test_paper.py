"""The paper-artifact table: the no-run lint, the golden pin against the
old harness, and the import budget of the serving path.  (The cheapest
row runs end to end in ``test_eval.py::TestHarness``.)"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    get_scenario,
)
from repro.datasets import PROFILES
from repro.eval import Workbench, laptop_graph
from repro.eval.paper import PAPER

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(
    REPO_ROOT, "tests", "fixtures", "paper_golden", "expected.npz"
)

KNOWN_IDS = [
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "table4", "table5", "table6", "table7", "design",
]


def test_ids_are_the_fifteen_known_ones():
    assert list(PAPER) == KNOWN_IDS
    assert all(PAPER[i].id == i for i in KNOWN_IDS)


@pytest.mark.parametrize("artifact_id", KNOWN_IDS)
def test_spec_grid_is_well_formed(artifact_id):
    """No cell is run: every spec round-trips, names valid scenario
    params, and what the runner would execute divides the dimension."""
    artifact = PAPER[artifact_id]
    skipped = set()
    for group in artifact.groups:
        executed = {variant.key for variant, _ in artifact.cells(group)}
        for variant, spec in artifact.cells(group):
            dim = PROFILES[spec.dataset.name].dim
            assert dim % spec.quantizer.num_chunks == 0
        for variant in artifact.variants:
            spec = group.spec(variant.quantizer, variant.scenario)
            assert IndexSpec.from_dict(spec.to_dict()) == spec
            get_scenario(spec.scenario.kind).validate_params(spec.scenario.params)
            if variant.key not in executed:
                skipped.add((group.heading, variant.key))
    # The K x M cells Figs. 9-10 skip stay skipped: 16 chunks do not
    # divide the 120-d gist profile; nothing else is ever skipped.
    gist_m16 = {("gist", (f"K={k}", "M=16")) for k in (8, 16, 32)}
    assert skipped == (gist_m16 if artifact_id in ("fig9", "fig10") else set())


def test_workbench_reproduces_the_old_harness():
    """Bitwise the answers `prepare` / `make_quantizer` / `make_index`
    gave at the parent commit (see the fixture's README)."""
    want = np.load(GOLDEN)
    bench = Workbench()
    cases = {
        "memory_pq": IndexSpec(
            dataset=DatasetSpec("sift", n_base=400, n_queries=8),
            # Sequential insertion, the HNSW build the fixture saw.
            graph=GraphSpec(
                "hnsw",
                params={**laptop_graph("hnsw").params, "build_batch_size": 1},
            ),
            quantizer=QuantizerSpec("pq", 8, 16),
        ),
        "hybrid_rpq": IndexSpec(
            dataset=DatasetSpec("ukbench", n_base=300, n_queries=6),
            # Sequential insertion, the Vamana build the fixture saw.
            graph=GraphSpec(
                "vamana",
                params={**laptop_graph("vamana").params, "build_batch_size": 1},
            ),
            quantizer=QuantizerSpec(
                "rpq", 4, 8,
                params={"epochs": 1, "num_triplets": 32, "num_queries": 3},
            ),
            scenario=ScenarioSpec("hybrid"),
        ),
    }
    for name, spec in cases.items():
        got = bench.build(spec).search(
            SearchRequest(bench.dataset(spec).queries, 10, 32)
        )
        np.testing.assert_array_equal(got.ids, want[f"{name}_ids"])
        np.testing.assert_array_equal(got.distances, want[f"{name}_distances"])
        np.testing.assert_array_equal(got.hops, want[f"{name}_hops"])


def test_serving_never_imports_the_experiment_or_training_code():
    """A shard worker (and `load_index` of a PQ directory) must not pay
    for scipy, the experiment layer or the RPQ trainer."""
    fixture = os.path.join(
        REPO_ROOT, "tests", "fixtures", "index_v2_int64", "memory_hnsw"
    )
    code = (
        "import sys\n"
        "import repro.serving.net.worker\n"
        "from repro.api import load_index\n"
        f"index = load_index({fixture!r})\n"
        "heavy = ('scipy', 'repro.eval', 'repro.core')\n"
        "print([m for m in heavy if m in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
