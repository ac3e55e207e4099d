"""Built graphs pinned byte for byte (see the fixture's README).

``tests/fixtures/graph_golden/expected.json`` holds the sha256 of every
array :func:`graph_to_arrays` exports — the packed adjacency and, for
HNSW, each upper layer — plus the graph's meta (entry point, level) for
NSG, Vamana and HNSW (each sequential and batched) built on a fixed
sift sample.  A builder change that moves one edge fails here;
``test_build_parity`` only compares a builder with itself at different
batch sizes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import build_graph_from_spec
from repro.api.spec import GraphSpec
from repro.datasets import load
from repro.eval import laptop_graph
from repro.graphs.serialization import graph_to_arrays

EXPECTED = Path(__file__).parent / "fixtures" / "graph_golden" / "expected.json"
CASES = {
    "nsg": GraphSpec("nsg"),
    # Tight degree: most vertices prune, and InterInsert re-prunes.
    "nsg_r8": GraphSpec("nsg", params={"knn_k": 16, "r": 8, "search_l": 32}),
    # Cap 1: sequential insertion, the build this entry was recorded
    # from before Vamana inserted in batches.
    "vamana": GraphSpec(
        "vamana",
        seed=1,
        params={**laptop_graph("vamana", seed=1).params, "build_batch_size": 1},
    ),
    "vamana_batched": laptop_graph("vamana", seed=1),
    # Cap 1 again: the build recorded before HNSW inserted in batches.
    "hnsw": GraphSpec(
        "hnsw",
        seed=1,
        params={**laptop_graph("hnsw", seed=1).params, "build_batch_size": 1},
    ),
    "hnsw_batched": laptop_graph("hnsw", seed=1),
}


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def graph_record(name: str) -> dict:
    """Meta and per-array sha256 of case ``name``'s graph."""
    x = load("sift", n_base=400, n_queries=1, seed=3).base
    meta, arrays = graph_to_arrays(build_graph_from_spec(CASES[name], x))
    return {
        "meta": meta,
        "sha256": {key: digest(arrays[key]) for key in sorted(arrays)},
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_graph_bytes_match_the_recorded_build(name, expected):
    assert graph_record(name) == expected[name]
