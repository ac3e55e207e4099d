"""Fitted models pinned against recorded fits (see the fixture's README).

``tests/fixtures/fit_golden/expected.npz`` holds what ``fit_arrays``
returns for seeds 0 and 1.  Two generations of entries live in it:

* ``pq_*``, ``lnc_*`` and ``catalyst_*`` date from before the fit
  speed-ups (lockstep k-means++, one soft reconstruction per RPQ step)
  and must still come back bit for bit: those speed-ups and OPQ's
  warm-started alternation leave these three fits untouched.
* ``opq_*`` and ``rpq_*`` were re-recorded when OPQ's alternation
  stopped re-seeding k-means++: each alternation (and the final
  codebook) now continues Lloyd from the previous alternation's
  codewords, which changes OPQ's model and, through RPQ's warm-start
  rotation, RPQ's.  OPQ is pinned bit for bit.  RPQ keeps the 1e-12
  tolerance (and identical codes) it had while its entries came from a
  trainer that summed gradients in another order.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import build_graph_from_spec, build_quantizer_from_spec
from repro.api.spec import GraphSpec, QuantizerSpec
from repro.datasets import load

EXPECTED = Path(__file__).parent / "fixtures" / "fit_golden" / "expected.npz"
SEEDS = (0, 1)
RPQ_PARAMS = {"epochs": 1, "num_triplets": 48, "num_queries": 4}


def fit_arrays(seed: int) -> dict:
    """Every quantizer kind fitted on a small sift sample, as arrays."""
    x = load("sift", n_base=300, n_queries=2, seed=seed).base[:, :32]
    out = {}
    for kind in ("pq", "opq", "lnc", "catalyst"):
        q = build_quantizer_from_spec(QuantizerSpec(kind, 8, 16, seed=seed), x)
        out[f"{kind}_codewords_{seed}"] = q.codebook.codewords
        if kind == "opq":
            out[f"opq_rotation_{seed}"] = q.rotation
        if kind == "lnc":
            out[f"lnc_residual_{seed}"] = q.residual_books[0].codewords
    graph = build_graph_from_spec(GraphSpec("nsg", seed=seed), x)
    rpq = build_quantizer_from_spec(
        QuantizerSpec("rpq", 8, 16, seed=seed, params=RPQ_PARAMS),
        x,
        x=x,
        graph=graph,
    )
    out[f"rpq_rotation_{seed}"] = rpq.rotation
    out[f"rpq_codewords_{seed}"] = rpq.codebook.codewords
    out[f"rpq_codes_{seed}"] = rpq.encode(x)
    return out


@pytest.fixture(scope="module")
def expected():
    with np.load(EXPECTED) as data:
        return dict(data)


@pytest.mark.parametrize("seed", SEEDS)
def test_fits_match_the_recorded_models(seed, expected):
    got = fit_arrays(seed)
    assert sorted(got) == sorted(k for k in expected if k.endswith(f"_{seed}"))
    for name, value in got.items():
        want = expected[name]
        assert value.dtype == want.dtype and value.shape == want.shape, name
        if name.startswith("rpq_") and "codes" not in name:
            assert np.max(np.abs(value - want)) <= 1e-12, name
        else:
            assert np.array_equal(value, want), name


def test_one_expm_and_one_soft_reconstruct_per_step(monkeypatch):
    """Structural guard: the per-record / per-loss reconstruction loop
    (14 calls and 16 ``expm`` per step at the registry's quick config)
    must not come back."""
    from repro.autodiff import Adam
    from repro.core import DifferentiableQuantizer, RPQTrainingConfig, train_rpq
    from repro.core import rotation as rotation_module

    calls = {"expm": 0, "soft_reconstruct": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        rotation_module, "expm", counted("expm", rotation_module.expm)
    )
    monkeypatch.setattr(
        DifferentiableQuantizer,
        "soft_reconstruct",
        counted("soft_reconstruct", DifferentiableQuantizer.soft_reconstruct),
    )
    monkeypatch.setattr(Adam, "step", counted("step", Adam.step))

    x = load("sift", n_base=200, n_queries=2, seed=0).base[:, :16]
    graph = build_graph_from_spec(GraphSpec("nsg"), x)
    quantizer = DifferentiableQuantizer(16, 4, 16, seed=0)
    quantizer.warm_start(x)
    config = RPQTrainingConfig(
        epochs=3,
        batch_triplets=16,
        batch_records=6,
        num_triplets=48,
        num_queries=4,
        records_per_query=4,
        beam_width=8,
        refresh_routing_every=2,
    )
    train_rpq(quantizer, graph, x, config)
    assert calls["step"] >= 3
    assert calls["expm"] == calls["soft_reconstruct"] == calls["step"]


@pytest.mark.parametrize("kind, seedings", [("pq", 1), ("opq", 1), ("rpq", 2)])
def test_one_kmeans_seeding_per_fit_and_no_second_encode(
    monkeypatch, kind, seedings
):
    """Structural guard: OPQ seeds k-means++ in its first alternation
    only (it read 6 per fit when every alternation and the final
    codebook re-seeded), RPQ adds its own warm start's one, and the
    Procrustes steps take their codes from Lloyd's assignments instead
    of encoding the rotated rows again."""
    from repro.quantization.codebook import Codebook
    from repro.quantization.opq import OptimizedProductQuantizer

    kmeans_module = importlib.import_module("repro.quantization.kmeans")
    calls = {"_lockstep_seeds": 0, "kmeans_plus_plus_init": 0, "encode": 0}
    depth = {"alternate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def alternate(self, *args, **kwargs):
        depth["alternate"] += 1
        try:
            return original_alternate(self, *args, **kwargs)
        finally:
            depth["alternate"] -= 1

    def encode(self, *args, **kwargs):
        calls["encode"] += depth["alternate"] > 0
        return original_encode(self, *args, **kwargs)

    for name in ("_lockstep_seeds", "kmeans_plus_plus_init"):
        monkeypatch.setattr(
            kmeans_module, name, counted(name, getattr(kmeans_module, name))
        )
    original_alternate = OptimizedProductQuantizer._alternate
    original_encode = Codebook.encode
    monkeypatch.setattr(OptimizedProductQuantizer, "_alternate", alternate)
    monkeypatch.setattr(Codebook, "encode", encode)

    x = load("sift", n_base=300, n_queries=2, seed=0).base[:, :32]
    graph = build_graph_from_spec(GraphSpec("nsg"), x) if kind == "rpq" else None
    params = RPQ_PARAMS if kind == "rpq" else {}
    build_quantizer_from_spec(
        QuantizerSpec(kind, 8, 16, params=params), x, x=x, graph=graph
    )
    # Every seeding ran all chunks in lockstep (none fell back to the
    # chunk-by-chunk path), so lockstep passes count seedings.
    assert calls["kmeans_plus_plus_init"] == 0
    assert calls["_lockstep_seeds"] == seedings
    assert calls["encode"] == 0
