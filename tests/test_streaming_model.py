"""Stateful model test of the streaming index.

Seeded random sequences of ``insert_batch`` / ``insert`` / ``delete`` /
``consolidate`` / save + load (mapped or copied, at random) run
against a dict of the live ids.  After every operation a ``search``
runs, and the index must agree with the model and keep its
invariants:

* no answer holds a dead or unknown id;
* every degree is at most ``r``;
* no live vertex keeps an edge to a consolidated tombstone;
* the kernel's ``gather`` over all vertices returns the lists the saved
  CSR (``export_arrays()``) holds;
* a loaded copy answers bitwise like its source, and its next
  ``insert_batch`` assigns the same ids and links the same lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SearchRequest, load_index, save_index
from repro.index import StreamingIndex
from repro.quantization import ProductQuantizer

from .helpers import stream_state

DIM = 12
R = 5


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((400, DIM))
    queries = rng.standard_normal((6, DIM))
    quantizer = ProductQuantizer(4, 16, seed=0).fit(rows[:200])
    return rows, queries, quantizer


def search(index, queries):
    return index.search(SearchRequest(queries, k=4, beam_width=8))


def answers_equal(a, b):
    for name in ("ids", "distances", "counts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for name in ("hops", "distance_computations"):
        np.testing.assert_array_equal(a.counters[name], b.counters[name])


class Model:
    """The index under test plus what it must hold."""

    def __init__(self, index, rows, queries):
        self.index, self.rows, self.queries = index, rows, queries
        self.live = {}  # vertex id -> row of ``rows`` it was inserted from
        self.consolidated = set()  # tombstones consolidation cleaned up
        self.next_id = 0
        self.next_row = 0

    def take_rows(self, count):
        picked = (self.next_row + np.arange(count)) % len(self.rows)
        self.next_row += count
        return picked

    def inserted(self, ids, picked):
        assert ids == list(range(self.next_id, self.next_id + len(picked)))
        self.next_id += len(picked)
        self.live.update(zip(ids, picked.tolist()))

    def check(self):
        index, state = self.index, stream_state(self.index)
        n = self.next_id
        assert index.num_vertices == n and index.num_active == len(self.live)
        assert [v for v in range(n) if not state.deleted[v]] == sorted(self.live)
        for v, row in self.live.items():
            np.testing.assert_array_equal(state.vectors[v], self.rows[row])

        response = search(index, self.queries)
        valid = np.arange(4)[None, :] < response.counts[:, None]
        assert set(response.ids[valid].tolist()) <= set(self.live)
        assert (response.ids[~valid] == -1).all()

        assert all(len(nbrs) <= R for nbrs in state.lists)
        for v in self.live:
            assert not self.consolidated & set(state.lists[v])
        if n:
            flat, lens = index._graph.gather(np.arange(n))
            gathered = np.split(flat, np.cumsum(lens)[:-1])
            assert [a.tolist() for a in gathered] == state.lists


def step(model, rng, tmp_path, number):
    index = model.index
    op = rng.choice(
        ["insert_batch", "insert", "delete", "purge", "consolidate", "reload"],
        p=[0.3, 0.15, 0.28, 0.02, 0.12, 0.13],
    )
    if op == "insert_batch":
        picked = model.take_rows(int(rng.integers(0, 9)))
        model.inserted(index.insert_batch(model.rows[picked]), picked)
    elif op == "insert":
        picked = model.take_rows(1)
        model.inserted([index.insert(model.rows[picked[0]])], picked)
    elif op == "delete" and model.live:
        victim = int(rng.choice(sorted(model.live)))
        index.delete(victim)
        del model.live[victim]
    elif op == "purge":  # every vertex dead: the graph restarts empty
        for victim in sorted(model.live):
            index.delete(victim)
        model.live.clear()
    elif op == "consolidate":
        dead = set(range(model.next_id)) - set(model.live)
        assert index.consolidate() == len(dead)
        model.consolidated = dead
    elif op == "reload":
        path = tmp_path / f"save_{number}"
        save_index(index, path)
        loaded = load_index(path, mmap=bool(rng.integers(0, 2)))
        answers_equal(search(index, model.queries), search(loaded, model.queries))
        # The copy's next write matches the source's, id for id and
        # list for list; the model then follows the copy.
        picked = model.take_rows(int(rng.integers(1, 6)))
        ids = index.insert_batch(model.rows[picked])
        assert loaded.insert_batch(model.rows[picked]) == ids
        assert stream_state(loaded).lists == stream_state(index).lists
        answers_equal(search(index, model.queries), search(loaded, model.queries))
        model.index = loaded
        model.inserted(ids, picked)


@pytest.mark.parametrize("seed", range(5))
def test_random_operation_sequences_keep_the_invariants(world, tmp_path, seed):
    rows, queries, quantizer = world
    rng = np.random.default_rng(seed)
    index = StreamingIndex(
        quantizer, dim=DIM, r=R, search_l=10, build_batch_size=3
    )
    model = Model(index, rows, queries)
    for number in range(120):
        step(model, rng, tmp_path, number)
        model.check()
    assert model.next_id > 100 and model.consolidated
