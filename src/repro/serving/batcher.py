"""Dynamic-batching request queue — the classic serving loop.

Callers queue query rows and get one future per row back; a worker
thread drains the queue into micro-batches and answers each batch
with one ``index.search(request)`` call.  A batch is dispatched when
it reaches ``max_batch_size`` or when ``max_wait_ms`` has elapsed
since its first request — the latency/throughput knob: waiting longer
builds bigger batches (higher QPS through the lockstep kernel) at the
cost of queue latency on the first request of each batch.

There are three ways in, one queue behind them:

* :meth:`DynamicBatcher.submit` — one query, one future;
* :meth:`DynamicBatcher.submit_request` — a whole
  :class:`~repro.api.protocol.SearchRequest`, validated against the
  batcher and queued row by row without blocking; the caller awaits
  the row futures however it likes (the network gateway awaits them
  on its event loop) and hands the rows to
  :meth:`DynamicBatcher.assemble`;
* :meth:`DynamicBatcher.search` — ``submit_request``, wait,
  ``assemble``: the blocking typed entry point.

A thread blocked in ``search`` keeps only its own rows queued, so a
caller holding many requests in flight (the network gateway) uses
``submit_request``: its threads then never cap the batch size.

Because the engine's responses are bitwise independent of batch
composition (see ``docs/architecture.md``), dynamic batching never
changes any caller's answer — only when it arrives.  The worker issues
one search at a time, which also serializes shard fan-out for
a :class:`~repro.serving.sharded.ShardedIndex` backend.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from ..api.protocol import (
    SearchRequest,
    SearchResponse,
    SearchResponseRow,
    ensure_finite_queries,
)

_STOP = object()

#: The per-request queue timeline stamped onto every answered row
#: (``time.perf_counter`` seconds).
_STAMPS = ("batcher_enqueue_s", "batcher_dequeue_s", "batcher_complete_s")


@dataclass
class _Request:
    query: np.ndarray
    future: Future
    #: ``time.perf_counter()`` at ``submit()`` — the queue clock starts
    #: here, not when the worker picks the request up.
    enqueue_s: float = 0.0


@dataclass
class BatcherStats:
    """Counters the worker loop keeps (read them after ``close``).

    ``recent_batch_sizes`` is a bounded window for introspection; the
    lifetime mean comes from the running counters so a long-lived
    batcher's stats stay O(1) in memory.
    """

    requests: int = 0
    answered: int = 0
    batches: int = 0
    size_triggered: int = 0
    deadline_triggered: int = 0
    flush_triggered: int = 0
    #: Summed per-request queue wait (submit -> batch dequeue) and
    #: service time (dequeue -> index.search return), in seconds —
    #: divide by ``answered`` for the means.  Separating the two is
    #: what lets a latency regression be attributed to queueing vs the
    #: kernel.
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    recent_batch_sizes: Deque[int] = field(
        default_factory=lambda: deque(maxlen=256)
    )

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(self.answered / self.batches)

    @property
    def mean_queue_wait_ms(self) -> float:
        if not self.answered:
            return 0.0
        return 1e3 * self.queue_wait_s / self.answered

    @property
    def mean_service_ms(self) -> float:
        if not self.answered:
            return 0.0
        return 1e3 * self.service_s / self.answered


class DynamicBatcher:
    """Queue front end answering single-query requests in micro-batches.

    Parameters
    ----------
    index:
        Any index answering ``search(SearchRequest)`` — a plain
        scenario index or a
        :class:`~repro.serving.sharded.ShardedIndex`.
    k, beam_width, search_kwargs:
        Fixed per batcher so every micro-batch is one homogeneous
        request.  ``search_kwargs`` supplies the request's scenario
        fields that broadcast over any batch size — e.g. a *scalar*
        ``labels`` for the filtered scenario.  Per-query arrays cannot
        work here: micro-batch composition is load-dependent, so
        anything shaped ``(B, ...)`` would be matched to arbitrary
        requests.
    max_batch_size:
        Dispatch as soon as this many requests are queued.
    max_wait_ms:
        Dispatch at most this long after a batch's first request.
        ``0`` disables waiting: each dispatch takes whatever is already
        queued (pure size-capped greedy batching).
    """

    def __init__(
        self,
        index,
        k: int = 10,
        beam_width: int = 32,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        search_kwargs: Optional[dict] = None,
        start: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.index = index
        self.k = int(k)
        self.beam_width = int(beam_width)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.search_kwargs = dict(search_kwargs or {})
        self.stats = BatcherStats()
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Create and start the worker thread (caller holds the lock)."""
        self._thread = threading.Thread(
            target=self._worker, name="repro-batcher", daemon=True
        )
        self._thread.start()

    def start(self) -> None:
        """Spawn the worker loop (no-op if already running)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self._thread is not None:
                return
            self._spawn_worker()

    def submit(self, query: np.ndarray) -> Future:
        """Enqueue one query; the future resolves to its
        :class:`~repro.api.protocol.SearchResponseRow`
        (``response.row(i)``) once its micro-batch runs.

        The row's ``counters`` also carry its queue timeline as
        ``batcher_enqueue_s`` / ``batcher_dequeue_s`` /
        ``batcher_complete_s`` (``time.perf_counter`` timestamps), so
        queue wait is separable from kernel service time.

        Non-finite queries are rejected here, at the submitting
        caller, so a poison query can never fail the innocent
        neighbors that happen to share its micro-batch."""
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        ensure_finite_queries(query)
        return self._enqueue(query)

    def _enqueue(self, query: np.ndarray) -> Future:
        """Queue one already-validated ``(dim,)`` query."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self.stats.requests += 1
            self._queue.put(_Request(query, future, enqueue_s=time.perf_counter()))
        return future

    def submit_request(self, request: SearchRequest) -> List[Future]:
        """Non-blocking entry point for a whole request: validate it
        against this batcher, enqueue every query row as its own
        request and return the rows' futures, in row order.

        Each row rides whatever micro-batch forms around it; hand the
        resolved rows to :meth:`assemble` for the response.  The
        request must match the batcher's fixed ``k`` / ``beam_width``
        (micro-batches are homogeneous by construction), and
        per-request ``labels`` / ``max_beam_width`` are rejected:
        scenario extras broadcast over load-dependent batches only as
        scalars, via ``search_kwargs``.  A ``B = 0`` request queues
        nothing and gets no futures.
        """
        if request.k != self.k or request.beam_width != self.beam_width:
            raise ValueError(
                f"request (k={request.k}, beam_width={request.beam_width}) "
                f"does not match this batcher's fixed (k={self.k}, "
                f"beam_width={self.beam_width})"
            )
        if request.labels is not None or request.max_beam_width is not None:
            raise ValueError(
                "per-request labels/max_beam_width cannot ride dynamic "
                "micro-batches; configure scalar scenario extras via "
                "search_kwargs instead"
            )
        # The request's rows were validated when it was built.
        return [self._enqueue(q) for q in request.query_matrix]

    def assemble(self, rows: List[SearchResponseRow]) -> SearchResponse:
        """One response from a request's resolved rows (row order, at
        least one): bitwise identical to a direct
        ``index.search(request)``, with the same counter keys and
        dtypes plus the three ``batcher_*_s`` stamps."""
        k = self.k
        b = len(rows)
        ids = np.full((b, k), -1, dtype=np.int64)
        distances = np.full((b, k), np.inf, dtype=np.float64)
        counts = np.zeros(b, dtype=np.int64)
        for i, row in enumerate(rows):
            c = min(row.ids.shape[0], k)
            ids[i, :c] = row.ids[:c]
            distances[i, :c] = row.distances[:c]
            counts[i] = c
        return SearchResponse(
            ids=ids,
            distances=distances,
            counts=counts,
            counters={
                name: np.asarray([row.counters[name] for row in rows])
                for name in rows[0].counters
            },
        )

    def search(self, request: SearchRequest) -> SearchResponse:
        """Blocking typed entry point: :meth:`submit_request`, wait for
        every row, :meth:`assemble` — only the batching is
        load-dependent, never an answer."""
        futures = self.submit_request(request)
        if not futures:
            # Nothing queued: the index's own (state-free) B = 0
            # answer is the schema, plus empty stamps.
            response = self.index.search(self._request(request.query_matrix))
            for name in _STAMPS:
                response.counters[name] = np.empty(0, dtype=np.float64)
            return response
        return self.assemble([future.result() for future in futures])

    def _request(self, queries: np.ndarray) -> SearchRequest:
        """The homogeneous request one micro-batch runs as."""
        return SearchRequest(
            queries, self.k, self.beam_width, **self.search_kwargs
        )

    def close(self, flush: bool = True, timeout: Optional[float] = None):
        """Stop the worker.

        ``flush=True`` answers everything still queued (in batches, as
        usual) before stopping — spinning the worker up if it was never
        started; ``flush=False`` cancels the queued futures that have
        not been claimed yet.  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            if flush and not already and self._thread is None:
                # A flush must answer what is queued even if nothing
                # ever started the worker.
                self._spawn_worker()
        if not already:
            if not flush:
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if item is not _STOP:
                        item.future.cancel()
            self._queue.put(_STOP)
        if self._thread is not None:
            self._thread.join(timeout)
        return self.stats

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close(flush=exc[0] is None)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            # Greedy drain first: whatever is already queued rides along
            # for free (this is the whole batch with max_wait_ms == 0).
            while len(batch) < self.max_batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            # Then wait out the deadline for stragglers.
            if (
                not stopping
                and len(batch) < self.max_batch_size
                and self.max_wait_ms > 0
            ):
                deadline = time.monotonic() + self.max_wait_ms / 1000.0
                while len(batch) < self.max_batch_size:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stopping = True
                        break
                    batch.append(nxt)
            if len(batch) == self.max_batch_size:
                self.stats.size_triggered += 1
            else:
                # Classify flushes from the _STOP sentinel actually
                # seen, or from _closed observed under the lock — an
                # unlocked read could race close(flush=True) and
                # miscount a drained batch as deadline-triggered.
                flushing = stopping
                if not flushing:
                    with self._lock:
                        flushing = self._closed
                if flushing:
                    self.stats.flush_triggered += 1
                else:
                    self.stats.deadline_triggered += 1
            self._run_batch(batch)

    def _run_batch(self, batch: List[_Request]) -> None:
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        self.stats.batches += 1
        self.stats.recent_batch_sizes.append(len(live))
        dequeue_s = time.perf_counter()
        # Everything up to the row unpacking stays inside the guard: an
        # exception anywhere (a ragged query stack, a scenario error)
        # must resolve the futures, never kill the worker loop.
        try:
            response = self.index.search(
                self._request(np.stack([r.query for r in live]))
            )
            rows = [response.row(i) for i in range(len(live))]
        except BaseException as exc:  # propagate to every caller
            for request in live:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        complete_s = time.perf_counter()
        for request, row in zip(live, rows):
            # Per-request queue timeline, so the latency a caller sees
            # decomposes into queue wait (enqueue -> dequeue) vs
            # service (dequeue -> complete); the load harness keys on
            # these.
            row.counters.update(
                zip(_STAMPS, (request.enqueue_s, dequeue_s, complete_s))
            )
            self.stats.queue_wait_s += dequeue_s - request.enqueue_s
            self.stats.service_s += complete_s - dequeue_s
            request.future.set_result(row)
        self.stats.answered += len(live)
