"""The open-loop runner: offer requests on a schedule, measure honestly.

The dispatcher thread walks the :class:`~repro.loadgen.schedule.
ArrivalSchedule`, sleeps until each request's scheduled arrival, and
submits it — *without ever waiting for a completion*.  Per-request
latency is measured from the **scheduled** arrival, not the actual
submit instant, so if the dispatcher itself slips behind (a saturated
single-CPU host, a GC pause) the slip is charged to the server rather
than quietly dropped.  Both choices exist to defeat coordinated
omission: a closed-loop client that waits for answers before sending
the next request systematically under-reports tail latency, because
the requests that *would have* arrived during a stall are simply never
offered.

Targets are anything with ``submit(query, profile) -> Future``;
:class:`BatcherFarm` adapts the serving stack (one
:class:`~repro.serving.batcher.DynamicBatcher` per request profile over
a shared index, since micro-batches are homogeneous in ``(k,
beam_width)`` by construction).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .mix import RequestMix, RequestProfile
from .schedule import ArrivalSchedule
from .stats import LatencySummary


@dataclass
class RequestOutcome:
    """One offered request's full timeline (offsets from stream start).

    ``scheduled_s`` is when the open-loop schedule said the request
    arrives; ``submitted_s`` when the dispatcher actually handed it to
    the target (the gap is dispatcher slip, included in latency);
    ``completed_s`` when its future resolved.  ``row`` is the answer's
    ``SearchResponseRow`` (``None`` on failure) so answers can be checked
    bitwise against a reference after the run.
    """

    index: int
    profile: str
    query_index: int
    scheduled_s: float
    submitted_s: float = float("nan")
    completed_s: float = float("nan")
    ok: bool = False
    error: Optional[str] = None
    row: object = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float:
        """Scheduled-arrival -> completion, in ms (the honest number)."""
        return (self.completed_s - self.scheduled_s) * 1e3

    @property
    def submit_lag_ms(self) -> float:
        """How far the dispatcher slipped past the scheduled arrival."""
        return (self.submitted_s - self.scheduled_s) * 1e3


class BatcherFarm:
    """The serving stack as a load target: one batcher per profile.

    ``DynamicBatcher`` micro-batches are homogeneous in ``(k,
    beam_width)`` by construction, so a heterogeneous mix is served by
    one batcher per request class — all over the same shared index
    (plain scenario, sharded fan-out, or replicated fleet), exactly how
    a server would expose per-endpoint queues.
    """

    def __init__(
        self,
        index,
        profiles: Sequence[RequestProfile],
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        search_kwargs: Optional[dict] = None,
    ) -> None:
        from ..serving import DynamicBatcher

        self.index = index
        self._batchers: Dict[str, DynamicBatcher] = {
            p.name: DynamicBatcher(
                index,
                k=p.k,
                beam_width=p.beam_width,
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                search_kwargs=search_kwargs,
            )
            for p in profiles
        }

    def submit(self, query: np.ndarray, profile: RequestProfile) -> Future:
        return self._batchers[profile.name].submit(query)

    def close(self, flush: bool = True) -> dict:
        """Close every per-profile batcher; returns their stats."""
        return {
            name: batcher.close(flush=flush)
            for name, batcher in self._batchers.items()
        }

    def __enter__(self) -> "BatcherFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close(flush=exc[0] is None)


class NetTarget:
    """A remote gateway as a load target, over one ``NetClient``.

    Each submitted query becomes a single-row
    :class:`~repro.api.protocol.SearchRequest` at the profile's ``(k,
    beam_width)``; the returned future resolves to the response's
    ``row(0)`` — the same row type the in-process targets produce, so
    :func:`verify_outcomes` applies unchanged, and the gateway
    batcher's ``batcher_*_s`` stamps ride along in ``row.counters``
    (differences of one server-side clock), so the queue-wait/service
    split is reported over the wire too.
    """

    def __init__(self, client) -> None:
        self.client = client

    def submit(self, query: np.ndarray, profile: RequestProfile) -> Future:
        from ..api.protocol import SearchRequest

        request = SearchRequest(
            queries=np.atleast_2d(np.asarray(query, dtype=np.float64)),
            k=profile.k,
            beam_width=profile.beam_width,
        )
        inner = self.client.submit_request(request)
        future: Future = Future()

        def _chain(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(done.result().row(0))

        inner.add_done_callback(_chain)
        return future

    def close(self, flush: bool = True) -> dict:
        return {}

    def __enter__(self) -> "NetTarget":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_open_loop(
    target,
    schedule: ArrivalSchedule,
    mix: RequestMix,
    queries: np.ndarray,
    assignments: Optional[np.ndarray] = None,
    query_indices: Optional[np.ndarray] = None,
    seed: int = 0,
    timeout_s: float = 120.0,
) -> List[RequestOutcome]:
    """Offer every scheduled request to ``target``; never wait in between.

    ``assignments`` (profile index per slot) and ``query_indices``
    (query-pool row per slot) default to deterministic draws under
    ``seed`` so a run is replayable bit-for-bit.  Completion times are
    captured by future callbacks (in the worker that resolves them),
    so the dispatcher's own loop never synchronizes with the server.
    After the last submission the runner drains all futures under one
    shared ``timeout_s`` budget; a request that cannot complete inside
    it is recorded as failed, never silently dropped.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = schedule.num_requests
    if assignments is None:
        assignments = mix.assign(n, seed=seed)
    if query_indices is None:
        rng = np.random.default_rng(seed + 1)
        query_indices = rng.integers(0, queries.shape[0], size=n)
    if len(assignments) != n or len(query_indices) != n:
        raise ValueError(
            "assignments/query_indices must match the schedule length"
        )

    outcomes = [
        RequestOutcome(
            index=i,
            profile=mix.profiles[int(assignments[i])].name,
            query_index=int(query_indices[i]),
            scheduled_s=float(schedule.offsets_s[i]),
        )
        for i in range(n)
    ]
    completed_at = np.full(n, np.nan, dtype=np.float64)
    futures: List[Optional[Future]] = [None] * n

    def _mark(i: int, start: float):
        def callback(_future: Future) -> None:
            completed_at[i] = time.perf_counter() - start

        return callback

    start = time.perf_counter()
    for i, outcome in enumerate(outcomes):
        due = start + outcome.scheduled_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome.submitted_s = time.perf_counter() - start
        profile = mix.profiles[int(assignments[i])]
        try:
            future = target.submit(queries[outcome.query_index], profile)
        except Exception as exc:  # a refused submit is a failure, not a drop
            outcome.error = f"submit: {exc!r}"
            continue
        future.add_done_callback(_mark(i, start))
        futures[i] = future

    deadline = time.monotonic() + timeout_s
    for i, future in enumerate(futures):
        if future is None:
            continue
        outcome = outcomes[i]
        remaining = deadline - time.monotonic()
        try:
            outcome.row = future.result(timeout=max(0.0, remaining))
            outcome.ok = True
        except Exception as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.completed_s = float(completed_at[i])
        if outcome.ok and not np.isfinite(outcome.completed_s):
            # result() returned before the callback fired; close enough.
            outcome.completed_s = time.perf_counter() - start
    return outcomes


@dataclass(frozen=True)
class LoadRunStats:
    """One (config, offered rate) cell of the QPS-vs-latency frontier."""

    offered_qps: float
    achieved_qps: float
    scheduled: int
    submitted: int
    completed: int
    failed: int
    dropped: int
    latency: LatencySummary
    max_submit_lag_ms: float
    mean_queue_wait_ms: float
    mean_service_ms: float

    @property
    def accounting_exact(self) -> bool:
        """submitted == completed + failed and nothing was dropped."""
        return (
            self.submitted == self.completed + self.failed
            and self.dropped == 0
        )

    def as_dict(self) -> dict:
        out = {
            "offered_qps": round(self.offered_qps, 2),
            "achieved_qps": round(self.achieved_qps, 2),
            "scheduled": self.scheduled,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "max_submit_lag_ms": round(self.max_submit_lag_ms, 3),
            "mean_queue_wait_ms": round(self.mean_queue_wait_ms, 3),
            "mean_service_ms": round(self.mean_service_ms, 3),
        }
        out.update(self.latency.as_dict())
        return out


def summarize_run(
    schedule: ArrivalSchedule, outcomes: Sequence[RequestOutcome]
) -> LoadRunStats:
    """Roll one run's outcomes up into a frontier point.

    Achieved QPS counts completions over the span from the first
    scheduled arrival to the last completion.  Queue-wait and service
    means come from the batcher's per-request timestamps when the rows
    carry them (see ``DynamicBatcher``), separating time-in-queue from
    time-in-kernel.
    """
    completed = [o for o in outcomes if o.ok]
    failed = [o for o in outcomes if not o.ok and o.error is not None]
    dropped = len(outcomes) - len(completed) - len(failed)
    # Submitted = everything the dispatcher handed to the target (ok,
    # or failed after submit); submit-refused requests never made it.
    submitted = sum(
        1
        for o in outcomes
        if o.ok or (o.error is not None and not o.error.startswith("submit:"))
    )
    if not completed:
        raise RuntimeError(
            f"no request completed ({len(failed)} failed, "
            f"{dropped} dropped); the target is wedged"
        )
    span = max(o.completed_s for o in completed) - float(
        schedule.offsets_s[0]
    )
    latencies_ms = [o.latency_ms for o in completed]
    # Only answers that rode a local batcher carry the queue timeline.
    stamped = [
        counters
        for counters in (getattr(o.row, "counters", {}) for o in completed)
        if "batcher_complete_s" in counters
    ]
    queue_waits = [
        (c["batcher_dequeue_s"] - c["batcher_enqueue_s"]) * 1e3
        for c in stamped
    ]
    services = [
        (c["batcher_complete_s"] - c["batcher_dequeue_s"]) * 1e3
        for c in stamped
    ]
    return LoadRunStats(
        offered_qps=float(schedule.rate_qps)
        if np.isfinite(schedule.rate_qps)
        else schedule.mean_rate_qps,
        achieved_qps=len(completed) / max(span, 1e-12),
        scheduled=len(outcomes),
        submitted=submitted,
        completed=len(completed),
        failed=len(failed),
        dropped=dropped,
        latency=LatencySummary.from_values_ms(latencies_ms),
        max_submit_lag_ms=float(
            max(o.submit_lag_ms for o in outcomes if np.isfinite(o.submitted_s))
        ),
        mean_queue_wait_ms=float(np.mean(queue_waits)) if queue_waits else float("nan"),
        mean_service_ms=float(np.mean(services)) if services else float("nan"),
    )


def verify_outcomes(
    outcomes: Sequence[RequestOutcome],
    reference: Dict[str, object],
) -> int:
    """Assert every completed answer is bitwise identical to reference.

    ``reference`` maps profile name -> the direct ``index.search``
    response over the *whole query pool* at that profile's ``(k,
    beam_width)``; each outcome's row is compared against the reference
    row for its query.  Returns the number of requests checked; raises
    ``AssertionError`` on the first divergence — under-load answers
    must match unloaded answers exactly (batch composition is
    load-dependent, results must not be).
    """
    checked = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        expected = reference[outcome.profile].row(outcome.query_index)
        got = outcome.row
        if not (
            np.array_equal(got.ids, expected.ids)
            and np.array_equal(got.distances, expected.distances)
        ):
            raise AssertionError(
                f"request {outcome.index} (profile {outcome.profile!r}, "
                f"query {outcome.query_index}) diverged from the "
                "unloaded reference answer"
            )
        checked += 1
    return checked


def find_knee(
    points: Sequence[LoadRunStats],
    qps_tolerance: float = 0.9,
    p99_slo_ms: Optional[float] = None,
) -> Optional[LoadRunStats]:
    """Locate the knee of the QPS-vs-p99 frontier.

    The knee is the highest offered load the server still *sustains*:
    achieved throughput keeps up with the offered rate (within
    ``qps_tolerance``) and, when an SLO is given, p99 stays under it.
    Past the knee the queue grows without bound and p99 melts down —
    those points are the interesting cliff the frontier exists to show,
    but they are not operating points.
    """
    eligible = [
        p
        for p in points
        if p.achieved_qps >= qps_tolerance * p.offered_qps
        and (p99_slo_ms is None or p.latency.p99_ms <= p99_slo_ms)
    ]
    if not eligible:
        return None
    return max(eligible, key=lambda p: p.offered_qps)


def p99_at_fraction_of_knee(
    points: Sequence[LoadRunStats],
    knee: LoadRunStats,
    fraction: float = 0.5,
) -> float:
    """p99 at the measured point nearest ``fraction * knee`` load.

    "p99 at half the knee" is the honest steady-state SLO number: far
    enough below saturation that the system is stable, close enough
    that the measurement isn't trivially idle.
    """
    target = fraction * knee.offered_qps
    nearest = min(points, key=lambda p: abs(p.offered_qps - target))
    return nearest.latency.p99_ms
