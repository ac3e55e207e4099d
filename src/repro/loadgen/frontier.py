"""The QPS-vs-tail-latency frontier of one serving target.

:func:`run_load` sweeps offered load against a built index (served
through one dynamic batcher per request profile) or a live gateway (a
connected :class:`~repro.serving.net.NetClient`) and returns a
:class:`LoadReport`.  It never builds or closes its target — the caller
owns that (see :class:`repro.eval.workbench.Workbench`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..api.protocol import SearchRequest
from .mix import RequestMix
from .runner import (
    BatcherFarm,
    NetTarget,
    find_knee,
    p99_at_fraction_of_knee,
    run_open_loop,
    summarize_run,
    verify_outcomes,
)
from .schedule import ArrivalSchedule, load_trace, make_schedule, trace_schedule


@dataclass
class LoadReport:
    """One target's QPS-vs-tail-latency frontier.

    ``points`` are per-offered-rate :class:`~repro.loadgen.LoadRunStats`
    cells; ``capacity_qps`` is the closed-loop saturation throughput
    the rate ladder was calibrated against; ``knee_qps`` is the highest
    offered load the target sustained (``None`` when even the lowest
    rate melted down) and ``p99_at_half_knee_ms`` the steady-state SLO
    number measured at roughly half that load.  ``identical`` pins that
    every answer produced *under load* matched the unloaded reference
    bitwise; ``accounting_exact`` that every run satisfied
    submitted == completed + failed with zero drops.
    """

    arrival: str
    max_batch_size: int
    max_wait_ms: float
    requests_per_point: int
    mix: list
    capacity_qps: float
    points: list
    knee_qps: Optional[float]
    p99_at_half_knee_ms: Optional[float]
    identical: bool
    accounting_exact: bool
    checked_answers: int

    def as_dict(self) -> dict:
        return {
            "arrival": self.arrival,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "requests_per_point": self.requests_per_point,
            "mix": self.mix,
            "capacity_qps": round(self.capacity_qps, 2),
            "points": [p.as_dict() for p in self.points],
            "knee_qps": None
            if self.knee_qps is None
            else round(self.knee_qps, 2),
            "p99_at_half_knee_ms": None
            if self.p99_at_half_knee_ms is None
            else round(self.p99_at_half_knee_ms, 3),
            "bitwise_identical_under_load": self.identical,
            "accounting_exact": self.accounting_exact,
            "checked_answers": self.checked_answers,
        }


    def table(self, title: str) -> str:
        """The frontier, one row per offered rate."""
        from ..eval.tables import fmt, format_table

        rows = [
            [
                fmt(p.offered_qps, 1),
                fmt(p.achieved_qps, 1),
                fmt(p.latency.p50_ms, 2),
                fmt(p.latency.p99_ms, 2),
                fmt(p.latency.p999_ms, 2),
                fmt(p.mean_queue_wait_ms, 2),
                f"{p.completed}/{p.failed}",
            ]
            for p in self.points
        ]
        headers = [
            "offered QPS",
            "achieved QPS",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "q wait ms",
            "ok/fail",
        ]
        return format_table(headers, rows, title=title)

    def summary(self) -> str:
        """The capacity / knee line under the table."""
        knee = (
            f"knee ~{self.knee_qps:.1f} QPS, p99 at half-knee "
            f"{self.p99_at_half_knee_ms:.2f} ms"
            if self.knee_qps is not None
            else "no sustained operating point (knee below the lowest "
            "offered rate)"
        )
        return f"closed-loop capacity ~{self.capacity_qps:.1f} QPS | {knee}"


def run_load(
    target,
    pool: np.ndarray,
    arrival: str = "poisson",
    rates: Optional[Sequence[float]] = None,
    rate_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.5),
    requests_per_point: int = 128,
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
    mix: Optional[RequestMix] = None,
    seed: int = 0,
    timeout_s: float = 120.0,
    qps_tolerance: float = 0.85,
    p99_slo_ms: Optional[float] = None,
    trace: Union[None, str, ArrivalSchedule] = None,
) -> LoadReport:
    """Open-loop load sweep: the QPS-vs-p99 frontier of ``target``.

    Unlike :func:`repro.eval.harness.run_serving` (a closed-ish stream
    that submits as fast as the queue accepts), this offers requests on
    a fixed arrival schedule (``arrival``: ``poisson`` / ``uniform`` /
    ``bursty``) that never waits for completions, with latency measured
    from each request's *scheduled* arrival — so queueing delay during
    overload is counted instead of coordinated-omitted.  Queries are
    drawn from ``pool`` and follow a heterogeneous ``mix`` of ``(k,
    beam_width)`` profiles.

    ``target`` is a built index — plain, sharded or replicated — served
    by one dynamic batcher per profile
    (:class:`~repro.loadgen.BatcherFarm`, ``max_batch_size`` /
    ``max_wait_ms``), or a connected
    :class:`~repro.serving.net.NetClient`, in which case the requests go
    to its gateway (:class:`~repro.loadgen.NetTarget`; the gateway owns
    the batching).  Either way the unloaded reference every under-load
    answer is checked against bitwise is taken from the *same* target
    before load starts.

    The offered-rate ladder defaults to ``rate_fractions`` of a
    measured closed-loop saturation capacity (submit everything at
    t=0), so the sweep brackets the knee on any host; pass explicit
    ``rates`` to pin it.  ``trace`` (a path or an
    :class:`~repro.loadgen.ArrivalSchedule`) replays an explicit
    arrival trace as the single measured point instead.
    """
    if trace is not None:
        if not isinstance(trace, ArrivalSchedule):
            trace = load_trace(trace)
        arrival = "trace"
        requests_per_point = trace.num_requests
    mix = mix if mix is not None else RequestMix()

    def farm():
        if hasattr(target, "submit_request"):  # a NetClient
            return NetTarget(target)
        return BatcherFarm(
            target,
            mix.profiles,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
        )

    # Unloaded reference answers per profile over the whole pool (this
    # also warms the backend: pool / worker spawn and state shipping
    # stay out of the measured runs).
    reference = {
        p.name: target.search(SearchRequest(pool, p.k, p.beam_width))
        for p in mix.profiles
    }
    identical = True
    accounting = True
    checked = 0

    def offer(schedule: ArrivalSchedule, run_seed: int):
        nonlocal identical, accounting, checked
        with farm() as served:
            outcomes = run_open_loop(
                served, schedule, mix, pool, seed=run_seed,
                timeout_s=timeout_s,
            )
        stats = summarize_run(schedule, outcomes)
        try:
            checked += verify_outcomes(outcomes, reference)
        except AssertionError:
            identical = False
        accounting = accounting and stats.accounting_exact
        return stats

    # Closed-loop saturation capacity: everything arrives at t=0.
    capacity = offer(
        trace_schedule(np.zeros(requests_per_point)), seed
    ).achieved_qps
    if trace is not None:
        schedules = [trace]
    else:
        if rates is None:
            rates = [f * capacity for f in rate_fractions]
        schedules = [
            make_schedule(
                arrival, rate, requests_per_point, seed=seed + 17 * (i + 1)
            )
            for i, rate in enumerate(rates)
        ]
    points = [
        offer(schedule, seed + 17 * (i + 1))
        for i, schedule in enumerate(schedules)
    ]

    knee = find_knee(
        points, qps_tolerance=qps_tolerance, p99_slo_ms=p99_slo_ms
    )
    return LoadReport(
        arrival=arrival,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        requests_per_point=requests_per_point,
        mix=mix.describe(),
        capacity_qps=capacity,
        points=points,
        knee_qps=None if knee is None else knee.offered_qps,
        p99_at_half_knee_ms=None
        if knee is None
        else p99_at_fraction_of_knee(points, knee, fraction=0.5),
        identical=identical,
        accounting_exact=accounting,
        checked_answers=checked,
    )
