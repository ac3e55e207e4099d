"""Open-loop load generation with tail-latency accounting.

``repro.loadgen`` is the instrument every scaling change gets measured
on (see ``docs/architecture.md`` — "Measuring the serving layer"):

* :mod:`~repro.loadgen.schedule` — Poisson / uniform / bursty /
  trace-driven arrival schedules, fixed before the run and independent
  of completions (the open-loop property that defeats coordinated
  omission).
* :mod:`~repro.loadgen.mix` — heterogeneous weighted request classes
  (``k`` × ``beam_width``), deterministically assigned to arrival
  slots.
* :mod:`~repro.loadgen.runner` — the dispatcher that offers requests
  on schedule, measures latency from *scheduled* arrival, accounts for
  every request (submitted == completed + failed, zero drops), and
  verifies answers bitwise against an unloaded reference;
  :class:`BatcherFarm` adapts the serving stack (one dynamic batcher
  per profile over a shared — possibly sharded/replicated — index);
  :func:`find_knee` locates where the QPS-vs-p99 frontier melts down.
* :mod:`~repro.loadgen.stats` — auditable percentile math
  (p50/p90/p99/p999).

* :mod:`~repro.loadgen.frontier` — :func:`run_load`: calibrate a rate
  ladder against a built index or a live gateway, sweep it, and return
  the :class:`LoadReport` (frontier, knee, p99 at half-knee, identity
  and accounting verdicts).

The CLI surface is ``python -m repro.cli experiment load``.
"""

from .frontier import LoadReport, run_load
from .mix import DEFAULT_MIX_PROFILES, RequestMix, RequestProfile, parse_mix
from .runner import (
    BatcherFarm,
    LoadRunStats,
    NetTarget,
    RequestOutcome,
    find_knee,
    p99_at_fraction_of_knee,
    run_open_loop,
    summarize_run,
    verify_outcomes,
)
from .schedule import (
    SCHEDULE_KINDS,
    ArrivalSchedule,
    bursty_schedule,
    load_trace,
    make_schedule,
    poisson_schedule,
    save_trace,
    trace_schedule,
    uniform_schedule,
)
from .stats import LatencySummary, percentile

__all__ = [
    "ArrivalSchedule",
    "BatcherFarm",
    "DEFAULT_MIX_PROFILES",
    "LatencySummary",
    "LoadReport",
    "LoadRunStats",
    "NetTarget",
    "RequestMix",
    "RequestOutcome",
    "RequestProfile",
    "SCHEDULE_KINDS",
    "bursty_schedule",
    "find_knee",
    "load_trace",
    "make_schedule",
    "p99_at_fraction_of_knee",
    "parse_mix",
    "percentile",
    "poisson_schedule",
    "run_load",
    "run_open_loop",
    "save_trace",
    "summarize_run",
    "trace_schedule",
    "uniform_schedule",
    "verify_outcomes",
]
