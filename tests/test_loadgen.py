"""Open-loop load generator: schedules, mixes, accounting, honesty.

The load harness exists to measure tail latency *without* coordinated
omission, so the tests here pin exactly the properties that make that
measurement trustworthy: schedules regenerate bit-for-bit under a
seed, the arrival process never depends on completion times (verified
with a deliberately slow fake backend), per-request accounting is
exact, and the percentile estimator matches the numpy reference.
Timing-dependent assertions use generous margins so the suite stays
deterministic on loaded CI runners.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.loadgen import (
    ArrivalSchedule,
    BatcherFarm,
    LatencySummary,
    RequestMix,
    RequestProfile,
    bursty_schedule,
    find_knee,
    make_schedule,
    parse_mix,
    percentile,
    poisson_schedule,
    run_open_loop,
    summarize_run,
    trace_schedule,
    uniform_schedule,
    verify_outcomes,
)
from repro.loadgen.runner import LoadRunStats
from repro.quantization import ProductQuantizer

from .helpers import search


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


class TestSchedules:
    def test_poisson_deterministic_under_seed(self):
        a = poisson_schedule(50.0, 200, seed=7)
        b = poisson_schedule(50.0, 200, seed=7)
        np.testing.assert_array_equal(a.offsets_s, b.offsets_s)

    def test_poisson_seed_changes_schedule(self):
        a = poisson_schedule(50.0, 200, seed=7)
        b = poisson_schedule(50.0, 200, seed=8)
        assert not np.array_equal(a.offsets_s, b.offsets_s)

    def test_poisson_mean_rate_near_nominal(self):
        s = poisson_schedule(100.0, 5000, seed=0)
        assert s.rate_qps == 100.0
        # Law of large numbers, generous tolerance.
        assert s.mean_rate_qps == pytest.approx(100.0, rel=0.15)

    def test_first_arrival_at_zero_and_monotone(self):
        for s in (
            poisson_schedule(40.0, 64, seed=1),
            uniform_schedule(40.0, 64),
            bursty_schedule(40.0, 64, seed=1),
        ):
            assert s.offsets_s[0] == 0.0
            assert (np.diff(s.offsets_s) >= 0).all()

    def test_uniform_is_perfectly_paced(self):
        s = uniform_schedule(10.0, 5)
        np.testing.assert_allclose(s.offsets_s, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_bursty_preserves_mean_rate(self):
        s = bursty_schedule(100.0, 20000, seed=0)
        assert s.mean_rate_qps == pytest.approx(100.0, rel=0.1)

    def test_bursty_is_burstier_than_poisson(self):
        # Hyperexponential gaps: coefficient of variation > 1 (Poisson's).
        b = bursty_schedule(100.0, 20000, seed=0)
        gaps = np.diff(b.offsets_s)
        cv = gaps.std() / gaps.mean()
        assert cv > 1.1

    def test_trace_schedule_replays_offsets(self):
        offsets = np.array([0.0, 0.5, 0.5, 2.0])
        s = trace_schedule(offsets)
        np.testing.assert_array_equal(s.offsets_s, offsets)
        assert np.isnan(s.rate_qps)

    def test_make_schedule_registry(self):
        for kind in ("poisson", "uniform", "bursty"):
            assert make_schedule(kind, 10.0, 8, seed=0).kind == kind
        with pytest.raises(KeyError, match="unknown arrival"):
            make_schedule("sawtooth", 10.0, 8)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ArrivalSchedule(np.array([0.0, 2.0, 1.0]), kind="trace")
        with pytest.raises(ValueError, match="non-negative"):
            ArrivalSchedule(np.array([-1.0, 0.0]), kind="trace")
        with pytest.raises(ValueError, match="finite"):
            ArrivalSchedule(np.array([0.0, np.inf]), kind="trace")
        with pytest.raises(ValueError, match="non-empty"):
            ArrivalSchedule(np.array([]), kind="trace")
        with pytest.raises(ValueError, match="rate_qps"):
            poisson_schedule(0.0, 10)
        with pytest.raises(ValueError, match="num_requests"):
            poisson_schedule(10.0, 0)
        with pytest.raises(ValueError, match="burst_factor"):
            bursty_schedule(10.0, 10, burst_factor=1.0)
        with pytest.raises(ValueError, match="burst_fraction"):
            bursty_schedule(10.0, 10, burst_fraction=1.5)


# ----------------------------------------------------------------------
# Request mixes
# ----------------------------------------------------------------------


class TestMix:
    def test_assignment_deterministic_under_seed(self):
        mix = RequestMix()
        np.testing.assert_array_equal(
            mix.assign(500, seed=3), mix.assign(500, seed=3)
        )

    def test_assignment_follows_weights(self):
        mix = RequestMix(
            (
                RequestProfile(name="a", weight=3.0),
                RequestProfile(name="b", weight=1.0),
            )
        )
        counts = np.bincount(mix.assign(8000, seed=0), minlength=2)
        assert counts[0] / counts.sum() == pytest.approx(0.75, abs=0.05)

    def test_parse_mix_round_trip(self):
        mix = parse_mix("std:10:32:0.6,light:5:16:0.4")
        assert [p.name for p in mix.profiles] == ["std", "light"]
        assert mix.profiles[1].k == 5
        assert mix.profiles[1].beam_width == 16
        described = mix.describe()
        assert described[0]["weight"] == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            RequestMix(
                (RequestProfile(name="a"), RequestProfile(name="a"))
            )
        with pytest.raises(ValueError, match="at least one"):
            RequestMix(())
        with pytest.raises(ValueError, match="weight"):
            RequestProfile(name="a", weight=0.0)
        with pytest.raises(ValueError, match="bad mix entry"):
            parse_mix("std:10:32")


# ----------------------------------------------------------------------
# Percentile math
# ----------------------------------------------------------------------


class TestPercentiles:
    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(scale=5.0, size=1003)
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_small_populations(self):
        assert percentile([7.0], 99.0) == 7.0
        assert percentile([1.0, 3.0], 50.0) == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 101.0)

    def test_summary_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.gamma(2.0, 3.0, size=500)
        summary = LatencySummary.from_values_ms(values)
        assert summary.count == 500
        assert summary.p99_ms == pytest.approx(
            float(np.percentile(values, 99.0))
        )
        assert summary.p999_ms == pytest.approx(
            float(np.percentile(values, 99.9))
        )
        assert summary.max_ms == float(values.max())


# ----------------------------------------------------------------------
# Open-loop runner honesty (fake backends — no index needed)
# ----------------------------------------------------------------------


class _SlowTarget:
    """A backend that answers every request after a fixed delay.

    Completion is delivered from timer threads, so a dispatcher that
    (wrongly) waited for completions before submitting the next
    request would stretch the observed submission spacing to >= the
    service delay.  Records the wall-clock submit instants.
    """

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.submit_times: list = []

    def submit(self, query, profile) -> Future:
        self.submit_times.append(time.perf_counter())
        future: Future = Future()
        timer = threading.Timer(self.delay_s, future.set_result, args=(None,))
        timer.daemon = True
        timer.start()
        return future


class _FailingTarget:
    """Refuses every third submission; answers the rest instantly."""

    def __init__(self):
        self.calls = 0

    def submit(self, query, profile) -> Future:
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError("queue full")
        future: Future = Future()
        future.set_result(None)
        return future


def _tiny_queries(n=4, dim=8):
    rng = np.random.default_rng(0)
    return rng.standard_normal((n, dim))


class TestOpenLoopRunner:
    def test_arrivals_independent_of_completions(self):
        # 20 arrivals 10 ms apart against a backend that takes 150 ms
        # per request: an open-loop dispatcher finishes submitting all
        # of them before the *first* completes.  A closed loop would
        # need >= 19 * 150 ms just to start the last request.
        schedule = uniform_schedule(100.0, 20)
        target = _SlowTarget(delay_s=0.15)
        mix = RequestMix((RequestProfile(name="only"),))
        outcomes = run_open_loop(
            target, schedule, mix, _tiny_queries(), timeout_s=30.0
        )
        assert len(target.submit_times) == 20
        submit_span = target.submit_times[-1] - target.submit_times[0]
        assert submit_span < 0.15 * 19 / 2, (
            "dispatcher waited on completions (coordinated omission)"
        )
        assert all(o.ok for o in outcomes)
        # Latency is from *scheduled* arrival and includes the service
        # delay for every request.
        for o in outcomes:
            assert o.latency_ms >= 0.15 * 1e3 * 0.5

    def test_latency_measured_from_scheduled_arrival(self):
        # Two requests scheduled at the same instant: the dispatcher
        # necessarily submits the second late, but its latency clock
        # started at the scheduled arrival, so the slip is charged to
        # the measurement rather than dropped.
        schedule = trace_schedule(np.zeros(8))
        target = _SlowTarget(delay_s=0.05)
        mix = RequestMix((RequestProfile(name="only"),))
        outcomes = run_open_loop(
            target, schedule, mix, _tiny_queries(), timeout_s=30.0
        )
        stats = summarize_run(schedule, outcomes)
        assert stats.completed == 8
        assert all(o.latency_ms >= o.submit_lag_ms for o in outcomes)

    def test_accounting_submitted_completed_failed(self):
        schedule = uniform_schedule(200.0, 30)
        target = _FailingTarget()
        mix = RequestMix((RequestProfile(name="only"),))
        outcomes = run_open_loop(
            target, schedule, mix, _tiny_queries(), timeout_s=30.0
        )
        stats = summarize_run(schedule, outcomes)
        assert stats.scheduled == 30
        # Every third submit is refused before reaching the target.
        assert stats.submitted == 20
        assert stats.completed == 20
        assert stats.failed == 10
        assert stats.dropped == 0
        assert not stats.accounting_exact  # refused submits broke it
        assert stats.submitted + 10 == stats.completed + stats.failed

    def test_accounting_exact_on_clean_run(self):
        schedule = uniform_schedule(500.0, 16)
        target = _SlowTarget(delay_s=0.01)
        mix = RequestMix((RequestProfile(name="only"),))
        outcomes = run_open_loop(
            target, schedule, mix, _tiny_queries(), timeout_s=30.0
        )
        stats = summarize_run(schedule, outcomes)
        assert stats.accounting_exact
        assert (
            stats.scheduled
            == stats.submitted
            == stats.completed
            == 16
        )
        assert stats.failed == 0 and stats.dropped == 0

    def test_deterministic_workload_assignment(self):
        schedule = uniform_schedule(500.0, 12)
        mix = RequestMix(
            (
                RequestProfile(name="a", weight=0.5),
                RequestProfile(name="b", k=5, beam_width=16, weight=0.5),
            )
        )
        target = _SlowTarget(delay_s=0.0)
        runs = [
            run_open_loop(
                target, schedule, mix, _tiny_queries(), seed=5, timeout_s=30.0
            )
            for _ in range(2)
        ]
        assert [o.profile for o in runs[0]] == [o.profile for o in runs[1]]
        assert [o.query_index for o in runs[0]] == [
            o.query_index for o in runs[1]
        ]


# ----------------------------------------------------------------------
# Knee detection
# ----------------------------------------------------------------------


def _point(offered, achieved, p99):
    return LoadRunStats(
        offered_qps=offered,
        achieved_qps=achieved,
        scheduled=10,
        submitted=10,
        completed=10,
        failed=0,
        dropped=0,
        latency=LatencySummary(
            count=10,
            mean_ms=p99 / 2,
            p50_ms=p99 / 2,
            p90_ms=p99 * 0.9,
            p99_ms=p99,
            p999_ms=p99,
            max_ms=p99,
        ),
        max_submit_lag_ms=0.0,
        mean_queue_wait_ms=0.0,
        mean_service_ms=0.0,
    )


class TestKnee:
    def test_knee_is_highest_sustained_rate(self):
        points = [
            _point(10, 10, 2.0),
            _point(20, 19.5, 3.0),
            _point(40, 24.0, 80.0),  # melted down: achieved << offered
        ]
        knee = find_knee(points, qps_tolerance=0.9)
        assert knee is not None and knee.offered_qps == 20

    def test_p99_slo_constrains_knee(self):
        points = [_point(10, 10, 2.0), _point(20, 19.5, 50.0)]
        knee = find_knee(points, qps_tolerance=0.9, p99_slo_ms=10.0)
        assert knee is not None and knee.offered_qps == 10

    def test_no_sustained_point_returns_none(self):
        assert find_knee([_point(10, 1.0, 500.0)]) is None


# ----------------------------------------------------------------------
# End-to-end over the real serving stack (tiny index)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_index():
    data = load("sift", n_base=200, n_queries=8, seed=9)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=20, seed=0)
    return data, MemoryIndex(graph, quantizer, data.base)


class TestBatcherFarm:
    def test_load_answers_bitwise_identical_and_accounted(self, tiny_index):
        data, index = tiny_index
        mix = RequestMix(
            (
                RequestProfile(name="std", k=10, beam_width=24, weight=0.7),
                RequestProfile(name="light", k=5, beam_width=16, weight=0.3),
            )
        )
        reference = {
            p.name: search(index, data.queries, k=p.k, beam_width=p.beam_width)
            for p in mix.profiles
        }
        schedule = poisson_schedule(400.0, 48, seed=2)
        with BatcherFarm(
            index, mix.profiles, max_batch_size=8, max_wait_ms=2.0
        ) as farm:
            outcomes = run_open_loop(
                farm, schedule, mix, data.queries, seed=2, timeout_s=60.0
            )
        stats = summarize_run(schedule, outcomes)
        assert stats.accounting_exact
        assert stats.completed == 48 and stats.failed == 0
        assert verify_outcomes(outcomes, reference) == 48

    def test_queue_wait_separable_from_service(self, tiny_index):
        data, index = tiny_index
        mix = RequestMix((RequestProfile(name="std", k=5, beam_width=16),))
        schedule = trace_schedule(np.zeros(16))  # all at once: must queue
        with BatcherFarm(
            index, mix.profiles, max_batch_size=4, max_wait_ms=1.0
        ) as farm:
            outcomes = run_open_loop(
                farm, schedule, mix, data.queries, timeout_s=60.0
            )
        stats = summarize_run(schedule, outcomes)
        # The batcher's per-request timeline made it through the farm.
        assert np.isfinite(stats.mean_queue_wait_ms)
        assert np.isfinite(stats.mean_service_ms)
        assert stats.mean_queue_wait_ms >= 0.0
        assert stats.mean_service_ms > 0.0
        for o in outcomes:
            assert "batcher_enqueue_s" in o.row.counters
            assert (
                o.row.counters["batcher_enqueue_s"]
                <= o.row.counters["batcher_dequeue_s"]
                <= o.row.counters["batcher_complete_s"]
            )

    def test_verify_outcomes_detects_divergence(self, tiny_index):
        data, index = tiny_index
        mix = RequestMix((RequestProfile(name="std", k=5, beam_width=16),))
        schedule = uniform_schedule(500.0, 8)
        reference = {
            "std": search(index, data.queries, k=5, beam_width=16)
        }
        with BatcherFarm(index, mix.profiles, max_batch_size=4) as farm:
            outcomes = run_open_loop(
                farm, schedule, mix, data.queries, timeout_s=60.0
            )
        assert verify_outcomes(outcomes, reference) == 8
        # Corrupt one answer: the check must notice.
        victim = next(o for o in outcomes if o.ok)
        victim.row.ids = victim.row.ids.copy()
        victim.row.ids[0] = -7
        with pytest.raises(AssertionError, match="diverged"):
            verify_outcomes(outcomes, reference)
