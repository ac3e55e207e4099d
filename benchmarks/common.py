"""Shared helpers for the benchmark suite.

``bench_paper.py`` regenerates the paper's tables and figures; the
other ``bench_*.py`` measure the engine, serving, load and storage
layers.  Results are printed and archived under ``benchmarks/results/``
(untracked); machine-readable ``BENCH_*.json`` baselines are committed.

Scales are laptop-sized (see ``docs/api.md``, "Paper experiments"):
1k–5k vectors instead of 1M–1B, with QPS meaningful only *relatively*
across methods.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from repro.eval.tables import fmt  # noqa: F401  (re-exported to benches)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version of the committed-baseline envelope (the stamp every
#: ``BENCH_*.json`` carries, not the per-bench payload shape).  Bump it
#: when the envelope itself changes meaning; the CI comparison job
#: fails on a mismatch so schema drift is explicit, never silent.
#: (3: a baseline may carry a ``retired`` block — historical rows the
#: bench emits verbatim and the comparison skips.)
BENCH_SCHEMA_VERSION = 3

#: Committed machine-readable baselines live at the repo root (the
#: human-readable blocks under results/ stay untracked).
BASELINE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)

# Shared small-scale codebook shape.
NUM_CHUNKS = 8
NUM_CODEWORDS = 32


def speedup_gates_enabled() -> bool:
    """Whether the timing-based speedup assertions should run.

    Identity and recall assertions always run; the wall-clock speedup
    gates are skipped when ``REPRO_SKIP_SPEEDUP_GATES`` is set (the
    nightly CI lane — shared runners make timing gates flaky).
    """
    return not os.environ.get("REPRO_SKIP_SPEEDUP_GATES")


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware);
    falls back to the host count where affinity is unsupported."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_speedup_gate_enabled() -> bool:
    """Whether the thread-vs-process fan-out gate should run.

    On top of the usual :func:`speedup_gates_enabled` switch the gate
    needs real CPU parallelism: with only one *usable* CPU (single-core
    host, `taskset`, cgroup quota) the per-shard worker processes
    cannot overlap, so the >= 1.5x bar is physically unreachable and
    the gate skips (the bitwise identity assertion always runs).
    """
    return speedup_gates_enabled() and usable_cpus() >= 2


def host_fingerprint() -> dict:
    """Where this baseline was measured: the fields that make wall-clock
    numbers non-comparable across machines.

    The CI baseline-comparison job keys off this block — when the
    fingerprint differs from the committed baseline's, timing diffs are
    *reported*, not failed (identity/schema fields are compared either
    way).
    """
    return {
        "usable_cpus": usable_cpus(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def save_json_baseline(name: str, payload: dict) -> str:
    """Write a committed ``BENCH_<name>.json`` baseline at the repo root.

    Unlike the human-readable blocks under ``results/`` (untracked),
    these are machine-readable snapshots meant to be committed so the
    bench trajectory is visible in history.  Every baseline is stamped
    with ``schema_version`` and the measuring host's fingerprint so the
    CI comparison job (``benchmarks/compare_baselines.py``) can fail on
    schema/identity drift while treating cross-host timing diffs as
    report-only.
    """
    payload = dict(payload)
    payload["schema_version"] = BENCH_SCHEMA_VERSION
    payload["host"] = host_fingerprint()
    path = os.path.join(BASELINE_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[baseline saved to {path}]")
    return path


def save_report(name: str, text: str) -> None:
    """Print a result block and archive it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
