"""The repo benchmark: four workloads, eight end-to-end metrics and a
per-layer ledger measured from the outside.

    python benchmarks/e2e/run.py                       # all four workloads
    python benchmarks/e2e/run.py --traced --out r.json # ... plus traced runs
    python benchmarks/e2e/run.py --smoke               # toy sizes + self-check
    python benchmarks/e2e/run.py --workload hybrid_disk --seed 3 \\
        --seconds 12 --trace 0                         # the driver's form

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for every definition.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import procs  # noqa: E402

# Before numpy loads its BLAS; subprocesses inherit the environment.
os.environ.update(procs.THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_START
DEFAULT_SECONDS = 10.0
SMOKE_SECONDS = 1.5


def end_to_end(workload, measured, setup_times, rss_mb, problems) -> dict:
    segments = measured.segments()
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments) + len(problems)
    hits = sum(s.recall_hits for s in segments)
    total = sum(s.recall_total for s in segments)
    samples = sum(len(s.latencies_ms) for s in measured.latency)
    values = {
        "setup_s": (float(np.median(setup_times)), len(setup_times)),
        "throughput_qps": (
            harness.median_over_segments(
                measured.throughput, lambda s: s.throughput()
            ),
            sum(s.vectors for s in measured.throughput),
        ),
        "latency_p50_ms": (
            harness.percentile_over_segments(measured.latency, 50),
            samples,
        ),
        "latency_p90_ms": (
            harness.percentile_over_segments(measured.latency, 90),
            samples,
        ),
        "recall_at_10": (hits / max(total, 1), total // harness.K),
        "success_share": (1.0 - failed / max(attempted, 1), attempted),
        "index_bytes_per_vector": (
            float(workload.report["bytes_per_vector"]),
            1,
        ),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {
        name: dict(zip(("value", "samples"), values[name]), unit=unit)
        for name, unit, _better, _bound in metrics.END_TO_END
    }


def per_layer(name: str, layers: dict, sources: dict) -> dict:
    """Every per-layer metric: measured on this workload, filled from a
    toy-size probe of a workload that exercises the layer (``source``
    says which), or an explicit null with the reason — never dropped."""
    out = {}
    for metric, unit, _better, _moves, _where in metrics.PER_LAYER:
        row = {"value": layers.get(metric), "unit": unit}
        if metric in sources:
            row["source"] = f"toy-size probe of {sources[metric]}"
        elif row["value"] is None:
            row["reason"] = "layer not exercised, or its hook is gone"
        out[metric] = row
    return out


def traced_pass(workload, seconds: float, tracer) -> tuple:
    """Half the window untraced, half traced (same seeded inputs going
    on), then the workload's per-layer probes."""
    base = workload.measure(seconds / 2, harness.Tracer())
    traced = workload.measure(seconds / 2, tracer)
    layers = workload.layers(base, traced, tracer)
    pace = [
        harness.median_over_segments(m.throughput, lambda s: s.throughput())
        for m in (base, traced)
    ]
    layers["trace.overhead_share"] = 1.0 - pace[1] / pace[0]
    return layers, [base, traced]


def fill_from_probes(name: str, seed: int, layers: dict, workdir: str):
    """The layers ``name`` does not exercise, taken from a toy-size
    traced pass of each workload that does, so every traced run carries
    the whole ledger.  Returns ``(sources, measured windows, problems)``."""
    sources, measured, problems = {}, [], []
    for other, cls in workloads.WORKLOADS.items():
        wanted = [
            metric
            for metric, _u, _b, _m, where in metrics.PER_LAYER
            if layers.get(metric) is None
            and other in where
            and name not in where
        ]
        if not wanted:
            continue
        tracer = harness.Tracer(enabled=True)  # spans discarded
        probe = cls(workloads.SMOKE, seed, workdir, tracer)
        try:
            probe.setup()
            values, windows = traced_pass(probe, SMOKE_SECONDS, tracer)
        finally:
            problems += probe.teardown()
        measured += windows
        for metric in wanted:
            if values.get(metric) is not None:
                layers[metric] = values[metric]
                sources[metric] = other
    return sources, measured, problems


def run_workload(args) -> dict:
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = os.path.join(
        harness.OUT_DIR, f"tmp-{args.workload}-{os.getpid()}"
    )
    os.makedirs(workdir)
    tracer = harness.Tracer(enabled=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](
        sizes, args.seed, workdir, tracer
    )
    problems = []
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "fingerprint": procs.fingerprint(args.seed),
    }
    try:
        try:
            # setup_s: process start -> first measured operation can be
            # issued.  Several complete set-ups, median reported; a
            # traced run reports no setup_s and sets up once.
            setup_times = []
            for rep in range(1 if args.trace else sizes["setup_reps"]):
                if rep:
                    problems += workload.teardown()
                    workload.clock.seconds.clear()
                start = time.perf_counter()
                workload.setup()
                setup_times.append(IMPORT_S + time.perf_counter() - start)
            if args.corrupt_reference:
                workload.corrupt_reference()
            if args.trace:
                layers, measured = traced_pass(workload, args.seconds, tracer)
            else:
                measured = [workload.measure(args.seconds, tracer)]
            rss_mb = workload.peak_rss_mb()
        finally:
            problems += workload.teardown()
        result["phases"] = {
            ("traced." if i else "") + phase: counts
            for i, m in enumerate(measured)
            for phase, counts in m.phases.items()
        }
        sources = {}
        if args.trace and not args.smoke:  # a smoke run is the toy size
            sources, probed, probe_problems = fill_from_probes(
                args.workload, args.seed, layers, workdir
            )
            measured += probed
            problems += probe_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leftovers = procs.leftover_children()
    if leftovers:
        problems.append(f"leftover child processes: {leftovers}")

    result["problems"] = problems
    segments = [s for m in measured for s in m.segments()]
    result["attempted"] = sum(s.attempted for s in segments)
    result["failed"] = sum(s.failed for s in segments) + len(problems)
    if args.trace:
        result["per_layer"] = per_layer(args.workload, layers, sources)
        result["spans"] = tracer.summary()
        tracer.write(
            os.path.join(harness.OUT_DIR, f"trace_{args.workload}.jsonl")
        )
    else:
        result["end_to_end"] = end_to_end(
            workload, measured[0], setup_times, rss_mb, problems
        )
    return result


def driver_line(result: dict) -> str:
    """The one JSON object the driver reads.  Its values must be
    numbers, so a per-layer metric that is null in the result file
    (its hook is gone) reads 0 here."""
    rows = result.get("end_to_end") or result["per_layer"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {
                    "value": 0.0 if row["value"] is None else row["value"],
                    "unit": row["unit"],
                }
                for name, row in rows.items()
            },
        }
    )


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['seconds']} s{', traced' if result['traced'] else ''})")
    for phase, c in result["phases"].items():
        print(f"  phase {phase}: attempted {c['attempted']} "
              f"succeeded {c['succeeded']} failed {c['failed']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    for name, row in (result.get("end_to_end") or result["per_layer"]).items():
        if row["value"] is None:
            print(f"  {name:<44} null  ({row['reason']})")
            continue
        note = f"  n={row['samples']}" if "samples" in row else ""
        if "source" in row:
            note = f"  ({row['source']})"
        print(f"  {name:<44} {row['value']:.6g} {row['unit']}{note}")


def append_result(path: str, results: list) -> None:
    """``--out`` accumulates: repeated invocations add their runs to
    the same file, which is what ``compare.py`` takes medians over."""
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w") as handle:
        json.dump({"runs": runs + results}, handle, indent=1)


def run_child(args, workload: str, *extra: str):
    """One workload in its own process (so peak RSS is its own);
    returns ``(exit code, last stdout line as JSON or None)``."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def run_all(args) -> int:
    results, code = [], 0
    for name in metrics.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            returncode, result = run_child(
                args, name, "--trace", str(trace), "--emit-result"
            )
            if result is None:
                print(f"{name}: no result (exit {returncode})")
                code = 1
                continue
            report(result)
            results.append(result)
            code = code or returncode
    if args.out:
        append_result(args.out, results)
    return code


def smoke(args) -> int:
    """All four workloads plus their traced runs at toy sizes, the
    manifest check, and the proof that the checker can fail."""
    with open(os.path.join(procs.REPO_ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    expected = metrics.manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"]
    )
    if manifest != expected:
        print("BENCHMARK.json disagrees with benchmarks/e2e/metrics.py")
        return 1
    args.trace = 1
    code = run_all(args)
    returncode, line = run_child(args, "offline_batch", "--corrupt-reference")
    if returncode == 0 or line is None or line["failed"] == 0:
        print("self-check FAILED: a corrupted reference went unnoticed")
        return 1
    print(f"self-check ok: corrupted reference -> failed={line['failed']}, "
          f"exit {returncode}")
    print("SMOKE OK" if code == 0 else "SMOKE FAILED")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", help="append the runs to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes; without --workload, the full "
                        "smoke sequence and checker self-check")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-check: the run must report failures")
    parser.add_argument("--emit-result", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.workload is None:
        return smoke(args) if args.smoke else run_all(args)

    result = run_workload(args)
    if args.emit_result:  # child of run_all: hand the whole result up
        print(json.dumps(result))
    else:
        report(result)
        if args.out:
            append_result(args.out, [result])
        print(driver_line(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
