"""Compare two result files written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the bound and
a verdict — ``same``, ``worse`` (B's median is worse than A's by more
than the bound) or ``unresolved`` (the run-to-run spread of either side
is wider than the bound, so the runs cannot tell).  Exits non-zero on
any ``worse`` row or when B failed a larger share of its operations.
"""

from __future__ import annotations

import json
import statistics
import sys

import metrics


def load(path: str) -> dict:
    """``{workload: [untraced run, ...]}``."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict = {}
    for run in runs:
        if "end_to_end" in run:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def failed_share(runs) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / max(attempted, 1)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    a_runs, b_runs = load(argv[1]), load(argv[2])
    code = 0
    print(f"{'workload':<16} {'metric':<24} {'A median':>12} {'B median':>12} "
          f"{'bound':>7} {'spread':>7}  verdict")
    for workload in metrics.WORKLOADS:
        if workload not in a_runs or workload not in b_runs:
            continue
        for name, _unit, better, bound in metrics.END_TO_END:
            a = [r["end_to_end"][name]["value"] for r in a_runs[workload]]
            b = [r["end_to_end"][name]["value"] for r in b_runs[workload]]
            a_med, b_med = statistics.median(a), statistics.median(b)
            worse_by = (b_med - a_med if better == "lower" else a_med - b_med)
            worse_by /= abs(a_med) if a_med else 1.0
            widest = max(spread(a), spread(b))
            if widest > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                code = 1
            else:
                verdict = "same"
            print(f"{workload:<16} {name:<24} {a_med:>12.6g} {b_med:>12.6g} "
                  f"{bound:>7.4f} {widest:>7.4f}  {verdict}")
        share_a = failed_share(a_runs[workload])
        share_b = failed_share(b_runs[workload])
        if share_b > share_a:
            print(f"{workload:<16} failed_share rose {share_a:.6f} -> "
                  f"{share_b:.6f}")
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
