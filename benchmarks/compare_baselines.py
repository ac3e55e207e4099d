"""Compare regenerated ``BENCH_*.json`` baselines against committed ones.

The CI bench lane snapshots the committed baselines, re-runs the
benchmarks (which overwrite them in place), and then calls::

    python benchmarks/compare_baselines.py --old <snapshot-dir> --new .

Field classification decides what a difference means:

* **Schema drift** — a key present on one side only, a list whose
  length changed, a type change, or a ``schema_version`` mismatch —
  **fails** the job.  The committed baseline is the contract.
* **Identity drift** — any non-timing value change (bitwise-identity
  booleans, failed-request counts, config fields, request accounting)
  — **fails** the job.  These must reproduce on any host.
* **Timing drift** — wall-clock-derived fields (QPS, percentiles,
  speedups, hit rates) and the host fingerprint — **reported**, never
  failed.  Shared runners make timing non-comparable across hosts;
  the report keeps the trajectory visible without flaking the lane.
* **Retired rows** — a ``retired`` block holds the last measurement of
  something the program no longer does (kept as the evidence for
  removing it).  Nothing regenerates it, so its contents are skipped;
  dropping the block itself is still schema drift.

Exit status: 0 when schema and identity match (timing diffs allowed),
1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Tuple

#: A leaf key is timing (report-only) when its name ends with one of
#: these, or matches the explicit set below.  Over-matching a config
#: key costs one field's worth of strictness; under-matching a timing
#: key makes the nightly lane flaky — so suffix matching leans wide.
TIMING_SUFFIXES = (
    "_qps",
    "_ms",
    "_s",
    "_seconds",
    "speedup",
    "hit_rate",
    "qps",
    # Storage sizes are host-dependent the way wall clocks are: the
    # graph and the PQ codebooks come out of BLAS-backed arithmetic,
    # so edge counts — and with them the adjacency sections — can
    # shift across BLAS builds.  The *identity* booleans in
    # BENCH_storage.json still fail on drift; the byte counts are
    # trajectory, not contract.
    "_bytes",
)
TIMING_KEYS = {
    "mean_batch",
    "batches",
    "restarts",
    "gates_enforced",
    "gate_enforced",
    "bytes_per_vector",
}
#: Whole subtrees that are host-dependent by construction.
HOST_KEYS = {"host", "cpu_count", "usable_cpus"}
#: Subtree of historical numbers: present on both sides, never compared.
RETIRED_KEY = "retired"


def is_report_only(key: str) -> bool:
    if key in HOST_KEYS or key in TIMING_KEYS:
        return True
    return any(key.endswith(suffix) for suffix in TIMING_SUFFIXES)


def walk(
    old,
    new,
    path: str,
    failures: List[str],
    timing: List[Tuple[str, object, object]],
) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        only_old = sorted(set(old) - set(new))
        only_new = sorted(set(new) - set(old))
        if only_old:
            failures.append(f"{path}: keys removed: {only_old}")
        if only_new:
            failures.append(f"{path}: keys added: {only_new}")
        for key in sorted(set(old) & set(new)):
            child = f"{path}.{key}"
            if key == RETIRED_KEY:
                continue
            if key in HOST_KEYS:
                if old[key] != new[key]:
                    timing.append((child, old[key], new[key]))
                continue
            walk(old[key], new[key], child, failures, timing)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            failures.append(
                f"{path}: list length {len(old)} -> {len(new)}"
            )
            return
        for i, (o, n) in enumerate(zip(old, new)):
            walk(o, n, f"{path}[{i}]", failures, timing)
        return
    if type(old) is not type(new) and not (
        isinstance(old, (int, float))
        and isinstance(new, (int, float))
        and not isinstance(old, bool)
        and not isinstance(new, bool)
    ):
        failures.append(
            f"{path}: type {type(old).__name__} -> {type(new).__name__}"
        )
        return
    if old == new:
        return
    leaf = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if is_report_only(leaf):
        timing.append((path, old, new))
    else:
        failures.append(f"{path}: {old!r} -> {new!r}")


def compare_file(old_path: str, new_path: str) -> Tuple[List[str], List]:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    failures: List[str] = []
    timing: List[Tuple[str, object, object]] = []
    if old.get("schema_version") != new.get("schema_version"):
        failures.append(
            f"schema_version: {old.get('schema_version')!r} -> "
            f"{new.get('schema_version')!r}"
        )
        return failures, timing
    walk(old, new, os.path.basename(old_path), failures, timing)
    return failures, timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on BENCH_*.json schema/identity drift; "
        "report timing drift"
    )
    parser.add_argument(
        "--old", required=True, help="directory of committed baselines"
    )
    parser.add_argument(
        "--new", required=True, help="directory of regenerated baselines"
    )
    args = parser.parse_args(argv)

    old_files = {
        os.path.basename(p): p
        for p in glob.glob(os.path.join(args.old, "BENCH_*.json"))
    }
    new_files = {
        os.path.basename(p): p
        for p in glob.glob(os.path.join(args.new, "BENCH_*.json"))
    }
    if not old_files:
        print(f"no BENCH_*.json under {args.old}", file=sys.stderr)
        return 1

    any_failures = False
    for name in sorted(old_files):
        if name not in new_files:
            # A benchmark that stopped emitting its baseline is drift.
            print(f"FAIL {name}: not regenerated under {args.new}")
            any_failures = True
            continue
        failures, timing = compare_file(old_files[name], new_files[name])
        for path, old, new in timing:
            print(f"  timing {path}: {old!r} -> {new!r} (report-only)")
        if failures:
            any_failures = True
            for failure in failures:
                print(f"FAIL {failure}")
        else:
            print(
                f"OK   {name}: schema + identity match "
                f"({len(timing)} timing diff(s) reported)"
            )
    for name in sorted(set(new_files) - set(old_files)):
        print(f"note {name}: new baseline (no committed counterpart)")
    return 1 if any_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
