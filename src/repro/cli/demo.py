"""``repro profiles`` and ``repro demo``."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .shared import backend_needs_shards, laptop_spec


def cmd_profiles(args: argparse.Namespace) -> int:
    from ..datasets import PROFILES, lid_mle, load
    from ..eval import format_table

    rows = []
    for name, profile in sorted(PROFILES.items()):
        row = [
            name,
            profile.dim,
            profile.paper_dim,
            profile.paper_lid,
        ]
        if args.measure_lid:
            data = load(name, n_base=args.n_base, seed=args.seed)
            row.append(round(lid_mle(data.base, k=20, sample=400, seed=0), 1))
        rows.append(row)
    headers = ["profile", "dim", "paper dim", "paper LID"]
    if args.measure_lid:
        headers.append("measured LID")
    print(format_table(headers, rows, title="Dataset profiles (Table 3 stand-ins)"))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    if args.float32 and args.scenario != "memory":
        print(
            "--float32 applies to the memory scenario only",
            file=sys.stderr,
        )
        return 2
    if backend_needs_shards(args):
        return 2

    from ..api import QuantizerSpec, ScenarioSpec
    from ..eval import Workbench, format_table, run_queries_batched
    from ..metrics import recall_at_k

    def quantizer(kind: str, **params) -> QuantizerSpec:
        return QuantizerSpec(
            kind=kind,
            num_chunks=args.chunks,
            num_codewords=args.codewords,
            seed=args.seed,
            params=params,
        )

    pq = laptop_spec(
        args,
        args.n_queries,
        quantizer=quantizer("pq"),
        scenario=ScenarioSpec(
            kind=args.scenario,
            params={"storage_dtype": "float32"} if args.float32 else {},
        ),
    )
    rpq = dataclasses.replace(
        pq, quantizer=quantizer("rpq", epochs=args.epochs)
    )
    # One workbench: the dataset, ground truth and (per-shard) graphs
    # depend only on sections the two specs share, so they build once.
    bench = Workbench()
    rows = []
    for name, spec in (("PQ", pq), ("RPQ", rpq)):
        index = bench.build(spec)
        # Everything routes through the unified engine; --batch-size
        # only sets how many queries share each kernel call.
        results = run_queries_batched(
            index, bench.dataset(spec).queries, 10, args.beam, args.batch_size
        )
        recall = recall_at_k(
            [r.ids for r in results], bench.ground_truth(spec).ids
        )
        hops = float(np.mean([r.counters["hops"] for r in results]))
        rows.append([name, round(recall, 3), round(hops, 1)])
    engine = (
        f"batched (batch={args.batch_size})"
        if args.batch_size > 1
        else "per-query"
    )
    if args.shards > 1:
        engine += f", {args.shards} shards ({args.shard_backend})"
    if args.replicas > 1:
        engine += f", {args.replicas} replicas/shard"
    if args.float32 and args.scenario == "memory":
        engine += ", float32 storage"
    print(
        format_table(
            ["method", "recall@10", "hops"],
            rows,
            title=(
                f"{args.dataset}-like, n={args.n_base}, {args.graph}, "
                f"{args.scenario} scenario, beam {args.beam}, {engine}"
            ),
        )
    )
    return 0
