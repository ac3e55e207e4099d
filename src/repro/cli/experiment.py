"""``repro experiment <verb>``: ``paper``, ``batch``, ``build``,
``serve`` and ``load``.

Each verb builds what it measures on a
:class:`~repro.eval.workbench.Workbench` from the ``IndexSpec`` its
flags describe, hands it to the measurement function, and prints the
table.
"""

from __future__ import annotations

import argparse
import sys

from .shared import (
    backend_needs_shards,
    close_index,
    laptop_spec,
    parse_endpoints,
)


def cmd_paper(args: argparse.Namespace) -> int:
    from ..eval.paper import PAPER, render, run

    print(render(run(PAPER[args.id])))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from ..eval import Workbench
    from ..eval.harness import batch_throughput_table, run_batch_throughput

    bench = Workbench()
    spec = laptop_spec(args, max(args.n_queries, args.batch_size))
    points = run_batch_throughput(
        bench.build(spec),
        bench.dataset(spec).queries,
        bench.ground_truth(spec),
        batch_sizes=sorted({1, 8, args.batch_size}),
    )
    title = f"Batched engine throughput ({args.dataset})"
    print(batch_throughput_table(points, title))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from ..datasets import load
    from ..eval.harness import build_throughput_table, run_build_throughput
    from ..eval.workbench import laptop_graph

    data = load(args.dataset, n_base=args.n_base, n_queries=200, seed=args.seed)
    points = run_build_throughput(
        laptop_graph(args.graph, args.seed),
        data.base,
        batch_sizes=sorted({8, args.batch_size}),
        queries=data.queries,
    )
    title = f"Batched construction ({args.graph}, {args.dataset})"
    print(build_throughput_table(points, title))
    return 0


def _engine_status_line(engine) -> str:
    """One summary line of hot-path amortizer activity for ``serve``.

    ``engine`` is an index's ``engine_status()``: a single dict, or a
    list of per-shard rows for sharded indexes (aggregated here; rows
    without the engine wiring are skipped).  Returns "" when there is
    nothing to report — e.g. the process backend, whose searches run in
    worker processes so the local counters stay at zero.
    """
    rows = engine if isinstance(engine, list) else [engine]
    pools = [row["workspace_pool"] for row in rows if row and row["workspace_pool"]]
    reuses = sum(pool["reuses"] for pool in pools)
    created = sum(pool["created"] for pool in pools)
    if not created:
        return ""
    return f"engine: workspace reuses {reuses}/{reuses + created}"


def _serve_gateway(args: argparse.Namespace) -> int:
    """``serve --listen``: stand up the asyncio network front end over
    an index (saved directory, or built fresh from the flags) and serve
    the wire protocol until SIGTERM/SIGINT."""
    from ..serving.net import parse_listen, run_gateway_blocking

    try:
        host, port = parse_listen(args.listen)
    except (ValueError, IndexError):
        print(
            f"--listen expects HOST:PORT or :PORT, got {args.listen!r}",
            file=sys.stderr,
        )
        return 2
    if args.dir:
        from ..api import load_index

        index = load_index(args.dir)
        endpoints = parse_endpoints(args.endpoints)
        if endpoints is not None:
            from ..serving import ShardedIndex

            if not isinstance(index, ShardedIndex):
                print(
                    f"{args.dir} holds an unsharded index; "
                    "--endpoints applies to sharded indexes only",
                    file=sys.stderr,
                )
                return 2
            index.set_backend("socket", endpoints=endpoints)
    else:
        from ..eval import Workbench

        index = Workbench().build(laptop_spec(args, max(args.n_queries, 32)))
    try:
        return run_gateway_blocking(
            index,
            host=host,
            port=port,
            ready_callback=lambda h, p: print(
                f"gateway listening on {h}:{p}", flush=True
            ),
            max_batch_size=args.batch_size,
            max_wait_ms=args.wait_ms,
        )
    finally:
        close_index(index)


def cmd_serve(args: argparse.Namespace) -> int:
    if backend_needs_shards(args):
        return 2
    if args.listen:
        return _serve_gateway(args)

    from ..eval import Workbench
    from ..eval.harness import run_serving, serving_speedup, serving_table

    bench = Workbench()
    spec = laptop_spec(args, max(args.n_queries, 32))
    index = bench.build(spec)
    try:
        points = run_serving(
            index,
            bench.dataset(spec).queries,
            batch_sizes=(1,) if args.batch_size == 1 else (1, args.batch_size),
        )
        engine = index.engine_status()
    finally:
        close_index(index)
    title = f"Dynamic-batching serving ({args.dataset}, memory)"
    print(serving_table(points, title))
    if args.batch_size > 1:
        print(
            f"batched serving speedup over per-query serving: "
            f"{serving_speedup(points):.2f}x"
        )
    line = _engine_status_line(engine)
    if line:
        print(line)
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from ..eval import Workbench
    from ..loadgen import parse_mix, run_load

    if backend_needs_shards(args):
        return 2
    bench = Workbench()
    spec = laptop_spec(args, max(args.n_queries, 32))
    if args.connect:
        from ..serving.net import NetClient

        # The remote gateway owns the index; the harness only needs a
        # query pool drawn from the same deterministic dataset recipe.
        target = NetClient(args.connect)
    else:
        target = bench.build(spec)
    try:
        report = run_load(
            target,
            bench.dataset(spec).queries,
            arrival=args.arrival,
            rates=args.rates or None,
            requests_per_point=args.requests_per_point,
            max_batch_size=args.batch_size,
            max_wait_ms=args.wait_ms,
            mix=parse_mix(args.mix) if args.mix else None,
            seed=args.seed,
            p99_slo_ms=args.p99_slo_ms or None,
            trace=args.trace or None,
        )
    finally:
        close_index(target)
    if args.connect:
        shards_desc = f"gateway {args.connect}"
    elif args.shards > 1:
        shards_desc = f"{args.shards} shards ({args.shard_backend})"
    else:
        shards_desc = "unsharded"
    print(
        report.table(
            f"Open-loop load ({args.dataset}, {report.arrival} "
            f"arrivals, {shards_desc})"
        )
    )
    print(report.summary())
    print(
        f"under-load answers bitwise-identical: {report.identical} | "
        f"request accounting exact: {report.accounting_exact} "
        f"({report.checked_answers} answers checked)"
    )
    return 0 if (report.identical and report.accounting_exact) else 1
