"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``profiles``
    List the synthetic dataset profiles and their calibration targets.
``demo``
    Train RPQ on a profile, build an index, and print recall vs PQ
    (``--batch-size N`` answers queries through the batched engine).
``experiment``
    Run one of the paper-artifact drivers (table2, fig4, batch, build)
    or the serving-layer drivers (``serve`` — dynamic batching QPS vs
    latency, optionally over a sharded index; ``load`` — the open-loop
    load harness: Poisson/bursty arrivals, heterogeneous request
    mixes, the QPS-vs-p99 frontier and its knee) and print it.
``index``
    The declarative workflow (a thin wrapper over :mod:`repro.api`):
    ``index build`` constructs an index from a JSON ``IndexSpec`` (or
    flags) and persists it with ``save_index``; ``index search`` loads
    a saved directory and serves typed requests against it (or, with
    ``--connect HOST:PORT``, sends them to a running gateway);
    ``index describe`` prints a saved directory's metadata;
    ``index migrate`` rewrites one (e.g. a read-only format-1
    directory) in the current format.
``serve-shard``
    Boot a network shard worker from a persisted index directory and
    answer the versioned wire protocol over TCP until SIGTERM/SIGINT
    (draining in-flight requests before exit).  The serving side of
    the ``"socket"`` shard backend — see ``docs/architecture.md``,
    "Network tier".
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np


def _backend_needs_shards(args: argparse.Namespace) -> bool:
    """True (after printing the error) when ``--shard-backend`` was
    given without ``--shards > 1`` — silently ignoring it would let the
    user believe they measured a fan-out that never ran."""
    if args.shard_backend != "thread" and args.shards == 1:
        print(
            "--shard-backend requires --shards > 1 (an unsharded index "
            "has no fan-out to run in worker processes)",
            file=sys.stderr,
        )
        return True
    return False


def _parse_endpoints(text: str) -> Optional[List[str]]:
    """``"host:1,host:2"`` -> ``["host:1", "host:2"]`` (``None`` when
    empty)."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_serve_shard(args: argparse.Namespace) -> int:
    from .serving.net import serve_shard

    return serve_shard(
        args.dir,
        host=args.host,
        port=args.port,
        ready_file=args.ready_file or None,
    )


def _cmd_profiles(args: argparse.Namespace) -> int:
    from .datasets import PROFILES, lid_mle, load
    from .eval import format_table

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


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.float32 and args.scenario != "memory":
        print(
            "--float32 applies to the memory scenario only",
            file=sys.stderr,
        )
        return 2
    if _backend_needs_shards(args):
        return 2

    from .core import RPQ, RPQTrainingConfig
    from .datasets import compute_ground_truth, load
    from .eval import format_table
    from .graphs import build_hnsw, build_nsg, build_vamana
    from .metrics import recall_at_k
    from .quantization import ProductQuantizer

    data = load(args.dataset, n_base=args.n_base, n_queries=args.n_queries,
                seed=args.seed)
    builders = {
        "hnsw": lambda x: build_hnsw(x, m=8, ef_construction=48, seed=args.seed),
        "nsg": lambda x: build_nsg(x, knn_k=16, r=16, search_l=40),
        "vamana": lambda x: build_vamana(x, r=16, search_l=40, seed=args.seed),
    }
    graph = builders[args.graph](data.base)
    gt = compute_ground_truth(data.base, data.queries, k=10)

    config = RPQTrainingConfig(
        epochs=args.epochs, num_triplets=256, num_queries=12,
        records_per_query=6, beam_width=8, seed=args.seed,
    )
    rpq = RPQ(args.chunks, args.codewords, config=config, seed=args.seed)
    rpq.fit(data.base, graph, training_sample=data.train)
    pq = ProductQuantizer(args.chunks, args.codewords, seed=args.seed).fit(data.train)

    from .api import (
        DatasetSpec,
        GraphSpec,
        IndexSpec,
        ScenarioSpec,
        ShardingSpec,
        build,
    )
    from .eval.sweep import run_queries_batched

    scenario_params = {"storage_dtype": "float32"} if args.float32 else {}
    spec = IndexSpec(
        dataset=DatasetSpec(
            name=args.dataset,
            n_base=args.n_base,
            n_queries=args.n_queries,
            seed=args.seed,
        ),
        graph=GraphSpec(kind=args.graph, seed=args.seed),
        scenario=ScenarioSpec(
            kind="memory" if args.scenario == "memory" else "hybrid",
            params=scenario_params,
        ),
        sharding=ShardingSpec(
            num_shards=args.shards,
            backend=args.shard_backend,
            replicas=args.replicas,
        ),
    )
    shard_parts = shard_graphs = None
    if args.shards > 1:
        # Shard graphs depend only on the rows, so build them once and
        # share them across the PQ/RPQ comparison below.
        from .serving import partition_rows

        shard_parts = partition_rows(data.base.shape[0], args.shards)
        shard_graphs = [
            builders[args.graph](data.base[idx]) for idx in shard_parts
        ]
    rows = []
    for name, quantizer in (("PQ", pq), ("RPQ", rpq.quantizer)):
        # Everything constructs through the unified factory; the demo
        # only supplies its pre-built artifacts as overrides.
        index = build(
            spec,
            data=data.base,
            quantizer=quantizer,
            graph=None if args.shards > 1 else graph,
            shard_parts=shard_parts,
            shard_graphs=shard_graphs,
        )
        # Everything routes through the unified engine; --batch-size
        # only sets how many queries share each kernel call.
        results = run_queries_batched(
            index, data.queries, 10, args.beam, args.batch_size
        )
        recall = recall_at_k([r.ids for r in results], gt.ids)
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


def _engine_status_line(engine) -> str:
    """One summary line of hot-path amortizer activity for ``serve``.

    ``engine`` is an index's ``engine_status()``: a single dict, or a
    list of per-shard rows for sharded indexes (aggregated here; rows
    without the engine wiring are skipped).  Returns "" when there is
    nothing to report — e.g. the process backend, whose searches run in
    worker processes so the local counters stay at zero.
    """
    rows = engine if isinstance(engine, list) else [engine]
    hits = misses = reuses = created = 0
    for row in rows:
        if not row:
            continue
        cache = row.get("table_cache")
        if cache:
            hits += cache["hits"]
            misses += cache["misses"]
        pool = row.get("workspace_pool")
        if pool:
            reuses += pool["reuses"]
            created += pool["created"]
    lookups = hits + misses
    if not lookups and not created:
        return ""
    rate = hits / lookups if lookups else 0.0
    return (
        f"engine cache: table hit rate {rate:.1%} "
        f"({hits}/{lookups} rows), workspace reuses "
        f"{reuses}/{reuses + created}"
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .eval import format_table
    from .eval.harness import (
        run_batch_throughput,
        run_build_throughput,
        run_fig4,
        run_serving,
        run_table2,
        serving_speedup,
    )

    if args.name == "serve" and args.listen:
        # Gateway mode: stand up the asyncio network front end over an
        # index (saved directory, or built fresh from the flags) and
        # serve the wire protocol until SIGTERM/SIGINT.
        if _backend_needs_shards(args):
            return 2
        from .serving.net import parse_listen, run_gateway_blocking

        try:
            host, port = parse_listen(args.listen)
        except (ValueError, IndexError):
            print(
                f"--listen expects HOST:PORT or :PORT, got {args.listen!r}",
                file=sys.stderr,
            )
            return 2
        if args.dir:
            from .api import load_index

            index = load_index(args.dir)
            endpoints = _parse_endpoints(args.endpoints)
            if endpoints is not None:
                from .serving import ShardedIndex

                if not isinstance(index, ShardedIndex):
                    print(
                        f"{args.dir} holds an unsharded index; "
                        "--endpoints applies to sharded indexes only",
                        file=sys.stderr,
                    )
                    return 2
                index.set_backend("socket", endpoints=endpoints)
        else:
            from .eval.harness import make_index, make_quantizer, prepare

            prepared = prepare(
                args.dataset,
                args.graph,
                n_base=args.n_base,
                n_queries=max(args.n_queries, 32),
                seed=args.seed,
            )
            quantizer = make_quantizer("pq", prepared, 8, 32, seed=args.seed)
            index = make_index(
                "memory",
                prepared,
                quantizer,
                seed=args.seed,
                num_shards=args.shards,
                shard_backend=args.shard_backend,
                replicas=args.replicas,
            )
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
            close = getattr(index, "close", None)
            if close is not None:
                close()
    if args.name == "serve":
        if _backend_needs_shards(args):
            return 2
        batch_sizes = (
            (1,) if args.batch_size == 1 else (1, args.batch_size)
        )
        status: dict = {}
        points = run_serving(
            dataset_name=args.dataset,
            n_base=args.n_base,
            n_queries=max(args.n_queries, 32),
            batch_sizes=batch_sizes,
            num_shards=args.shards,
            shard_backend=args.shard_backend,
            replicas=args.replicas,
            graph_kind=args.graph,
            seed=args.seed,
            status=status,
        )
        rows = [p.as_row() for p in points]
        print(
            format_table(
                [
                    "max batch",
                    "max wait ms",
                    "shards",
                    "QPS",
                    "p50 ms",
                    "p99 ms",
                    "q wait ms",
                    "mean batch",
                ],
                rows,
                title=f"Dynamic-batching serving ({args.dataset}, memory)",
            )
        )
        if args.batch_size > 1:
            print(
                f"batched serving speedup over per-query serving: "
                f"{serving_speedup(points):.2f}x"
            )
        line = _engine_status_line(status.get("engine"))
        if line:
            print(line)
        return 0
    if args.name == "load":
        from .eval.harness import run_load
        from .loadgen import parse_mix

        if _backend_needs_shards(args):
            return 2
        report = run_load(
            dataset_name=args.dataset,
            n_base=args.n_base,
            n_queries=max(args.n_queries, 32),
            arrival=args.arrival,
            rates=args.rates or None,
            requests_per_point=args.requests_per_point,
            num_shards=args.shards,
            shard_backend=args.shard_backend,
            replicas=args.replicas,
            max_batch_size=args.batch_size,
            max_wait_ms=args.wait_ms,
            mix=parse_mix(args.mix) if args.mix else None,
            graph_kind=args.graph,
            seed=args.seed,
            p99_slo_ms=args.p99_slo_ms or None,
            connect=args.connect or None,
            trace=args.trace or None,
        )
        rows = [
            [
                round(p.offered_qps, 1),
                round(p.achieved_qps, 1),
                round(p.latency.p50_ms, 2),
                round(p.latency.p99_ms, 2),
                round(p.latency.p999_ms, 2),
                round(p.mean_queue_wait_ms, 2),
                f"{p.completed}/{p.failed}",
            ]
            for p in report.points
        ]
        if args.connect:
            shards_desc = f"gateway {args.connect}"
        elif args.shards > 1:
            shards_desc = f"{args.shards} shards ({args.shard_backend})"
        else:
            shards_desc = "unsharded"
        print(
            format_table(
                [
                    "offered QPS",
                    "achieved QPS",
                    "p50 ms",
                    "p99 ms",
                    "p999 ms",
                    "q wait ms",
                    "ok/fail",
                ],
                rows,
                title=(
                    f"Open-loop load ({args.dataset}, {report.arrival} "
                    f"arrivals, {shards_desc})"
                ),
            )
        )
        print(
            f"closed-loop capacity ~{report.capacity_qps:.1f} QPS | "
            + (
                f"knee ~{report.knee_qps:.1f} QPS, p99 at half-knee "
                f"{report.p99_at_half_knee_ms:.2f} ms"
                if report.knee_qps is not None
                else "no sustained operating point (knee below the "
                "lowest offered rate)"
            )
        )
        print(
            f"under-load answers bitwise-identical: {report.identical} | "
            f"request accounting exact: {report.accounting_exact} "
            f"({report.checked_answers} answers checked)"
        )
        return 0 if (report.identical and report.accounting_exact) else 1
    if args.name == "build":
        points = run_build_throughput(
            graph_kind=args.graph,
            dataset_name=args.dataset,
            batch_sizes=sorted({8, args.batch_size}),
            n_base=args.n_base,
            seed=args.seed,
        )
        rows = [
            [
                p.build_batch_size,
                round(p.sequential_seconds, 2),
                round(p.batched_seconds, 2),
                f"{p.speedup:.2f}x",
                "yes" if p.identical else "NO",
            ]
            for p in points
        ]
        print(
            format_table(
                ["build batch", "sequential s", "batched s", "speedup", "identical"],
                rows,
                title=f"Lockstep construction ({args.graph}, {args.dataset})",
            )
        )
        return 0
    if args.name == "batch":
        points = run_batch_throughput(
            dataset_name=args.dataset,
            n_base=args.n_base,
            n_queries=max(args.n_queries, args.batch_size),
            batch_sizes=sorted({1, 8, args.batch_size}),
            seed=args.seed,
        )
        rows = [
            [
                p.batch_size,
                round(p.single_qps, 1),
                round(p.batch_qps, 1),
                f"{p.speedup:.2f}x",
                round(p.recall_batch, 3),
            ]
            for p in points
        ]
        print(
            format_table(
                ["batch size", "single QPS", "batch QPS", "speedup", "recall@10"],
                rows,
                title=f"Batched engine throughput ({args.dataset})",
            )
        )
        return 0
    if args.name == "table2":
        out = run_table2(n_base=args.n_base, n_queries=args.n_queries,
                         seed=args.seed)
        datasets = list(out)
        rows = [
            ["two terms"] + [round(out[d][0], 3) for d in datasets],
            ["full Eq. 5"] + [round(out[d][1], 3) for d in datasets],
        ]
        print(format_table(["ranking"] + datasets, rows, title="Table 2"))
        return 0
    if args.name == "fig4":
        result = run_fig4(args.dataset, n_base=args.n_base, seed=args.seed)
        print(
            format_table(
                ["", "imbalance score"],
                [
                    ["before rotation", round(result.balance_before, 3)],
                    ["after rotation", round(result.balance_after, 3)],
                ],
                title=f"Fig. 4 case study ({args.dataset})",
            )
        )
        return 0
    print(f"unknown experiment {args.name!r}", file=sys.stderr)
    return 2


def _cmd_index(args: argparse.Namespace) -> int:
    from .api import (
        DatasetSpec,
        GraphSpec,
        IndexSpec,
        QuantizerSpec,
        ScenarioSpec,
        ShardingSpec,
        build,
        describe_index,
        load_index,
        save_index,
        saved_spec,
    )

    if args.action == "build":
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = IndexSpec.from_json(fh.read())
        else:
            spec = IndexSpec(
                dataset=DatasetSpec(
                    name=args.dataset,
                    n_base=args.n_base,
                    n_queries=args.n_queries,
                    seed=args.seed,
                ),
                graph=GraphSpec(kind=args.graph, seed=args.seed),
                quantizer=QuantizerSpec(
                    kind=args.quantizer,
                    num_chunks=args.chunks,
                    num_codewords=args.codewords,
                    seed=args.seed,
                ),
                scenario=ScenarioSpec(kind=args.scenario),
                sharding=ShardingSpec(
                    num_shards=args.shards, replicas=args.replicas
                ),
            )
        if spec.quantizer.kind == "catalyst":
            # Fail before the expensive build: Catalyst's MLP is
            # trainable state that quantization.serialization does not
            # persist, and `index build` always saves.
            print(
                "quantizer 'catalyst' cannot be persisted (see "
                "repro.quantization.serialization); pick pq/opq/lnc/rpq "
                "for `index build`",
                file=sys.stderr,
            )
            return 2
        index = build(spec)
        save_index(index, args.out, compress=args.compress)
        print(
            f"built scenario={spec.scenario.kind} "
            f"shards={spec.sharding.num_shards} "
            f"compress={args.compress} -> {args.out}"
        )
        return 0

    if args.action == "migrate":
        if os.path.realpath(args.out) == os.path.realpath(args.dir):
            print(
                "index migrate never rewrites in place: --out must differ "
                "from --dir",
                file=sys.stderr,
            )
            return 2
        save_index(load_index(args.dir), args.out)
        print(f"migrated {args.dir} -> {args.out}")
        return 0

    if args.action == "describe":
        from .api import storage_report

        meta = describe_index(args.dir)
        print(f"scenario: {meta['scenario']}")
        version = int(meta.get("format_version", 1))
        note = ' (read-only; run "repro index migrate")' if version < 2 else ""
        print(f"format_version: {version}{note}")
        for key, value in sorted(meta.get("state", {}).items()):
            print(f"  {key}: {value}")
        report = storage_report(args.dir)
        print(
            f"storage: layout={report['layout']} "
            f"compress={report['compress']}"
        )
        for name, size in sorted(report["components"].items()):
            print(f"  {name}: {size} bytes")
        print(f"  total: {report['total_bytes']} bytes")
        print(f"  vectors: {report['num_vectors']}")
        print(f"  bytes/vector: {report['bytes_per_vector']:.1f}")
        print(
            f"  codes: {report['codes_stored_bytes']} stored / "
            f"{report['codes_raw_bytes']} raw "
            f"(ratio {report['codes_compression_ratio']:.2f}x)"
        )
        spec = saved_spec(args.dir)
        if spec is not None:
            print("spec:")
            print(spec.to_json())
        return 0

    if args.action == "search":
        from .api import SearchRequest
        from .datasets import compute_ground_truth, load
        from .metrics import recall_at_k
        from .serving import ShardedIndex

        if bool(args.dir) == bool(args.connect):
            print(
                "index search needs exactly one of --dir (local) or "
                "--connect HOST:PORT (a running gateway)",
                file=sys.stderr,
            )
            return 2
        if args.connect:
            # Remote mode: the gateway owns the index; queries come
            # from the dataset flags (which must match the recipe the
            # server's index was built from for recall to mean much).
            from .serving.net import NetClient

            data = load(
                args.dataset,
                n_base=args.n_base,
                n_queries=args.n_queries,
                seed=args.seed,
            )
            request = SearchRequest(
                queries=data.queries, k=args.k, beam_width=args.beam
            )
            with NetClient(args.connect) as client:
                response = client.search(request)
            gt = compute_ground_truth(data.base, data.queries, k=args.k)
            recall = recall_at_k(list(response), gt.ids)
            print(
                f"{response.num_queries} queries | "
                f"mean hops {float(np.mean(response.hops)):.1f} | "
                f"recall@{args.k} {recall:.3f}"
            )
            return 0
        index = load_index(args.dir)
        if args.shard_backend:
            if not isinstance(index, ShardedIndex):
                print(
                    f"{args.dir} holds an unsharded index; "
                    "--shard-backend applies to sharded indexes only",
                    file=sys.stderr,
                )
                return 2
            if args.shard_backend == "socket":
                endpoints = _parse_endpoints(args.endpoints)
                if endpoints is None:
                    print(
                        "--shard-backend socket requires --endpoints "
                        "HOST:PORT[,HOST:PORT...] (one per shard, "
                        "each a running `repro serve-shard`)",
                        file=sys.stderr,
                    )
                    return 2
                index.set_backend("socket", endpoints=endpoints)
            else:
                index.set_backend(args.shard_backend)
        if args.replicas:
            if not isinstance(index, ShardedIndex):
                print(
                    f"{args.dir} holds an unsharded index; "
                    "--replicas applies to sharded indexes only",
                    file=sys.stderr,
                )
                return 2
            index.set_replicas(args.replicas)
        spec = getattr(index, "spec", None)
        if spec is None:
            print(f"{args.dir} has no spec.json", file=sys.stderr)
            return 2
        size = getattr(index, "num_vertices", None)
        if size is None:
            size = getattr(getattr(index, "graph", None), "num_vertices", None)
        if size is not None and size != spec.dataset.n_base:
            # The dataset section is only descriptive for indexes built
            # from a data= override (or hand-built and saved); queries
            # regenerated from it would score against a corpus the
            # index never saw.
            print(
                f"index holds {size} vectors but its spec describes "
                f"n_base={spec.dataset.n_base}; refusing to evaluate "
                "against a regenerated dataset (the index was likely "
                "built from explicit data rather than the spec)",
                file=sys.stderr,
            )
            return 2
        data = load(
            spec.dataset.name,
            n_base=spec.dataset.n_base,
            n_queries=spec.dataset.n_queries,
            seed=spec.dataset.seed,
        )
        request = SearchRequest(
            queries=data.queries,
            k=args.k,
            beam_width=args.beam,
            labels=args.label if spec.scenario.kind == "filtered" else None,
        )
        response = index.search(request)
        line = (
            f"{response.num_queries} queries | "
            f"mean hops {float(np.mean(response.hops)):.1f}"
        )
        if spec.scenario.kind != "filtered":
            gt = compute_ground_truth(data.base, data.queries, k=args.k)
            recall = recall_at_k(list(response), gt.ids)
            line += f" | recall@{args.k} {recall:.3f}"
        print(line)
        return 0

    print(f"unknown index action {args.action!r}", file=sys.stderr)
    return 2


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RPQ reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profiles = sub.add_parser("profiles", help="list dataset profiles")
    p_profiles.add_argument("--measure-lid", action="store_true")
    p_profiles.add_argument("--n-base", type=int, default=1000)
    p_profiles.add_argument("--seed", type=int, default=0)
    p_profiles.set_defaults(func=_cmd_profiles)

    p_demo = sub.add_parser("demo", help="train RPQ and compare against PQ")
    p_demo.add_argument("--dataset", default="sift")
    p_demo.add_argument("--graph", choices=("hnsw", "nsg", "vamana"), default="hnsw")
    p_demo.add_argument("--scenario", choices=("memory", "hybrid"), default="memory")
    p_demo.add_argument("--n-base", type=int, default=1000)
    p_demo.add_argument("--n-queries", type=int, default=20)
    p_demo.add_argument("--chunks", type=int, default=8)
    p_demo.add_argument("--codewords", type=int, default=32)
    p_demo.add_argument("--beam", type=int, default=32)
    p_demo.add_argument("--epochs", type=int, default=4)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--batch-size",
        type=_positive_int,
        default=1,
        help="answer queries in requests of this many rows",
    )
    p_demo.add_argument(
        "--float32",
        action="store_true",
        help="memory scenario: half-precision storage (float32 codewords, "
        "dataset encoding, and ADC tables)",
    )
    p_demo.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="partition the dataset across this many shards and answer "
        "queries through the fan-out ShardedIndex",
    )
    p_demo.add_argument(
        "--shard-backend",
        choices=("thread", "process"),
        default="thread",
        help="where the shard fan-out runs: the in-process thread pool "
        "or persistent per-shard worker processes",
    )
    p_demo.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="workers per shard (> 1 runs the replicated fleet: "
        "least-loaded routing, failover, background supervisor)",
    )
    p_demo.set_defaults(func=_cmd_demo)

    p_exp = sub.add_parser("experiment", help="run a paper-artifact driver")
    p_exp.add_argument(
        "name", choices=("table2", "fig4", "batch", "build", "serve", "load")
    )
    p_exp.add_argument("--dataset", default="sift")
    p_exp.add_argument("--graph", choices=("hnsw", "nsg", "vamana"), default="vamana")
    p_exp.add_argument("--n-base", type=int, default=800)
    p_exp.add_argument("--n-queries", type=int, default=20)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--batch-size",
        type=_positive_int,
        default=64,
        help="largest (build) batch size for the 'batch'/'build' "
        "experiments; max micro-batch size for 'serve'",
    )
    p_exp.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="'serve' experiment: fan the index out across this many shards",
    )
    p_exp.add_argument(
        "--shard-backend",
        choices=("thread", "process"),
        default="thread",
        help="'serve' experiment: shard-execution backend for the fan-out",
    )
    p_exp.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="'serve' experiment: workers per shard (> 1 serves through "
        "the replicated fleet)",
    )
    p_exp.add_argument(
        "--arrival",
        choices=("poisson", "uniform", "bursty"),
        default="poisson",
        help="'load' experiment: open-loop arrival process",
    )
    p_exp.add_argument(
        "--rates",
        type=lambda text: [float(v) for v in text.split(",")],
        default=None,
        help="'load' experiment: comma-separated offered QPS ladder "
        "(default: fractions of the measured closed-loop capacity)",
    )
    p_exp.add_argument(
        "--requests-per-point",
        type=_positive_int,
        default=128,
        help="'load' experiment: requests offered at each rate",
    )
    p_exp.add_argument(
        "--wait-ms",
        type=float,
        default=2.0,
        help="'load' experiment: micro-batch deadline (max_wait_ms)",
    )
    p_exp.add_argument(
        "--mix",
        default="",
        help="'load' experiment: request mix as name:k:beam:weight[,...] "
        "(default: the standard/light/heavy serving blend)",
    )
    p_exp.add_argument(
        "--p99-slo-ms",
        type=float,
        default=0.0,
        help="'load' experiment: p99 SLO bound a knee point must also "
        "satisfy (0 disables)",
    )
    p_exp.add_argument(
        "--listen",
        default="",
        help="'serve' experiment: instead of the benchmark sweep, start "
        "the asyncio gateway on HOST:PORT (or :PORT) and serve the wire "
        "protocol until SIGTERM/SIGINT",
    )
    p_exp.add_argument(
        "--dir",
        default="",
        help="'serve --listen': serve this saved index directory "
        "(default: build a fresh memory index from the flags)",
    )
    p_exp.add_argument(
        "--endpoints",
        default="",
        help="'serve --listen --dir': switch a saved sharded index onto "
        "the socket backend fanning out to these HOST:PORT workers "
        "(comma-separated, one per shard)",
    )
    p_exp.add_argument(
        "--connect",
        default="",
        help="'load' experiment: drive a running gateway at HOST:PORT "
        "over the network path instead of building an index in-process",
    )
    p_exp.add_argument(
        "--trace",
        default="",
        help="'load' experiment: replay this arrival-trace file (one "
        "offset-seconds per line) as the single measured point instead "
        "of sweeping the rate ladder",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_shard = sub.add_parser(
        "serve-shard",
        help="serve a saved index directory over TCP (the socket shard "
        "backend's worker side)",
    )
    p_shard.add_argument("--dir", required=True, help="index directory")
    p_shard.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    p_shard.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (0 picks a free port; the chosen port is "
        "printed as 'listening on HOST:PORT')",
    )
    p_shard.add_argument(
        "--ready-file",
        default="",
        help="also write the bound HOST:PORT to this file once "
        "listening (for scripted orchestration)",
    )
    p_shard.set_defaults(func=_cmd_serve_shard)

    p_index = sub.add_parser(
        "index", help="declarative build / persist / serve workflow"
    )
    index_sub = p_index.add_subparsers(dest="action", required=True)

    p_build = index_sub.add_parser(
        "build", help="build an index from an IndexSpec and save it"
    )
    p_build.add_argument(
        "--spec", default="", help="JSON IndexSpec file (overrides flags)"
    )
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.add_argument("--dataset", default="sift")
    p_build.add_argument(
        "--graph", choices=("hnsw", "nsg", "vamana"), default="vamana"
    )
    p_build.add_argument(
        "--scenario",
        choices=("memory", "hybrid", "streaming", "filtered", "l2r"),
        default="memory",
    )
    p_build.add_argument(
        "--quantizer",
        choices=("pq", "opq", "lnc", "catalyst", "rpq"),
        default="pq",
    )
    p_build.add_argument("--n-base", type=int, default=800)
    p_build.add_argument("--n-queries", type=int, default=20)
    p_build.add_argument("--chunks", type=int, default=8)
    p_build.add_argument("--codewords", type=int, default=32)
    p_build.add_argument("--shards", type=_positive_int, default=1)
    p_build.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="workers per shard recorded in the saved spec",
    )
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument(
        "--compress",
        action="store_true",
        help="entropy-code the PQ code matrices (exact round-trip is "
        "validated at save time)",
    )
    p_build.set_defaults(func=_cmd_index)

    p_migrate = index_sub.add_parser(
        "migrate",
        help="rewrite a saved index directory (e.g. a read-only "
        "format-1 one) in the current format",
    )
    p_migrate.add_argument("--dir", required=True, help="source directory")
    p_migrate.add_argument("--out", required=True, help="output directory")
    p_migrate.set_defaults(func=_cmd_index)

    p_search = index_sub.add_parser(
        "search", help="load a saved index and serve its spec'd queries"
    )
    p_search.add_argument("--dir", default="", help="index directory")
    p_search.add_argument(
        "--connect",
        default="",
        help="send the queries to a running gateway at HOST:PORT "
        "instead of loading --dir locally",
    )
    p_search.add_argument("--k", type=_positive_int, default=10)
    p_search.add_argument("--beam", type=_positive_int, default=32)
    p_search.add_argument(
        "--label",
        type=int,
        default=0,
        help="filtered scenario: target label for every query",
    )
    p_search.add_argument(
        "--shard-backend",
        choices=("thread", "process", "socket"),
        default="",
        help="sharded indexes: override the saved fan-out backend "
        "(default: keep whatever the directory recorded); 'socket' "
        "also needs --endpoints",
    )
    p_search.add_argument(
        "--endpoints",
        default="",
        help="socket backend: comma-separated HOST:PORT worker "
        "endpoints, one per shard (each a running `repro serve-shard` "
        "over that shard's directory)",
    )
    p_search.add_argument(
        "--dataset",
        default="sift",
        help="--connect mode: dataset profile the queries come from",
    )
    p_search.add_argument("--n-base", type=int, default=800)
    p_search.add_argument("--n-queries", type=int, default=20)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument(
        "--replicas",
        type=_positive_int,
        default=0,
        help="sharded indexes: override the saved workers-per-shard "
        "count (default: keep whatever the directory recorded)",
    )
    p_search.set_defaults(func=_cmd_index)

    p_describe = index_sub.add_parser(
        "describe", help="print a saved index directory's metadata"
    )
    p_describe.add_argument("--dir", required=True, help="index directory")
    p_describe.set_defaults(func=_cmd_index)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
