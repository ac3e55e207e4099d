"""``repro index <build|migrate|describe|search>`` and ``repro
serve-shard``: the declarative workflow over :mod:`repro.api`."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .shared import parse_endpoints


def cmd_serve_shard(args: argparse.Namespace) -> int:
    from ..serving.net import serve_shard

    return serve_shard(
        args.dir,
        host=args.host,
        port=args.port,
        ready_file=args.ready_file or None,
    )


def cmd_build(args: argparse.Namespace) -> int:
    from ..api import (
        DatasetSpec,
        GraphSpec,
        IndexSpec,
        QuantizerSpec,
        ScenarioSpec,
        ShardingSpec,
        build,
        save_index,
    )

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


def cmd_migrate(args: argparse.Namespace) -> int:
    from ..api import load_index, save_index

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


def cmd_describe(args: argparse.Namespace) -> int:
    from ..api import describe_index, saved_spec, storage_report

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


def cmd_search(args: argparse.Namespace) -> int:
    from ..api import SearchRequest, load_index
    from ..datasets import compute_ground_truth, load
    from ..metrics import recall_at_k
    from ..serving import ShardedIndex

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
        from ..serving.net import NetClient

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
            endpoints = parse_endpoints(args.endpoints)
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
