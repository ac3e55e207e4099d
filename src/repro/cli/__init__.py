"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``profiles``
    List the synthetic dataset profiles and their calibration targets.
``demo``
    Train RPQ on a profile, build an index, and print recall vs PQ
    (``--batch-size N`` answers queries through the batched engine).
``experiment``
    A verb tree like ``index``; each flag lives on the verb that reads
    it.  ``paper <id>`` runs one row of the paper-artifact table
    (:data:`repro.eval.paper.PAPER`; ``--help`` lists the ids);
    ``batch`` / ``build`` measure the batched engine and lockstep
    construction; ``serve`` measures dynamic batching QPS vs latency,
    optionally over a sharded index (or, with ``--listen``, runs the
    network gateway); ``load`` is the open-loop load harness:
    Poisson/bursty arrivals, heterogeneous request mixes, the
    QPS-vs-p99 frontier and its knee.
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

This module only parses (the one table it reads is the paper-artifact
ids, for ``experiment paper``'s ``choices``); each sub-command's body
lives in ``repro.cli.demo`` / ``.experiment`` / ``.index`` and is
imported when the command runs.
"""

from __future__ import annotations

import argparse
from importlib import import_module
from typing import Callable, List, Optional


def _handler(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """``repro.cli.<module>.<name>``, imported when the command runs."""

    def call(args: argparse.Namespace) -> int:
        return getattr(import_module(f"{__name__}.{module}"), name)(args)

    return call


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

    # Flag groups shared between verbs: each verb lists the groups it
    # reads, so a flag another verb owns is a usage error, not ignored.
    # (argparse shares a parent's actions with its children, so a verb
    # with other defaults takes a fresh group, never `set_defaults`.)
    def dataset_flags(n_base: int = 800) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument("--dataset", default="sift")
        group.add_argument("--n-base", type=int, default=n_base)
        group.add_argument("--seed", type=int, default=0)
        return group

    def graph_flags(default: str = "vamana") -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(
            "--graph", choices=("hnsw", "nsg", "vamana"), default=default
        )
        return group

    dataset, graph = dataset_flags(), graph_flags()
    queries = argparse.ArgumentParser(add_help=False)
    queries.add_argument("--n-queries", type=int, default=20)
    fleet = argparse.ArgumentParser(add_help=False)
    fleet.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="partition the dataset across this many shards and answer "
        "queries through the fan-out ShardedIndex",
    )
    fleet.add_argument(
        "--shard-backend",
        choices=("thread", "process"),
        default="thread",
        help="where the shard fan-out runs: the in-process thread pool "
        "or persistent per-shard worker processes",
    )
    fleet.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="workers per shard (> 1 runs the replicated fleet: "
        "least-loaded routing, failover, background supervisor)",
    )

    p_profiles = sub.add_parser("profiles", help="list dataset profiles")
    p_profiles.add_argument("--measure-lid", action="store_true")
    p_profiles.add_argument("--n-base", type=int, default=1000)
    p_profiles.add_argument("--seed", type=int, default=0)
    p_profiles.set_defaults(func=_handler("demo", "cmd_profiles"))

    p_demo = sub.add_parser(
        "demo",
        parents=[dataset_flags(1000), graph_flags("hnsw"), queries, fleet],
        help="train RPQ and compare against PQ",
    )
    p_demo.add_argument("--scenario", choices=("memory", "hybrid"), default="memory")
    p_demo.add_argument("--chunks", type=int, default=8)
    p_demo.add_argument("--codewords", type=int, default=32)
    p_demo.add_argument("--beam", type=int, default=32)
    p_demo.add_argument("--epochs", type=int, default=4)
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
    p_demo.set_defaults(func=_handler("demo", "cmd_demo"))

    p_exp = sub.add_parser(
        "experiment", help="run a paper artifact or a serving measurement"
    )
    exp_sub = p_exp.add_subparsers(dest="name", required=True)

    def batch_size(help_text: str) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(
            "--batch-size", type=_positive_int, default=64, help=help_text
        )
        return group

    from ..eval.paper import PAPER

    p_paper = exp_sub.add_parser(
        "paper", help="run one table / figure of the paper's evaluation"
    )
    p_paper.add_argument(
        "id", choices=tuple(PAPER), help="artifact to regenerate"
    )
    p_paper.set_defaults(func=_handler("experiment", "cmd_paper"))

    p_batch = exp_sub.add_parser(
        "batch",
        parents=[
            dataset,
            queries,
            batch_size("largest batch size measured (beside 1 and 8)"),
        ],
        help="single-query loop vs batched requests",
    )
    p_batch.set_defaults(func=_handler("experiment", "cmd_batch"))

    p_xbuild = exp_sub.add_parser(
        "build",
        parents=[
            dataset,
            graph,
            batch_size("largest build batch size measured (beside 8)"),
        ],
        help="sequential vs lockstep graph construction",
    )
    p_xbuild.set_defaults(func=_handler("experiment", "cmd_build"))

    micro_batch = batch_size("max micro-batch size")
    p_serve = exp_sub.add_parser(
        "serve",
        parents=[dataset, graph, queries, fleet, micro_batch],
        help="dynamic-batching QPS vs latency, or (--listen) the gateway",
    )
    p_serve.add_argument(
        "--wait-ms",
        type=float,
        default=2.0,
        help="--listen: micro-batch deadline (max_wait_ms; the sweep "
        "measures 0 / 2 / 8 ms)",
    )
    p_serve.add_argument(
        "--listen",
        default="",
        help="instead of the benchmark sweep, start the asyncio gateway "
        "on HOST:PORT (or :PORT) and serve the wire protocol until "
        "SIGTERM/SIGINT",
    )
    p_serve.add_argument(
        "--dir",
        default="",
        help="--listen: serve this saved index directory (default: "
        "build a fresh memory index from the flags)",
    )
    p_serve.add_argument(
        "--endpoints",
        default="",
        help="--listen --dir: switch a saved sharded index onto the "
        "socket backend fanning out to these HOST:PORT workers "
        "(comma-separated, one per shard)",
    )
    p_serve.set_defaults(func=_handler("experiment", "cmd_serve"))

    p_load = exp_sub.add_parser(
        "load",
        parents=[dataset, graph, queries, fleet, micro_batch],
        help="open-loop load sweep: the QPS-vs-p99 frontier",
    )
    p_load.add_argument(
        "--arrival",
        choices=("poisson", "uniform", "bursty"),
        default="poisson",
        help="open-loop arrival process",
    )
    p_load.add_argument(
        "--rates",
        type=lambda text: [float(v) for v in text.split(",")],
        default=None,
        help="comma-separated offered QPS ladder (default: fractions "
        "of the measured closed-loop capacity)",
    )
    p_load.add_argument(
        "--requests-per-point",
        type=_positive_int,
        default=128,
        help="requests offered at each rate",
    )
    p_load.add_argument(
        "--wait-ms",
        type=float,
        default=2.0,
        help="micro-batch deadline (max_wait_ms)",
    )
    p_load.add_argument(
        "--mix",
        default="",
        help="request mix as name:k:beam:weight[,...] (default: the "
        "standard/light/heavy serving blend)",
    )
    p_load.add_argument(
        "--p99-slo-ms",
        type=float,
        default=0.0,
        help="p99 SLO bound a knee point must also satisfy (0 disables)",
    )
    p_load.add_argument(
        "--connect",
        default="",
        help="drive a running gateway at HOST:PORT over the network "
        "path instead of building an index in-process",
    )
    p_load.add_argument(
        "--trace",
        default="",
        help="replay this arrival-trace file (one offset-seconds per "
        "line) as the single measured point instead of sweeping the "
        "rate ladder",
    )
    p_load.set_defaults(func=_handler("experiment", "cmd_load"))

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
    p_shard.set_defaults(func=_handler("index", "cmd_serve_shard"))

    p_index = sub.add_parser(
        "index", help="declarative build / persist / serve workflow"
    )
    index_sub = p_index.add_subparsers(dest="action", required=True)

    p_build = index_sub.add_parser(
        "build",
        parents=[dataset, graph, queries],
        help="build an index from an IndexSpec and save it",
    )
    p_build.add_argument(
        "--spec", default="", help="JSON IndexSpec file (overrides flags)"
    )
    p_build.add_argument("--out", required=True, help="output directory")
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
    p_build.add_argument("--chunks", type=int, default=8)
    p_build.add_argument("--codewords", type=int, default=32)
    p_build.add_argument("--shards", type=_positive_int, default=1)
    p_build.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="workers per shard recorded in the saved spec",
    )
    p_build.set_defaults(func=_handler("index", "cmd_build"))

    p_migrate = index_sub.add_parser(
        "migrate",
        help="rewrite a saved index directory (e.g. a read-only "
        "format-1 one) in the current format",
    )
    p_migrate.add_argument("--dir", required=True, help="source directory")
    p_migrate.add_argument("--out", required=True, help="output directory")
    p_migrate.set_defaults(func=_handler("index", "cmd_migrate"))

    p_search = index_sub.add_parser(
        "search",
        parents=[dataset, queries],
        help="load a saved index and serve its spec'd queries; the "
        "dataset flags name the query set in --connect mode",
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
        "--replicas",
        type=_positive_int,
        default=0,
        help="sharded indexes: override the saved workers-per-shard "
        "count (default: keep whatever the directory recorded)",
    )
    p_search.set_defaults(func=_handler("index", "cmd_search"))

    p_describe = index_sub.add_parser(
        "describe", help="print a saved index directory's metadata"
    )
    p_describe.add_argument("--dir", required=True, help="index directory")
    p_describe.set_defaults(func=_handler("index", "cmd_describe"))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
