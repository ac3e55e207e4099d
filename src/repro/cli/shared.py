"""Helpers shared by the sub-command modules."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def backend_needs_shards(args: argparse.Namespace) -> bool:
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


def parse_endpoints(text: str) -> Optional[List[str]]:
    """``"host:1,host:2"`` -> ``["host:1", "host:2"]`` (``None`` when
    empty)."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def close_index(index) -> None:
    """Release what ``index`` owns (a fan-out's pool / workers, a
    client's socket); a plain scenario index owns nothing."""
    close = getattr(index, "close", None)
    if close is not None:
        close()


def laptop_spec(args: argparse.Namespace, n_queries: int, **sections):
    """The ``IndexSpec`` the ``demo`` / ``experiment`` flags describe:
    the ``--dataset`` profile at ``--n-base`` x ``n_queries``, the
    ``--graph`` kind (vamana where the verb has no such flag) at laptop
    scale, the fan-out of ``--shards`` / ``--shard-backend`` /
    ``--replicas`` where the verb has them, everything seeded by
    ``--seed``; ``sections`` (``quantizer=``, ``scenario=``) override
    the defaults of a memory index over PQ 8 x 32."""
    from ..api import DatasetSpec, IndexSpec, QuantizerSpec, ShardingSpec
    from ..eval.workbench import laptop_graph

    sections.setdefault("quantizer", QuantizerSpec(seed=args.seed))
    return IndexSpec(
        dataset=DatasetSpec(
            name=args.dataset,
            n_base=args.n_base,
            n_queries=n_queries,
            seed=args.seed,
        ),
        graph=laptop_graph(getattr(args, "graph", "vamana"), args.seed),
        sharding=ShardingSpec(
            num_shards=getattr(args, "shards", 1),
            backend=getattr(args, "shard_backend", "thread"),
            replicas=getattr(args, "replicas", 1),
        ),
        **sections,
    )
