"""Serving layer: sharded fan-out search + dynamic-batching front end.

This package turns the library into the shape of a server (see
``docs/architecture.md``):

* :class:`ShardedIndex` — partitions a dataset across per-shard
  indexes (any scenario), fans ``search(request)`` out through the
  :class:`ShardBackend` fleet, and merges per-query top-k across
  shards with one ``argpartition`` per row; exact over the union of
  shard candidates, bitwise identical across backends and to the
  unsharded index for a single shard.  Routes
  ``insert_batch``/``delete`` for the streaming scenario.
* :class:`ShardBackend` — the one fan-out: ``replicas >= 1`` replicas
  per shard of one registered kind (``"thread"``: the in-process
  object on a shared pool; ``"process"``: persistent local worker
  processes fed via ``save_index``/``load_index``; ``"socket"``:
  remote TCP workers — the two worker kinds one transport, a
  ``ShardServer`` reached through a ``ShardClient``), with
  least-loaded routing, transparent in-request failover
  (a shard with no sibling fails loudly with :class:`ReplicaDied`),
  and a background supervisor that respawns dead workers from shipped
  state off the search critical path.
* :class:`DynamicBatcher` — a request queue that accumulates single
  queries into micro-batches (size- or deadline-triggered; the
  ``max_wait_ms`` knob trades latency for throughput) and answers them
  through one ``index.search(request)`` call each.

Both compose: a batcher over a sharded index is the classic
DiskANN-server architecture — queue → batcher → sharded fan-out →
merge.  The :mod:`repro.serving.net` subpackage puts the network edge
on top: a versioned binary wire protocol, the one shard-worker
transport (``repro serve-shard`` TCP workers behind a ``"socket"``
backend, AF_UNIX workers behind a ``"process"`` one), and the asyncio
gateway (``experiment serve --listen``).
"""

from .backends import (
    SHARD_BACKENDS,
    ReplicaDied,
    ShardBackend,
    make_shard_backend,
    shard_backend_names,
    usable_cpu_count,
)
from .batcher import BatcherStats, DynamicBatcher
from .sharded import ShardedIndex, partition_rows

# Imported last: registers the "socket" replica kind into
# SHARD_BACKENDS (net modules depend on the ones above).
from . import net  # noqa: E402
from .net import Gateway, GatewayThread, NetClient

__all__ = [
    "Gateway",
    "GatewayThread",
    "NetClient",
    "net",
    "BatcherStats",
    "DynamicBatcher",
    "ReplicaDied",
    "SHARD_BACKENDS",
    "ShardBackend",
    "ShardedIndex",
    "make_shard_backend",
    "partition_rows",
    "shard_backend_names",
    "usable_cpu_count",
]
