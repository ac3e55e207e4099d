"""The network serving tier: wire protocol, remote workers, gateway.

Three layers (see ``docs/architecture.md``, "Network tier"):

* :mod:`~repro.serving.net.framing` — the length-prefixed, versioned
  binary frame codec every peer in the repo speaks (one protocol
  definition repo-wide);
* :mod:`~repro.serving.net.worker` / :mod:`~repro.serving.net.client`
  / :mod:`~repro.serving.net.backend` — the one shard-worker
  transport: a ``ShardServer`` worker (``repro serve-shard`` on TCP,
  or a locally spawned ``LocalShardWorker`` on an AF_UNIX socket), the
  ``ShardClient`` that reaches it, and the ``"socket"`` and
  ``"process"`` replica kinds built on the two (registered into
  ``SHARD_BACKENDS`` on import);
* :mod:`~repro.serving.net.gateway` — the asyncio TCP front door
  (``experiment serve --listen``) multiplexing many client
  connections onto the :class:`~repro.serving.batcher.DynamicBatcher`,
  plus the blocking :class:`~repro.serving.net.client.NetClient`.
"""

from . import framing
from .backend import normalize_endpoints
from .client import NetClient, ShardClient
from .gateway import (
    Gateway,
    GatewayThread,
    parse_listen,
    run_gateway_blocking,
)
from .worker import (
    LocalShardWorker,
    ShardServer,
    ShardService,
    parse_hostport,
    serve_shard,
    wait_for_port,
)

__all__ = [
    "framing",
    "normalize_endpoints",
    "NetClient",
    "ShardClient",
    "Gateway",
    "GatewayThread",
    "parse_listen",
    "run_gateway_blocking",
    "LocalShardWorker",
    "ShardServer",
    "ShardService",
    "parse_hostport",
    "serve_shard",
    "wait_for_port",
]
