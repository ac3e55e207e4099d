"""The ``"socket"`` replica kind: remote TCP workers in the one fleet.

Registers :class:`_SocketReplica` into
:data:`~repro.serving.backends.SHARD_BACKENDS`, so a
:class:`~repro.serving.backends.ShardBackend` of kind ``"socket"``
answers each shard's ``search(request)`` from a remote worker (``repro
serve-shard``) reached at a configured ``host:port`` endpoint — the
parent never holds the shard state, only addresses.

Remote workers get exactly the routing / failover / supervisor policy
every other kind has: a worker death surfaces as ``ReplicaDied``
mid-request, and the supervisor's respawn step becomes
reconnect-and-ping (plus an optional external respawner hook, since
the parent does not own a remote machine's process table).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

from ..backends import SHARD_BACKENDS, _encode_request
from .client import ShardClient


def normalize_endpoints(
    endpoints: Optional[Sequence], num_shards: int, replicas: int = 1
) -> List[List[str]]:
    """Validate and shape the endpoint config into a
    ``[shard][replica] -> "host:port"`` matrix.

    Accepted forms: a flat list of ``num_shards`` strings
    (``replicas == 1``), or a list of ``num_shards`` entries each a
    string (replicated to every slot — N connections to one worker)
    or a list of exactly ``replicas`` strings.
    """
    from .worker import parse_hostport

    if endpoints is None:
        raise ValueError(
            "the socket backend requires endpoints (one host:port per shard)"
        )
    endpoints = list(endpoints)
    if len(endpoints) != num_shards:
        raise ValueError(
            f"got {len(endpoints)} endpoint entries for "
            f"{num_shards} shards"
        )
    matrix: List[List[str]] = []
    for s, entry in enumerate(endpoints):
        if isinstance(entry, str):
            row = [entry] * replicas
        else:
            row = [str(e) for e in entry]
            if len(row) != replicas:
                raise ValueError(
                    f"shard {s} has {len(row)} replica endpoints, "
                    f"expected {replicas}"
                )
        for endpoint in row:
            parse_hostport(endpoint)  # fail fast on malformed config
        matrix.append(row)
    return matrix


class _SocketReplica:
    """One remote worker serving one replica slot.

    Connections are lazy (the first request connects) and sticky.  The
    parent cannot observe a remote process table, so
    ``process_alive()`` is always ``True`` — death is detected
    *in-request* (``ReplicaDied`` marks the replica dead, failover
    retries a sibling) and the supervisor's remediation step is
    reconnect-and-ping.  Tests and external supervisors may attach a
    ``respawner`` callable (e.g. ``LocalShardWorker.respawn``) that
    runs before the reconnect, standing in for the machinery that
    restarts the remote process in a real deployment.
    """

    kind = "socket"
    ships_state, remote = False, True
    pid = None  # remote process: not ours to observe
    encode = staticmethod(_encode_request)

    def __init__(
        self, shard_id: int, replica_id: int, endpoint: str, respawner=None
    ) -> None:
        self.endpoint = str(endpoint)
        self.shard_id, self.replica_id = shard_id, replica_id
        self.alive, self.restarts, self.in_flight = True, 0, 0
        self._respawner = respawner
        self._client = ShardClient(endpoint)
        self.lock = threading.Lock()

    def process_alive(self) -> bool:
        # No cheap remote liveness check exists; report healthy and
        # let in-request ReplicaDied mark the replica dead, which is
        # what triggers the supervisor's respawn_and_verify.
        return True

    def submit(self, blob: bytes, pool=None) -> None:
        self._client.send(blob)

    def result(self):
        return self._client.recv("response")

    def respawn_and_verify(self, timeout: float) -> bool:
        """Remediate + verify: optional external respawn hook, then a
        fresh connection answering a health probe."""
        try:
            if self._respawner is not None:
                self._respawner()
            self._client.close()
            self._client.ping()
            return True
        except Exception:
            self._client.close()
            return False

    def stop(self) -> None:
        # The parent owns the connection, not the remote worker's
        # lifecycle: closing the fleet must not stop shared workers.
        self._client.close()


SHARD_BACKENDS[_SocketReplica.kind] = _SocketReplica
