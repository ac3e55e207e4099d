"""The ``"socket"`` shard backend: fan-out to remote TCP workers.

Slots into the same :class:`~repro.serving.backends.ShardBackend`
seam as the thread/process backends, but each shard's
``search(request)`` is answered by a remote worker (``repro
serve-shard``) reached at a configured ``host:port`` endpoint —
the parent never holds the shard state, only addresses.

With ``replicas > 1`` the replication layer drives
:class:`_SocketReplica` rows instead, giving remote workers the same
least-loaded routing / in-request failover / supervisor re-admission
the process fleet has: a worker death surfaces as ``ReplicaDied``
mid-request, and the supervisor's respawn step becomes
reconnect-and-ping (plus an optional external respawner hook, since
the parent does not own a remote machine's process table).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

from ..backends import SHARD_BACKENDS, ShardBackend
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
        raise ValueError("the socket backend requires endpoints")
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


class SocketBackend(ShardBackend):
    """Unreplicated socket fan-out: one remote worker per shard.

    Connections are lazy (the first search connects) and sticky; a
    worker death propagates as ``ReplicaDied`` to the caller — with a
    single replica there is nowhere to fail over, exactly like a
    process-backend worker death resets that backend.  Fan-out runs
    one waiter thread per shard (they block on sockets, not the GIL).
    """

    name = "socket"

    def __init__(
        self,
        shards: Sequence[object],
        max_workers: Optional[int] = None,
        endpoints: Optional[Sequence] = None,
    ) -> None:
        super().__init__(shards, max_workers)
        matrix = normalize_endpoints(endpoints, len(self._shards), 1)
        self._clients = [ShardClient(row[0]) for row in matrix]
        self._threads_lock = threading.Lock()

    def search_all(self, request) -> List[object]:
        if len(self._clients) == 1:
            return [self._clients[0].search(request)]
        results: List[object] = [None] * len(self._clients)
        errors: List[Optional[BaseException]] = [None] * len(self._clients)

        def _one(s: int) -> None:
            try:
                results[s] = self._clients[s].search(request)
            except BaseException as exc:
                errors[s] = exc

        threads = [
            threading.Thread(target=_one, args=(s,), daemon=True)
            for s in range(len(self._clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    def fleet_status(self) -> List[dict]:
        return [
            {
                "shard": s,
                "replica": 0,
                "backend": self.name,
                "alive": True,
                "restarts": 0,
                "in_flight": 0,
                "pid": None,
                "endpoint": client.endpoint,
            }
            for s, client in enumerate(self._clients)
        ]

    def invalidate(self, shard: int) -> None:
        raise RuntimeError(
            "the 'socket' backend serves remote read-only workers; "
            "streaming writes cannot be re-shipped over the wire"
        )

    def close(self) -> None:
        for client in self._clients:
            client.close()


class _SocketReplica:
    """One remote worker in a replicated socket fleet.

    Implements the replica interface the replication layer drives
    (``alive``/``in_flight``/``search``/``respawn_and_verify``/...).
    The parent cannot observe a remote process table, so
    ``process_alive()`` is always ``True`` — death is detected
    *in-request* (``ReplicaDied`` marks the replica dead, failover
    retries a sibling) and the supervisor's remediation step is
    reconnect-and-ping.  Tests and external supervisors may attach a
    ``respawner`` callable (e.g. ``LocalShardWorker.respawn``) that
    runs before the reconnect, standing in for the machinery that
    restarts the remote process in a real deployment.
    """

    kind = "socket"

    def __init__(
        self,
        endpoint: str,
        shard_id: int,
        replica_id: int,
        respawner=None,
    ) -> None:
        self.endpoint = str(endpoint)
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.alive = True
        self.restarts = 0
        self.in_flight = 0
        self._respawner = respawner
        self._client = ShardClient(endpoint)

    @property
    def pid(self) -> Optional[int]:
        return None  # remote process: not ours to observe

    def process_alive(self) -> bool:
        # No cheap remote liveness check exists; report healthy and
        # let in-request ReplicaDied mark the replica dead, which is
        # what triggers the supervisor's respawn_and_verify.
        return True

    def search(self, request):
        return self._client.search(request)

    def reload(self) -> None:
        self._client.reload()

    def respawn_and_verify(self, timeout: float) -> bool:
        """Remediate + verify: optional external respawn hook, then a
        fresh connection answering a health probe."""
        try:
            if self._respawner is not None:
                self._respawner()
            self._client.close()
            self._client.ping()
            return True
        except BaseException:
            self._client.close()
            return False

    def stop(self) -> None:
        # The parent owns the connection, not the remote worker's
        # lifecycle: closing the fleet must not stop shared workers.
        self._client.close()


SHARD_BACKENDS[SocketBackend.name] = SocketBackend
