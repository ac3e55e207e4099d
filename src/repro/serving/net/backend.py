"""The worker replica kinds, ``"socket"`` and ``"process"``: one
transport, a :class:`~repro.serving.net.worker.ShardServer` worker
reached through a :class:`~repro.serving.net.client.ShardClient`.

Registers both into :data:`~repro.serving.backends.SHARD_BACKENDS`.
A socket replica dials a remote ``repro serve-shard`` worker at a
configured ``host:port`` (the parent holds only addresses); a process
replica spawns a :class:`~repro.serving.net.worker.LocalShardWorker`
from the shard state the parent shipped, on an AF_UNIX socket inside
the backend's private (mode 0700) temporary directory — unlike a
loopback port, not open to every local process.

Both get exactly the routing / failover / supervisor policy every kind
has: a worker death surfaces as ``ReplicaDied`` mid-request, and the
supervisor's remediation is respawn, then reconnect-and-ping (the
process kind respawns its own worker; the socket kind runs an optional
external respawner hook, since the parent does not own a remote
machine's process table).
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import threading
from typing import List, Optional, Sequence

from ..backends import RESPAWN_TIMEOUT_S, SHARD_BACKENDS
from . import framing
from .client import ShardClient
from .worker import LocalShardWorker

#: The longest AF_UNIX socket path the kernel binds: ``sun_path`` holds
#: 108 bytes, the terminating NUL included.
SUN_PATH_MAX = 107


def short_socket_dir(name: str) -> str:
    """A new private (mode 0700) directory, under the first of
    ``$XDG_RUNTIME_DIR``, ``/tmp`` and ``/var/tmp`` where it can be
    made, whose path joined with ``name`` fits :data:`SUN_PATH_MAX`."""
    for root in (os.environ.get("XDG_RUNTIME_DIR"), "/tmp", "/var/tmp"):
        if not root or not os.path.isdir(root):
            continue
        # mkdtemp's directory name: the prefix plus 8 random characters.
        probe = os.path.join(root, "repro-XXXXXXXX", name)
        if len(os.fsencode(probe)) > SUN_PATH_MAX:
            continue
        try:
            return tempfile.mkdtemp(prefix="repro-", dir=root)
        except OSError:
            continue
    raise OSError(
        f"no directory can hold the AF_UNIX socket {name!r} within "
        f"{SUN_PATH_MAX} bytes"
    )


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
    # Encoded once per fan-out; one request per connection at a time,
    # so the id is moot.
    encode = staticmethod(
        lambda request: framing.encode_search_request(request, 0)
    )

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


class _ProcessReplica(_SocketReplica):
    """One local worker process serving one replica slot.

    All replicas of a shard map the same shipped directory (state is
    saved once per shard, not once per replica); each has its own
    worker on its own socket, ``<shard dir>-<replica>.sock``, so
    replicas fail — and fail over — one at a time.  When that path
    would not fit AF_UNIX's ``sun_path`` (a long ``TMPDIR``), the
    socket goes in a private directory of its own under a short root
    (:func:`short_socket_dir`), removed on :meth:`stop`.  Spawned
    lazily on the first search; the supervisor's respawner is the
    worker's own ``respawn``.
    """

    kind = "process"
    ships_state, remote = True, False

    def __init__(self, shard_id: int, replica_id: int, shard: object):
        self.shard_id, self.replica_id = shard_id, replica_id
        self.alive, self.restarts, self.in_flight = False, 0, 0
        self.lock = threading.Lock()
        self.endpoint = self._worker = self._client = self._respawner = None
        self._socket_dir: Optional[str] = None

    @property
    def pid(self) -> Optional[int]:
        return self._worker.pid if self._worker is not None else None

    def process_alive(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def spawn(self, dirpath: str) -> None:
        self.endpoint = f"{dirpath}-{self.replica_id}.sock"
        if len(os.fsencode(self.endpoint)) > SUN_PATH_MAX:
            name = os.path.basename(self.endpoint)
            self._socket_dir = short_socket_dir(name)
            self.endpoint = os.path.join(self._socket_dir, name)
        self._worker = LocalShardWorker(dirpath, self.endpoint, wait=False)
        self._respawner = functools.partial(
            self._worker.respawn, RESPAWN_TIMEOUT_S
        )
        self._client = ShardClient(self.endpoint)

    def wait_ready(self) -> None:
        self._worker.wait_ready(RESPAWN_TIMEOUT_S)

    def reload(self) -> None:
        self._client.reload()

    def stop(self) -> None:
        if self._worker is not None:
            self._client.close()
            self._worker.stop()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
        self.endpoint = self._worker = self._client = self._respawner = None
        self._socket_dir = None


SHARD_BACKENDS[_SocketReplica.kind] = _SocketReplica
SHARD_BACKENDS[_ProcessReplica.kind] = _ProcessReplica
