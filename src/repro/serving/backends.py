"""The one fan-out: a ``[shard][replica]`` fleet of N >= 1 replicas.

:class:`~repro.serving.sharded.ShardedIndex` owns the merge, the
global-id mapping, and the write-path routing; *where shard s runs and
what happens when that place dies* is decided here and nowhere else.
:class:`ShardBackend` is the single concrete fan-out — fleet lifecycle,
ship / re-ship of dirty shards, least-loaded routing, in-request
failover, supervisor, ``fleet_status`` — over three replica kinds
registered by name in :data:`SHARD_BACKENDS`:

* ``"thread"`` (:class:`_ThreadReplica`) — the live in-process shard
  object, searched on a shared pool.  Shard searches are read-only
  NumPy, which releases the GIL in the hot loops, so threads overlap
  those portions; the Python-level beam loop still serializes on the
  GIL.  Runs in the parent, so it cannot die and its pool is capped at
  the usable CPU count.
* ``"process"`` (:class:`repro.serving.net.backend._ProcessReplica`) —
  a persistent local worker process.  Each shard's state is shipped
  once through :func:`repro.api.save_index` into a temporary directory
  shared by all of that shard's replicas; a spawn-context worker maps
  it back (no state is inherited, only the directory path crosses the
  ``Process`` boundary) and serves it on an AF_UNIX socket in that
  directory.  One GIL per worker: the whole search runs in parallel.
* ``"socket"`` (:class:`repro.serving.net.backend._SocketReplica`) —
  a remote ``repro serve-shard`` worker reached over TCP at a
  configured ``host:port``.

The two worker kinds are one transport, registered by
:mod:`repro.serving.net`: the same :class:`~repro.serving.net.worker.
ShardServer` worker loop reached through the same
:class:`~repro.serving.net.client.ShardClient`, speaking the shared
frame codec (:mod:`repro.serving.net.framing`), which carries
float64/int64 arrays as raw bytes.  Results are bitwise identical
across kinds and replica counts: the persistence layer round-trips
every array exactly and the engine is deterministic — so the choice is
purely a wall-clock and availability decision.

Two failure behaviours are decided here, once:

1. *A shard with no sibling to fail over to fails the request loudly.*
   With ``replicas == 1`` a worker death — and every request until the
   worker is re-admitted — raises :class:`ReplicaDied`, never a padded
   answer.  With ``replicas >= 2`` the call retries transparently on a
   sibling; only the loss of *every* replica of a shard degrades to a
   padded merge (``None`` in :meth:`ShardBackend.search_all`).
2. *The supervisor is the one recovery path.*  A dead worker of any
   fleet size is respawned from the already-shipped state by a
   background thread and re-admitted after a ``ping``, off the request
   path.  Kinds that cannot die (thread) start no supervisor.

For the streaming scenario, writes keep landing on the parent's
in-process shard objects; the router marks mutated shards via
:meth:`ShardBackend.invalidate` and kinds that ship state re-ship it
to every live replica before the next search.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

#: How long the supervisor waits for a respawned worker to load its
#: state and answer the health probe before declaring the respawn
#: failed (and retrying on the next tick).
RESPAWN_TIMEOUT_S = 60.0


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count`` reports the host's cores even when the process is
    pinned to fewer (``taskset``, cgroup cpusets, container quotas);
    sizing a pool from it oversubscribes the usable cores.  Prefer the
    scheduler affinity mask where the platform has one.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class ReplicaDied(RuntimeError):
    """A replica's execution substrate died (dead process or closed
    socket) — distinct from an application error the search itself
    raised.  Only this failure mode triggers in-request failover."""


class _RemoteTraceback(Exception):
    """Carrier for a worker-side traceback, chained as ``__cause__`` of
    the re-raised exception so the remote frames appear in the parent's
    traceback (the ``concurrent.futures.process`` idiom)."""

    def __init__(self, tb: str) -> None:
        self.tb = tb

    def __str__(self) -> str:
        return "\n" + self.tb


def _raise_worker_error(payload: BaseException) -> None:
    """Re-raise a worker exception with its remote traceback attached.

    Shipping an exception across a transport discards its traceback;
    the worker formats it into ``remote_traceback`` before sending, and
    the parent chains it here so the failing shard-side frames are
    visible instead of an opaque ``raise payload``.
    """
    tb = getattr(payload, "remote_traceback", None)
    if tb:
        payload.__cause__ = _RemoteTraceback(tb)
    raise payload


def _unwrap_reply(kind: str, payload, expected: str, who: str):
    """The payload of an ``expected``-kind worker reply.

    A worker-side error re-raises with its remote traceback; any other
    kind (a stale peer answering a message this build no longer
    speaks) is a protocol violation, never a decoded object.
    """
    from .net.framing import ProtocolError

    if kind == "error":
        _raise_worker_error(payload)
    if kind != expected:
        raise ProtocolError(
            f"{who} answered {kind!r}, expected {expected!r}"
        )
    return payload


# ----------------------------------------------------------------------
# Replica kinds.  Duck-typed: ``alive`` / ``restarts`` / ``in_flight``
# bookkeeping (guarded by the backend's fleet lock), a one-in-flight
# ``lock`` held from ``submit`` to ``result``, and two class flags the
# backend reads its policy from — ``ships_state`` (the parent persists
# each shard, starts the workers with ``spawn`` + ``wait_ready`` and
# re-ships on write with ``reload``) and ``remote`` (workers live at
# endpoints the parent does not own).  A kind with neither runs in the
# parent: it cannot die and its pool is CPU-capped.
# ----------------------------------------------------------------------


class _ThreadReplica:
    """A replica slot over the live in-process shard object.

    Thread replicas share the parent's state (searches are read-only),
    so there is nothing to spawn, re-ship, or crash — with
    ``replicas > 1`` they exist so concurrent callers spread over
    slots the same way they do for workers.
    """

    kind = "thread"
    ships_state = remote = False
    pid = endpoint = None
    encode = staticmethod(lambda request: request)

    def __init__(self, shard_id: int, replica_id: int, shard: object):
        self._shard = shard
        self.shard_id, self.replica_id = shard_id, replica_id
        self.alive, self.restarts, self.in_flight = True, 0, 0
        self.lock = threading.Lock()

    def submit(self, request, pool) -> None:
        # Width 1 (no pool) runs inline in result(): a one-thread pool
        # adds dispatch overhead for zero overlap.
        future = pool and pool.submit(self._shard.search, request)
        self._job = request, future

    def result(self):
        request, future = self._job
        if future is None:
            return self._shard.search(request)
        return future.result()

    def stop(self) -> None:
        pass


def _shutdown_fleet(fleet, stop_event, tmpdir) -> None:
    """Stop the supervisor and every replica and remove the shipped
    state (GC-safe: takes no backend reference; an abandoned pool's
    idle threads exit on their own when the executor is collected)."""
    stop_event.set()
    for row in fleet:
        for replica in row:
            try:
                replica.stop()
            except Exception:
                pass
    if tmpdir is not None:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _supervise(backend_ref, stop_event, interval: float) -> None:
    """Supervisor loop body (module-level + weakref so the daemon
    thread never keeps an abandoned backend alive)."""
    while not stop_event.wait(interval):
        backend = backend_ref()
        if backend is None:
            return
        try:
            backend._heal()
        except Exception:
            # The supervisor must survive anything — a failed heal pass
            # is retried on the next tick.
            pass
        finally:
            del backend


class ShardBackend:
    """Executes one ``search(request)`` per shard over a replica fleet.

    Parameters
    ----------
    shards:
        The per-shard indexes (the live read-path state for thread
        replicas; the source persisted once per shard for process
        replicas; unused by socket replicas, whose workers boot from
        their own directories).
    max_workers:
        Fan-out pool width for the thread kind (default: one thread
        per shard, capped at the *usable* CPU count — see
        :func:`usable_cpu_count`; a resolved width of 1 never builds a
        pool).  Worker kinds ignore it: their fan-out writes every
        transport and then reads every transport from the calling
        thread, since it only ever blocks on file descriptors.
    replicas:
        Replica slots per shard (>= 1).
    kind:
        The registered replica kind: ``"thread"``, ``"process"`` or
        ``"socket"``.
    probe_interval_s:
        Supervisor tick: how often dead workers are detected and
        respawned in the background.  Worst-case re-admission delay is
        this plus one worker spawn.
    endpoints:
        ``"socket"`` only: per-shard worker addresses, each entry a
        ``"host:port"`` string or a list of them (one per replica
        slot; see :func:`repro.serving.net.backend.normalize_endpoints`).
    """

    def __init__(
        self,
        shards: Sequence[object],
        max_workers: Optional[int] = None,
        replicas: int = 1,
        kind: str = "thread",
        probe_interval_s: float = 0.5,
        endpoints: Optional[Sequence] = None,
    ) -> None:
        if kind not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {kind!r}; "
                f"expected one of {shard_backend_names()}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._shards = list(shards)
        self._kind = SHARD_BACKENDS[kind]
        #: what ``ShardedIndex.backend`` / ``set_backend`` speak
        self.name = kind
        self.replicas = int(replicas)
        self.probe_interval_s = float(probe_interval_s)
        if self._kind.remote:
            from .net.backend import normalize_endpoints

            targets = normalize_endpoints(
                endpoints, len(self._shards), self.replicas
            )
        elif endpoints is not None:
            raise ValueError(
                f"endpoints only apply to the 'socket' backend, not {kind!r}"
            )
        else:
            targets = [[shard] * self.replicas for shard in self._shards]
        self._fleet = [
            [self._kind(s, r, target) for r, target in enumerate(row)]
            for s, row in enumerate(targets)
        ]
        # Only a kind that computes in the parent needs a pool, and
        # only it is capped by the CPUs the parent may run on.
        in_parent = not (self._kind.ships_state or self._kind.remote)
        self._width = (
            min(len(self._shards), max_workers or usable_cpu_count())
            if in_parent
            else 1
        )
        self._supervised = not in_parent
        self._fleet_lock = threading.Lock()  # replica bookkeeping
        self._start_lock = threading.Lock()  # fleet start / re-ship
        self._started = False
        self._dirty: set = set()
        self._tmpdir: Optional[str] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._finalizer = None

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def _ship(self, shard: int) -> str:
        """Persist ``shard`` where all of its replicas map it: one save
        per shard (ship once, boot N times, one shared page cache)."""
        from ..api import save_index

        dirpath = os.path.join(self._tmpdir, f"shard_{shard:03d}")
        save_index(self._shards[shard], dirpath)
        return dirpath

    def _ensure_fleet(self) -> None:
        """Start the fleet on first use; re-ship dirty shards after."""
        with self._start_lock:  # concurrent first searches start it once
            if not self._started:
                self._start_fleet()
            elif self._dirty:
                self._flush_dirty()

    def _start_fleet(self) -> None:
        self._stop_event = threading.Event()
        try:
            if self._kind.ships_state:
                self._tmpdir = tempfile.mkdtemp(prefix="repro-shard-backend-")
                dirs = [self._ship(s) for s in range(len(self._shards))]
                # Boot every worker, then wait for every worker: the
                # interpreter starts overlap.
                for row, dirpath in zip(self._fleet, dirs):
                    for replica in row:
                        replica.spawn(dirpath)
                for row in self._fleet:
                    for replica in row:
                        replica.wait_ready()
                        replica.alive = True
            if self._width > 1:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._width,
                    thread_name_prefix="repro-shard",
                )
        except BaseException:
            # A failed start (an unpersistable shard raising in
            # save_index, a worker dying during load) must not leak the
            # temp state or leave half-booted workers behind.
            self.close()
            raise
        # The start shipped current state; earlier writes are moot.
        self._dirty.clear()
        self._started = True
        # Call sites that never close() must not leak workers or temp
        # state: tie the shutdown to this backend's GC.
        self._finalizer = weakref.finalize(
            self, _shutdown_fleet, self._fleet, self._stop_event, self._tmpdir
        )
        if self._supervised:
            self._supervisor = threading.Thread(
                target=_supervise,
                args=(weakref.ref(self), self._stop_event, self.probe_interval_s),
                name="repro-replica-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def _heal(self) -> None:
        """One supervisor pass: detect dead replicas, respawn them from
        the shipped state, verify with a health probe, re-admit."""
        for row in self._fleet:
            for replica in row:
                if self._stop_event.is_set():
                    return
                if replica.alive and replica.process_alive():
                    continue
                with self._fleet_lock:
                    replica.alive = False
                # Under the replica's lock: a caller that picked this
                # replica before it died must not write a half-swapped
                # transport.
                with replica.lock:
                    healed = replica.respawn_and_verify(RESPAWN_TIMEOUT_S)
                if healed:
                    with self._fleet_lock:
                        replica.alive = True
                        replica.restarts += 1

    def invalidate(self, shard: int) -> None:
        """Note that ``shard``'s state changed (streaming write path).

        Kinds that ship state re-ship it before the next
        :meth:`search_all`; the thread kind reads live objects and
        needs no action; remote workers boot from their *own*
        directories, so streaming writes are incompatible.
        """
        if self._kind.remote:
            raise RuntimeError(
                f"the {self.name!r} backend serves remote read-only "
                "workers; streaming writes cannot be re-shipped over "
                "the wire"
            )
        if self._kind.ships_state:
            self._dirty.add(int(shard))

    def _flush_dirty(self) -> None:
        for s in sorted(self._dirty):
            try:
                self._ship(s)
            except BaseException:
                # Unsaveable state: every replica may be stale or
                # mixed; tear down so the next search re-ships and
                # respawns the fleet from scratch.
                self.close()
                raise
            for replica in self._fleet[s]:
                if not replica.alive:
                    continue  # the supervisor respawns it from this save
                with replica.lock:
                    try:
                        replica.reload()
                    except ReplicaDied:
                        # A liveness event, not a request failure: out
                        # of rotation until the supervisor respawns it.
                        with self._fleet_lock:
                            replica.alive = False
        self._dirty.clear()

    def close(self) -> None:
        """Release workers/pool/temp state (idempotent); the next
        search starts a fresh fleet from freshly shipped state."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
            self._supervisor = None
        _shutdown_fleet(self._fleet, self._stop_event, self._tmpdir)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._kind.ships_state:
            with self._fleet_lock:
                for row in self._fleet:
                    for replica in row:
                        replica.alive = False
        self._pool = self._tmpdir = None
        self._started = False

    # ------------------------------------------------------------------
    # Routing: one scatter-then-gather loop for every kind
    # ------------------------------------------------------------------
    def _scatter(self, shard: int, wire):
        """Submit on the least-loaded healthy replica of ``shard``
        (ties to the lowest replica id) and return it with its lock
        held and a reply owed — or ``None`` when the whole replica set
        is down.  A replica that dies at submit is dropped from
        rotation and a sibling tried."""
        while True:
            with self._fleet_lock:
                healthy = [r for r in self._fleet[shard] if r.alive]
                if not healthy:
                    return None
                replica = min(
                    healthy, key=lambda r: (r.in_flight, r.replica_id)
                )
                replica.in_flight += 1
            replica.lock.acquire()
            try:
                replica.submit(wire, self._pool)
                return replica
            except ReplicaDied:
                self._release(replica, dead=True)
            except BaseException:
                self._release(replica, dead=self._supervised)
                raise

    def _release(self, replica, dead: bool) -> None:
        replica.lock.release()
        with self._fleet_lock:
            replica.in_flight -= 1
            if dead:
                replica.alive = False

    def search_all(self, request) -> List[object]:
        """One :class:`~repro.api.SearchResponse` per shard, in shard
        order.

        Every shard's request is written before any reply is read, on
        locks taken in shard order; a replica that dies mid-request is
        dropped from rotation and its shard retried on a sibling in the
        next round — after every other lock is released, so failover
        never waits on a lock while holding one.  Application errors
        re-raise (every sibling would fail identically), but only
        after every owed reply is read, so no transport is left with a
        stale reply queued.  A ``None`` entry means the shard lost
        every one of its ``replicas >= 2`` replicas and the router's
        merge pads it; a shard with no sibling to fail over to raises
        :class:`ReplicaDied` instead.
        """
        self._ensure_fleet()
        wire = self._kind.encode(request)
        results: List[object] = [None] * len(self._shards)
        owed: Dict[int, object] = {}
        failure: Optional[BaseException] = None
        todo: Sequence[int] = range(len(self._shards))
        try:
            while todo:
                for s in todo:
                    owed[s] = self._scatter(s, wire)
                retry = []
                for s in todo:
                    replica = owed.pop(s)
                    if replica is None:
                        if self.replicas == 1:
                            failure = failure or ReplicaDied(
                                f"the only worker of shard {s} died and "
                                "is not re-admitted yet; there is no "
                                "sibling to fail over to"
                            )
                        continue
                    # Until its reply is read a worker replica is
                    # wedged: anything but a clean read retires it.
                    dead = self._supervised
                    try:
                        results[s] = replica.result()
                        dead = False
                    except ReplicaDied:
                        retry.append(s)
                    except Exception as exc:
                        dead = False  # the request's fault, not the worker's
                        failure = failure or exc
                    finally:
                        self._release(replica, dead)
                todo = retry
        except BaseException:
            # Interrupted mid-fan-out (Ctrl-C): replies are still
            # queued on the held replicas and a later search would read
            # them as its own.  Retire them; the supervisor respawns.
            for replica in owed.values():
                if replica is not None:
                    self._release(replica, self._supervised)
            raise
        if failure is not None:
            raise failure
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fleet_status(self) -> List[dict]:
        """Per-replica rows, one shape for every kind and replica
        count: ``pid`` and ``endpoint`` are the process kind's worker
        pid and AF_UNIX socket path (``None`` until it is spawned);
        ``endpoint`` is the socket kind's ``host:port`` and ``None``
        for the thread kind."""
        with self._fleet_lock:
            return [
                {
                    "shard": replica.shard_id,
                    "replica": replica.replica_id,
                    "backend": self.name,
                    "alive": bool(replica.alive),
                    "restarts": int(replica.restarts),
                    "in_flight": int(replica.in_flight),
                    "pid": replica.pid,
                    "endpoint": replica.endpoint,
                }
                for row in self._fleet
                for replica in row
            ]


#: Registered replica kinds, keyed by the name the
#: ``ShardingSpec.backend`` field / ``--shard-backend`` flag use.
SHARD_BACKENDS: Dict[str, type] = {_ThreadReplica.kind: _ThreadReplica}


def shard_backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(SHARD_BACKENDS)


def make_shard_backend(
    name: str,
    shards: Sequence[object],
    max_workers: Optional[int] = None,
    replicas: int = 1,
    endpoints: Optional[Sequence] = None,
) -> ShardBackend:
    """The ``replicas``-wide fleet of ``name``-kind replicas over
    ``shards`` — the single seam
    :class:`~repro.serving.sharded.ShardedIndex` fans out through.

    ``endpoints`` is the ``"socket"`` kind's worker address list — one
    ``"host:port"`` (or, with replicas, a list of them) per shard; it
    is required for ``"socket"`` and rejected for every other kind.
    """
    return ShardBackend(
        shards,
        max_workers=max_workers,
        replicas=replicas,
        kind=name,
        endpoints=endpoints,
    )
