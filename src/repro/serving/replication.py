"""Replicated, self-healing shard execution: N places to run shard *s*.

:class:`ReplicatedBackend` slots into the same
:class:`~repro.serving.backends.ShardBackend` seam the thread/process
backends do, but holds ``replicas`` workers per shard — each replica an
independent instance of an *inner* backend substrate (``"thread"``:
the live in-process shard object; ``"process"``: its own persistent
worker process, loading the shard's persisted state from a directory
shared by all of that shard's replicas).  Three mechanisms turn the
replica set into availability:

* **Least-loaded routing.**  ``search_all`` sends each shard's call to
  the healthy replica with the fewest in-flight requests (ties to the
  lowest replica id), so a slow or busy replica sheds load to its
  siblings.
* **In-request failover.**  A replica that *dies* mid-request (worker
  crash, OOM kill, closed pipe) is marked dead and the call retries
  transparently on a sibling — the caller never sees the failure.
  Only infrastructure deaths fail over; an application error (bad
  query dimensions, scenario bug) re-raises, because every sibling
  would fail identically.  If a shard loses *every* replica
  mid-request the shard contributes no candidates and the router's
  merge pads it — degraded results instead of a failed request.
* **A background supervisor.**  A daemon thread probes the fleet every
  ``probe_interval_s`` seconds and runs the detect → remediate →
  verify loop off the search critical path: a dead worker is
  respawned from the shard's already-persisted state and only rejoins
  the rotation after answering a ``ping`` health probe.

Results are bitwise identical to the unreplicated backends while at
least one replica per shard is healthy: replicas serve the exact
persisted state (persistence round-trips every array) and the merge is
unchanged, so which replica answers can never change an answer —
``tests/test_replication.py`` pins this on all five scenarios and
under mid-load SIGKILL chaos.

``fleet_status()`` exposes per-replica liveness, restart counts, and
in-flight request counts for introspection (the CLI and the chaos
gates read it).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from .backends import (
    SHARD_BACKENDS,
    ShardBackend,
    _shard_worker_main,
    _unwrap_reply,
    usable_cpu_count,
)

#: How long the supervisor waits for a respawned worker to load its
#: state and answer the health probe before declaring the respawn
#: failed (and retrying on the next tick).
RESPAWN_TIMEOUT_S = 60.0


class ReplicaDied(RuntimeError):
    """A replica's execution substrate failed (dead process, closed
    pipe) — distinct from an application error the search itself
    raised.  Only this failure mode triggers in-request failover."""


class _ThreadReplica:
    """A replica running against the live in-process shard object.

    Thread replicas share the parent's state (searches are read-only),
    so there is nothing to spawn, reload, or crash — they exist so the
    routing/failover/introspection machinery is uniform across inner
    backends, and so ``replicas > 1`` load accounting works the same
    way it does for processes.
    """

    kind = "thread"

    def __init__(self, shard: object, shard_id: int, replica_id: int):
        self._shard = shard
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.alive = True
        self.restarts = 0
        self.in_flight = 0

    @property
    def pid(self) -> Optional[int]:
        return None

    def process_alive(self) -> bool:
        return True

    def search(self, request):
        return self._shard.search(request)

    def reload(self) -> None:  # live object: always current
        pass

    def respawn_and_verify(self, timeout: float) -> bool:
        return True  # nothing to spawn; revival is just re-admission

    def stop(self) -> None:
        pass


class _ProcessReplica:
    """One persistent worker process serving one shard's replica slot.

    All replicas of a shard load the same persisted directory (state is
    shipped once per shard, not once per replica), and each owns a
    private pipe + lock, so replicas fail — and fail over — one at a
    time without desyncing siblings.
    """

    kind = "process"

    def __init__(self, dirpath: str, shard_id: int, replica_id: int, context):
        self._dirpath = dirpath
        self._context = context
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.alive = False  # admitted by wait_ready / respawn_and_verify
        self.restarts = 0
        self.in_flight = 0
        self._proc = None
        self._conn = None
        self._pipe_lock = threading.Lock()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def process_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    # -- lifecycle ------------------------------------------------------
    def spawn(self) -> None:
        parent_conn, child_conn = self._context.Pipe()
        proc = self._context.Process(
            target=_shard_worker_main,
            args=(self._dirpath, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn

    def _expect(self, expected: str, timeout: Optional[float] = None):
        from .net import framing

        if timeout is not None and not self._conn.poll(timeout):
            raise ReplicaDied(
                f"shard {self.shard_id} replica {self.replica_id} did "
                f"not answer within {timeout:.0f}s"
            )
        try:
            kind, payload = framing.decode_reply(self._conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise ReplicaDied(
                f"shard {self.shard_id} replica {self.replica_id} "
                "exited unexpectedly"
            ) from exc
        return _unwrap_reply(kind, payload, expected, self._who())

    def _who(self) -> str:
        return f"shard {self.shard_id} replica {self.replica_id}"

    def wait_ready(self, timeout: Optional[float] = None) -> None:
        self._expect("ready", timeout)

    def ping(self, timeout: Optional[float] = None) -> None:
        """Health probe: the worker loop must answer, not just exist."""
        from .net import framing

        with self._pipe_lock:
            try:
                self._conn.send_bytes(framing.encode_message("ping"))
            except (OSError, ValueError) as exc:
                raise ReplicaDied("ping failed to send") from exc
            self._expect("pong", timeout)

    def respawn_and_verify(self, timeout: float) -> bool:
        """Remediate + verify: fresh worker from persisted state, then
        a health probe; ``False`` (after cleanup) if either step fails."""
        self.terminate()
        try:
            self.spawn()
            self.wait_ready(timeout)
            self.ping(timeout)
            return True
        except BaseException:
            self.terminate()
            return False

    def terminate(self) -> None:
        """Hard-stop the current process (reaping it) and close the
        pipe; safe on an already-dead or never-spawned replica."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=5)
            self._proc = None
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def stop(self) -> None:
        """Graceful stop (protocol ``stop``), falling back to
        terminate."""
        from .net import framing

        if self._conn is not None:
            try:
                self._conn.send_bytes(framing.encode_message("stop"))
            except (OSError, ValueError):
                pass
        self.terminate()

    # -- serving --------------------------------------------------------
    def search(self, request):
        from .net import framing

        with self._pipe_lock:
            try:
                # One request per pipe at a time: the id is moot.
                self._conn.send_bytes(
                    framing.encode_search_request(request, 0)
                )
                kind, payload = framing.decode_reply(
                    self._conn.recv_bytes()
                )
            except (EOFError, OSError, ValueError) as exc:
                raise ReplicaDied(f"{self._who()} died mid-request") from exc
        return _unwrap_reply(kind, payload, "response", self._who())

    def reload(self) -> None:
        from .net import framing

        with self._pipe_lock:
            try:
                self._conn.send_bytes(framing.encode_message("reload"))
            except (OSError, ValueError) as exc:
                raise ReplicaDied("reload failed to send") from exc
            self.wait_ready()


def _shutdown_fleet(fleet, stop_event, tmpdir) -> None:
    """Stop every replica and remove the shipped state (GC-safe: takes
    no backend reference — mirrors ``backends._shutdown_workers``)."""
    stop_event.set()
    for shard_replicas in fleet:
        for replica in shard_replicas:
            try:
                replica.stop()
            except Exception:
                pass
    fleet.clear()
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


class ReplicatedBackend(ShardBackend):
    """N replicas per shard over an inner thread/process substrate.

    Parameters
    ----------
    shards:
        The per-shard indexes (read-path state for ``"thread"``
        replicas; the source persisted once per shard for
        ``"process"`` replicas).
    max_workers:
        Fan-out pool width for the ``"thread"`` inner substrate
        (defaults to one thread per shard capped at the usable CPU
        count); the ``"process"`` substrate fans out one waiter thread
        per shard regardless, since those threads only block on pipes.
    replicas:
        Replica slots per shard (>= 1; 1 is still a valid — if
        pointless — fleet).
    inner:
        Which registered backend substrate each replica runs as:
        ``"thread"``, ``"process"``, or ``"socket"``.
    probe_interval_s:
        Supervisor tick: how often dead workers are detected and
        respawned in the background.
    endpoints:
        ``"socket"`` inner only: per-shard worker addresses, each entry
        a ``"host:port"`` string or a list of them (one per replica
        slot; see :func:`repro.serving.net.backend.normalize_endpoints`).
    """

    def __init__(
        self,
        shards: Sequence[object],
        max_workers: Optional[int] = None,
        replicas: int = 2,
        inner: str = "thread",
        probe_interval_s: float = 0.5,
        endpoints: Optional[Sequence] = None,
    ) -> None:
        super().__init__(shards, max_workers)
        if inner not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown inner backend {inner!r}; "
                f"expected one of {sorted(SHARD_BACKENDS)}"
            )
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if inner == "socket" and endpoints is None:
            raise ValueError(
                "the 'socket' inner backend requires endpoints"
            )
        if endpoints is not None and inner != "socket":
            raise ValueError(
                "endpoints only apply to the 'socket' inner backend, "
                f"not {inner!r}"
            )
        self._endpoints = endpoints
        # ``name`` reports the execution substrate (what
        # ``ShardedIndex.backend`` / ``set_backend`` speak); replication
        # is the orthogonal ``replicas`` axis.
        self.name = inner
        self.inner = inner
        self.replicas = int(replicas)
        self.probe_interval_s = float(probe_interval_s)
        self._max_workers = max_workers
        self._fleet: List[List[object]] = []
        self._fleet_lock = threading.Lock()
        self._spawned = False
        self._dirty: set = set()
        self._tmpdir: Optional[str] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._finalizer = None

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def _ensure_fleet(self) -> None:
        if self._spawned:
            self._flush_dirty()
            return
        if self.inner == "thread":
            self._fleet = [
                [
                    _ThreadReplica(shard, s, r)
                    for r in range(self.replicas)
                ]
                for s, shard in enumerate(self._shards)
            ]
        elif self.inner == "socket":
            from .net.backend import _SocketReplica, normalize_endpoints

            matrix = normalize_endpoints(
                self._endpoints, len(self._shards), self.replicas
            )
            self._fleet = [
                [
                    _SocketReplica(endpoint, s, r)
                    for r, endpoint in enumerate(row)
                ]
                for s, row in enumerate(matrix)
            ]
        else:
            from ..api import save_index

            context = multiprocessing.get_context("spawn")
            tmpdir = tempfile.mkdtemp(prefix="repro-replica-fleet-")
            fleet: List[List[object]] = []
            try:
                dirs = []
                for s, shard in enumerate(self._shards):
                    # One save per shard; all of its replicas map the
                    # same read-only container (ship once, boot N
                    # times, one shared page cache).
                    shard_dir = os.path.join(tmpdir, f"shard_{s:03d}")
                    save_index(shard, shard_dir)
                    dirs.append(shard_dir)
                for s, shard_dir in enumerate(dirs):
                    row = [
                        _ProcessReplica(shard_dir, s, r, context)
                        for r in range(self.replicas)
                    ]
                    fleet.append(row)
                    for replica in row:
                        replica.spawn()
                for row in fleet:
                    for replica in row:
                        replica.wait_ready()
            except BaseException:
                _shutdown_fleet(fleet, threading.Event(), tmpdir)
                raise
            self._fleet = fleet
            self._tmpdir = tmpdir
        for row in self._fleet:
            for replica in row:
                replica.alive = True
        self._spawned = True
        self._dirty.clear()
        self._finalizer = weakref.finalize(
            self,
            _shutdown_fleet,
            self._fleet,
            self._stop_event,
            self._tmpdir,
        )
        self._start_supervisor()

    def _start_supervisor(self) -> None:
        self._stop_event = threading.Event()
        # Re-register the finalizer against the fresh event so GC still
        # stops the new supervisor thread.
        if self._finalizer is not None:
            self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self,
            _shutdown_fleet,
            self._fleet,
            self._stop_event,
            self._tmpdir,
        )
        self._supervisor = threading.Thread(
            target=_supervise,
            args=(weakref.ref(self), self._stop_event, self.probe_interval_s),
            name="repro-replica-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    def _heal(self) -> None:
        """One supervisor pass: detect dead replicas, respawn them from
        persisted state, verify with a health probe, re-admit."""
        for row in self._fleet:
            for replica in row:
                if replica.alive and replica.process_alive():
                    continue
                with self._fleet_lock:
                    replica.alive = False
                if replica.respawn_and_verify(RESPAWN_TIMEOUT_S):
                    with self._fleet_lock:
                        replica.alive = True
                        replica.restarts += 1

    def invalidate(self, shard: int) -> None:
        if self.inner == "socket":
            # Remote socket workers boot from their *own* persisted
            # directories; the parent cannot re-ship mutated state over
            # the wire, so streaming writes are incompatible.
            raise RuntimeError(
                "the 'socket' backend serves remote read-only workers; "
                "streaming writes cannot be re-shipped over the wire"
            )
        self._dirty.add(int(shard))

    def _flush_dirty(self) -> None:
        if not self._dirty:
            return
        dirty = sorted(self._dirty)
        if self.inner == "process":
            from ..api import save_index

            for s in dirty:
                try:
                    save_index(
                        self._shards[s],
                        os.path.join(self._tmpdir, f"shard_{s:03d}"),
                    )
                except BaseException:
                    # Unsaveable state: every replica of every shard may
                    # be stale or mixed; tear down so the next search
                    # respawns the fleet from scratch.
                    self.close()
                    raise
                for replica in self._fleet[s]:
                    if not replica.alive:
                        continue  # the supervisor reloads it at respawn
                    try:
                        replica.reload()
                    except ReplicaDied:
                        # One replica failing to reload is a liveness
                        # event, not a request failure: drop it from
                        # rotation; the supervisor respawns it from the
                        # state just saved.
                        with self._fleet_lock:
                            replica.alive = False
        self._dirty.clear()

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
            self._supervisor = None
        if self._spawned:
            _shutdown_fleet(self._fleet, self._stop_event, self._tmpdir)
            self._fleet = []
            self._tmpdir = None
            self._spawned = False
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pool_width(self) -> int:
        if self.inner == "process":
            # Waiter threads block on pipes; one per shard always.
            return len(self._shards)
        return int(
            self._max_workers
            or min(len(self._shards), usable_cpu_count())
        )

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._pool_width(),
                thread_name_prefix="repro-replica",
            )
        return self._pool

    def _acquire(self, shard: int):
        """Least-loaded healthy replica of ``shard`` (ties to the
        lowest replica id), with its in-flight count bumped — or
        ``None`` when the whole replica set is down."""
        with self._fleet_lock:
            healthy = [r for r in self._fleet[shard] if r.alive]
            if not healthy:
                return None
            chosen = min(
                healthy, key=lambda r: (r.in_flight, r.replica_id)
            )
            chosen.in_flight += 1
            return chosen

    def _release(self, replica) -> None:
        with self._fleet_lock:
            replica.in_flight -= 1

    def _search_shard(self, shard: int, request):
        """One shard's call with in-request failover.

        Each attempt runs on the least-loaded healthy replica; a
        replica that dies mid-request is dropped from rotation and the
        call retries on a sibling.  At most ``replicas`` attempts —
        after that the shard is fully down and contributes ``None``
        (the merge pads).  Application errors re-raise immediately:
        every sibling would fail the same way.
        """
        for _ in range(self.replicas):
            replica = self._acquire(shard)
            if replica is None:
                return None
            try:
                return replica.search(request)
            except ReplicaDied:
                with self._fleet_lock:
                    replica.alive = False
            finally:
                self._release(replica)
        return None

    def search_all(self, request):
        self._ensure_fleet()
        self._flush_dirty()
        num_shards = len(self._shards)
        if num_shards == 1 or self._pool_width() == 1:
            return [self._search_shard(s, request) for s in range(num_shards)]
        pool = self._executor()
        futures = [
            pool.submit(self._search_shard, s, request)
            for s in range(num_shards)
        ]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def fleet_status(self) -> List[dict]:
        """Per-replica rows: shard, replica, substrate, liveness,
        restart count, in-flight requests, pid (process replicas)."""
        if not self._spawned:
            # Fleet spawns lazily on the first search; report the
            # configured shape with nothing running yet.
            return [
                {
                    "shard": s,
                    "replica": r,
                    "backend": self.inner,
                    "alive": False,
                    "restarts": 0,
                    "in_flight": 0,
                    "pid": None,
                }
                for s in range(len(self._shards))
                for r in range(self.replicas)
            ]
        with self._fleet_lock:
            return [
                {
                    "shard": replica.shard_id,
                    "replica": replica.replica_id,
                    "backend": self.inner,
                    "alive": bool(replica.alive),
                    "restarts": int(replica.restarts),
                    "in_flight": int(replica.in_flight),
                    "pid": replica.pid,
                }
                for row in self._fleet
                for replica in row
            ]
