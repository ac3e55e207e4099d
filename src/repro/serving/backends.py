"""Shard-execution backends: where a ``ShardedIndex`` fan-out runs.

:class:`~repro.serving.sharded.ShardedIndex` owns the merge, the
global-id mapping, and the write-path routing; *where* the per-shard
``search(request)`` calls execute is a pluggable :class:`ShardBackend`:

* ``"thread"`` (:class:`ThreadBackend`) — the in-process pool.  Shard
  searches are read-only NumPy, which releases the GIL in the hot
  loops, so threads overlap those portions; the Python-level beam loop
  itself still serializes on the GIL.
* ``"process"`` (:class:`ProcessBackend`) — one persistent worker
  process per shard.  Each shard's whole state is shipped through
  :func:`repro.api.save_index` into a temporary directory; the worker
  :func:`repro.api.load_index`-s it once at startup (spawn-safe: no
  state is inherited, only the directory path crosses the ``Process``
  boundary) and then answers ``request`` messages over a pipe.  With
  one GIL per worker the whole search runs in parallel, not just the
  NumPy-released slices.

* ``"socket"`` (:class:`repro.serving.net.backend.SocketBackend`) —
  remote workers reached over TCP at configured ``host:port``
  endpoints (started with ``repro serve-shard``); registered by
  :mod:`repro.serving.net` into the same :data:`SHARD_BACKENDS` seam.

Results are bitwise identical across backends: the persistence layer
round-trips every array exactly (``tests/test_api_persistence``), the
engine is deterministic, and both the pipe and socket transports carry
float64/int64 arrays as raw bytes via the shared frame codec
(:mod:`repro.serving.net.framing` — the single protocol definition
repo-wide) — so the backend choice is purely a wall-clock decision.

For the streaming scenario, writes keep landing on the parent's
in-process shard objects (the router's insert/delete path is
backend-agnostic); the router marks mutated shards via
:meth:`ShardBackend.invalidate` and the process backend re-ships their
state to the affected workers before the next search.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence


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


class ShardBackend:
    """Executes one ``search(request)`` per shard, in shard order.

    Subclasses register under a short name in :data:`SHARD_BACKENDS`
    and are constructed through :func:`make_shard_backend` — the single
    seam :class:`~repro.serving.sharded.ShardedIndex` fans out through.
    """

    name: str = ""
    #: replicas per shard — plain backends run each shard in one place
    replicas: int = 1

    def __init__(
        self, shards: Sequence[object], max_workers: Optional[int] = None
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._shards = list(shards)

    def search_all(self, request) -> List[object]:
        """One :class:`~repro.api.SearchResponse` per shard, in shard
        order.

        A ``None`` entry means that shard produced no candidates this
        request (every replica lost, replicated backend only); the
        router's merge pads the missing shard instead of erroring.
        """
        raise NotImplementedError

    def fleet_status(self) -> List[dict]:
        """Per-replica liveness/introspection rows (uniform across
        backends; plain backends report one always-alive replica per
        shard — the in-process object or the single worker)."""
        return [
            {
                "shard": s,
                "replica": 0,
                "backend": self.name,
                "alive": True,
                "restarts": 0,
                "in_flight": 0,
                "pid": None,
            }
            for s in range(len(self._shards))
        ]

    def invalidate(self, shard: int) -> None:
        """Note that ``shard``'s state changed (streaming write path).

        Backends holding remote copies of shard state must refresh the
        copy before the next :meth:`search_all`; the in-process thread
        backend reads live objects and needs no action.
        """

    def close(self) -> None:
        """Release pools/processes/temp state (idempotent)."""


class ThreadBackend(ShardBackend):
    """In-process fan-out over a lazily created thread pool.

    The effective pool width resolves once at construction: an explicit
    ``max_workers``, else one thread per shard capped at the *usable*
    CPU count (the scheduler affinity mask, so an affinity-restricted
    container never oversubscribes — see :func:`usable_cpu_count`).
    A resolved width of 1 (single shard, ``max_workers=1``, or a
    single-CPU host) never builds a pool — a one-thread pool adds
    dispatch overhead plus a GC finalizer for zero overlap.
    """

    name = "thread"

    def __init__(
        self, shards: Sequence[object], max_workers: Optional[int] = None
    ) -> None:
        super().__init__(shards, max_workers)
        self._workers = int(
            max_workers or min(len(self._shards), usable_cpu_count())
        )
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers,
                thread_name_prefix="repro-shard",
            )
            # Call sites that never close() (sweeps building many
            # sharded indexes) must not leak idle pools for the process
            # lifetime: tie the pool's shutdown to this backend's GC.
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, False
            )
        return self._pool

    def search_all(self, request) -> List[object]:
        if len(self._shards) == 1 or self._workers == 1:
            return [shard.search(request) for shard in self._shards]
        pool = self._executor()
        futures = [
            pool.submit(shard.search, request) for shard in self._shards
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# Process backend: persistent per-shard worker processes
# ----------------------------------------------------------------------


def _shard_worker_main(dirpath: str, conn) -> None:
    """Entry point of one persistent shard worker process.

    Loads the shard once, acknowledges readiness, then serves
    frame-coded ``request`` messages until a ``stop`` message (or a
    closed pipe) ends the loop.  Requests and replies are whole
    :mod:`repro.serving.net.framing` message buffers carried by
    ``Connection.send_bytes``/``recv_bytes`` — the exact bytes a socket
    worker would put on a TCP stream, so the pipe and socket transports
    share one protocol definition.  Every error ships as an explicit
    error message so the parent can re-raise worker exceptions without
    losing framing.
    """
    from .net import framing

    try:
        from repro.api import load_index

        index = load_index(dirpath)
        conn.send_bytes(framing.encode_message("ready"))
    except BaseException as exc:  # surface load failures to the parent
        _send_error(conn, exc)
        return
    while True:
        try:
            blob = conn.recv_bytes()
        except EOFError:
            return
        try:
            message = framing.decode_message(blob)
        except framing.ProtocolError as exc:
            _send_error(conn, exc)
            continue
        if message.kind == "stop":
            return
        try:
            if message.kind == "reload":
                index = load_index(dirpath)
                conn.send_bytes(framing.encode_message("ready"))
            elif message.kind == "ping":
                # Health probe: proves the worker loop is responsive
                # (not just that the process exists), used by the
                # replication supervisor's detect->respawn->verify pass.
                conn.send_bytes(framing.encode_message("pong"))
            elif message.kind == "request":
                request_id, request = framing.decode_search_request(message)
                conn.send_bytes(
                    framing.encode_search_response(
                        index.search(request), request_id
                    )
                )
            else:
                raise ValueError(
                    f"unknown worker command {message.kind!r}"
                )
        except BaseException as exc:
            _send_error(conn, exc)


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

    Pickling an exception across the pipe discards its traceback; the
    worker formats it into ``remote_traceback`` before sending, and the
    parent chains it here so the failing shard-side frames are visible
    instead of an opaque ``raise payload``.
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


def _send_error(conn, exc: BaseException) -> None:
    """Ship ``exc`` (plus its formatted traceback) as an error frame.

    Never raises: an exception whose ``str``/``repr`` itself fails
    degrades to a plain ``RuntimeError`` carrying whatever could be
    rendered, and a closed pipe during error reporting is swallowed —
    the original exception must stay the story (the parent sees EOF
    and reports the worker death), not a secondary ``BrokenPipeError``
    masking it.
    """
    from .net import framing

    tb = traceback.format_exc()
    try:
        blob = framing.encode_error(exc, tb)
    except Exception:
        # An exception that cannot even be rendered: degrade to a
        # plain carrier with as much identity as repr() allows.
        try:
            rendered = repr(exc)
        except Exception:
            rendered = f"<unprintable {type(exc).__name__}>"
        blob = framing.encode_error(RuntimeError(rendered), tb)
    try:
        conn.send_bytes(blob)
    except Exception:
        pass  # pipe closed mid-report: nothing more to do


def _shutdown_workers(procs, conns, tmpdir: str) -> None:
    """Stop worker processes and remove the shipped state (GC-safe:
    takes no backend reference)."""
    from .net import framing

    stop_blob = framing.encode_message("stop")
    for conn in conns:
        try:
            conn.send_bytes(stop_blob)
        except (BrokenPipeError, OSError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    shutil.rmtree(tmpdir, ignore_errors=True)


class ProcessBackend(ShardBackend):
    """One persistent worker process per shard, fed over a pipe.

    Workers spawn lazily on the first search: each shard's state is
    written with :func:`repro.api.save_index` into a temp directory and
    a spawn-context ``Process`` loads it back on the other side, so
    only a path and frame-coded requests/responses ever cross the
    boundary.  ``max_workers`` is accepted for interface
    uniformity but does not apply — parallelism is one process per
    shard by construction.

    Shards whose scenario cannot be persisted (e.g. a hand-built
    hybrid index with a custom table transform) cannot be
    process-backed; ``save_index`` raises at worker spawn.

    Workers boot by memory-mapping the shipped container read-only
    instead of deserializing a private copy — near-free spawn, shared
    page cache.
    """

    name = "process"

    def __init__(
        self,
        shards: Sequence[object],
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(shards, max_workers)
        self._procs: Optional[list] = None
        self._conns: Optional[list] = None
        self._dirs: Optional[List[str]] = None
        self._tmpdir: Optional[str] = None
        self._dirty: set = set()
        self._finalizer = None
        # Pipes are not multiplexed: interleaved sends/recvs from two
        # threads would cross-deliver replies, so searches serialize
        # here (fan-out parallelism lives in the workers, not callers).
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._procs is not None:
            self._flush_dirty()
            return
        from ..api import save_index

        context = multiprocessing.get_context("spawn")
        tmpdir = tempfile.mkdtemp(prefix="repro-shard-backend-")
        procs, conns, dirs = [], [], []
        try:
            for s, shard in enumerate(self._shards):
                shard_dir = os.path.join(tmpdir, f"shard_{s:03d}")
                save_index(shard, shard_dir)
                dirs.append(shard_dir)
            for shard_dir in dirs:
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_shard_worker_main,
                    args=(shard_dir, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns.append(parent_conn)
            self._procs, self._conns = procs, conns
            self._dirs, self._tmpdir = dirs, tmpdir
            self._finalizer = weakref.finalize(
                self, _shutdown_workers, procs, conns, tmpdir
            )
            for s in range(len(conns)):
                self._expect(s, "ready")
        except BaseException:
            # A failed spawn (e.g. an unpersistable shard raising in
            # save_index, or a worker dying during load) must not leak
            # the temp state or leave half-initialized workers wedged.
            if self._procs is None:
                _shutdown_workers(procs, conns, tmpdir)
            else:
                self.close()
            raise
        # The spawn shipped current state; earlier invalidations are moot.
        self._dirty.clear()

    def _expect(self, shard: int, expected: str):
        from .net import framing

        try:
            kind, payload = framing.decode_reply(
                self._conns[shard].recv_bytes()
            )
        except EOFError:
            raise RuntimeError(
                f"shard worker {shard} exited unexpectedly"
            ) from None
        return _unwrap_reply(kind, payload, expected, f"shard worker {shard}")

    def _flush_dirty(self) -> None:
        if not self._dirty:
            return
        from ..api import save_index

        from .net import framing

        dirty = sorted(self._dirty)
        try:
            for s in dirty:
                save_index(self._shards[s], self._dirs[s])
                self._conns[s].send_bytes(framing.encode_message("reload"))
            for s in dirty:
                self._expect(s, "ready")
        except BaseException:
            # A failed re-ship leaves workers on stale or mixed state;
            # tear down so the next search respawns from fresh state.
            self.close()
            raise
        self._dirty.clear()

    def invalidate(self, shard: int) -> None:
        self._dirty.add(int(shard))

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._procs is not None:
            _shutdown_workers(self._procs, self._conns, self._tmpdir)
            self._procs = self._conns = self._dirs = self._tmpdir = None

    # -- search ---------------------------------------------------------
    def search_all(self, request) -> List[object]:
        from .net import framing

        with self._lock:
            self._ensure_workers()
            try:
                # Pipes are not multiplexed, so the request id is moot.
                blob = framing.encode_search_request(request, 0)
                for conn in self._conns:
                    conn.send_bytes(blob)
                # Collect every reply before raising so the pipes stay
                # framed (a failed shard must not leave siblings'
                # results unread).
                outcomes = [
                    framing.decode_reply(conn.recv_bytes())
                    for conn in self._conns
                ]
            except (EOFError, OSError) as exc:
                # A dead worker (OOM kill, crash) wedges its pipe for
                # good; tear the whole backend down so the next search
                # respawns every worker from freshly shipped state.
                self.close()
                raise RuntimeError(
                    "a shard worker died mid-search; the process "
                    "backend was reset and the next search respawns "
                    "its workers"
                ) from exc
            except BaseException:
                # Any other interruption mid-send/recv (Ctrl-C, ...)
                # leaves unread replies queued; a later search would
                # consume them as its own.  Reset rather than desync.
                self.close()
                raise
        return [
            _unwrap_reply(kind, payload, "response", f"shard worker {s}")
            for s, (kind, payload) in enumerate(outcomes)
        ]


#: Registered backend constructors, keyed by the name the
#: ``ShardingSpec.backend`` field / ``--shard-backend`` flag use.
SHARD_BACKENDS: Dict[str, type] = {
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


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
    """Construct the named backend over ``shards``.

    ``replicas > 1`` wraps the named backend's execution substrate in
    a :class:`~repro.serving.replication.ReplicatedBackend`: ``name``
    becomes the *inner* backend each replica runs as, and shard calls
    route to the least-loaded healthy replica with in-request failover
    (see :mod:`repro.serving.replication`).

    ``endpoints`` is the ``"socket"`` backend's worker address list —
    one ``"host:port"`` (or, with replicas, a list of them) per shard;
    it is required for ``"socket"`` and rejected for every other
    backend.
    """
    try:
        backend_cls = SHARD_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard backend {name!r}; "
            f"expected one of {shard_backend_names()}"
        ) from None
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if name == "socket" and endpoints is None:
        raise ValueError(
            "the 'socket' backend requires endpoints "
            "(one host:port per shard)"
        )
    if endpoints is not None and name != "socket":
        raise ValueError(
            f"endpoints only apply to the 'socket' backend, not {name!r}"
        )
    if replicas > 1:
        from .replication import ReplicatedBackend

        return ReplicatedBackend(
            shards,
            max_workers=max_workers,
            replicas=replicas,
            inner=name,
            endpoints=endpoints,
        )
    if name == "socket":
        return backend_cls(
            shards, max_workers=max_workers, endpoints=endpoints
        )
    return backend_cls(shards, max_workers=max_workers)
