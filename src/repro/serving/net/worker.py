"""Shard workers: the one worker loop, its server, and local spawning.

:class:`ShardService` is the one worker loop: booted from a persisted
index directory (the deploy artifact), it answers the shared frame
protocol — ``ping``/``reload``/``request`` messages in,
``pong``/``ready``/``response``/``error`` messages out.
:class:`ShardServer` is the one transport every worker runs: a
``repro serve-shard`` worker listens on TCP, and the process kind's
worker (a :class:`LocalShardWorker`) on an AF_UNIX socket inside its
backend's private temporary directory; both are reached through the
same :class:`~repro.serving.net.client.ShardClient`.

The server is deliberately boring: one accepting thread plus one
thread per client connection, with searches serialized under a single
lock (the engine is CPU-bound NumPy; interleaving searches on one box
buys nothing and would perturb batching measurements).  Robustness
lives in the protocol — a client that sends garbage gets an error
frame (when the stream is still framed) and its connection closed;
the worker itself never dies from client input.

``serve_shard`` (the CLI body) installs SIGTERM/SIGINT handlers that
stop accepting, drain in-flight requests, and exit 0 — so chaos tests
can tell a graceful stop from a kill.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import socketserver
import threading
import time
from typing import Optional, Tuple

from ..backends import _unwrap_reply
from . import framing


def parse_hostport(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; the port is mandatory."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"endpoint {text!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"endpoint {text!r} has a non-integer port"
        ) from None


def is_socket_path(address: str) -> bool:
    """An address holding a ``/`` is the path of an AF_UNIX socket;
    anything else is a TCP host (or ``host:port``)."""
    return "/" in str(address)


class ShardService:
    """Protocol-level request handling over one loaded shard index.

    Transport-agnostic: :meth:`handle` maps one decoded request
    message to one encoded reply buffer and never raises — every
    failure becomes an error message (``framing.encode_error`` cannot
    fail either), so transports never have to guess how to keep their
    stream framed.
    """

    def __init__(self, index, dirpath: Optional[str] = None) -> None:
        self._index = index
        self._dirpath = dirpath
        # One search at a time: the engine is CPU-bound and a reload
        # must not swap the index under a running search.
        self._search_lock = threading.Lock()

    @classmethod
    def from_dir(cls, dirpath: str) -> "ShardService":
        from repro.api import load_index

        return cls(load_index(dirpath), dirpath=dirpath)

    def handle(self, message: framing.Message) -> bytes:
        """One reply buffer per request."""
        try:
            if message.kind == "ping":
                # Health probe: proves the worker loop is responsive
                # (not just that the process exists) — the supervisor's
                # verify step before re-admission.
                return framing.encode_message("pong")
            if message.kind == "reload":
                if self._dirpath is None:
                    raise RuntimeError(
                        "this worker was not booted from a directory; "
                        "nothing to reload"
                    )
                from repro.api import load_index

                with self._search_lock:
                    self._index = load_index(self._dirpath)
                return framing.encode_message("ready")
            if message.kind == "request":
                request_id, request = framing.decode_search_request(message)
                with self._search_lock:
                    response = self._index.search(request)
                return framing.encode_search_response(response, request_id)
            raise framing.ProtocolError(
                f"unknown worker request {message.kind!r}"
            )
        except BaseException as exc:
            return framing.encode_error(exc)


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one thread per connection
        server: "ShardServer" = self.server
        sock = self.request
        sock.settimeout(None)
        # Closed before socketserver closes the socket: the reader
        # holds its own reference to the descriptor.
        with contextlib.closing(framing.SocketReader(sock)) as stream:
            while True:
                try:
                    message = stream.read_message(server.max_frame_bytes)
                except framing.ConnectionClosed:
                    return
                except framing.ProtocolError as exc:
                    # Bad magic/version/truncation/array block: the
                    # stream cannot be re-framed; best-effort error
                    # frame, then hang up.
                    try:
                        sock.sendall(framing.encode_error(exc))
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                server.begin_request()
                try:
                    sock.sendall(server.service.handle(message))
                except OSError:
                    return  # client went away mid-reply
                finally:
                    server.end_request()


class ShardServer(socketserver.ThreadingTCPServer):
    """Threaded stream server speaking the shard-worker protocol: TCP
    on ``(host, port)``, or AF_UNIX when ``host`` is a socket path
    (:func:`is_socket_path`; ``port`` is then unused)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: ShardService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = framing.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.service = service
        self.max_frame_bytes = int(max_frame_bytes)
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        address = (host, port)
        if is_socket_path(host):
            self.address_family, address = socket.AF_UNIX, host
        super().__init__(address, _ShardRequestHandler)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.socket.getsockname()[:2]
        return host, port

    @property
    def endpoint(self) -> str:
        """What a :class:`~repro.serving.net.client.ShardClient` dials:
        ``"host:port"``, or the AF_UNIX socket's path."""
        if self.address_family == socket.AF_UNIX:
            return self.server_address
        return "%s:%d" % self.address

    # -- in-flight accounting (for graceful drain) ---------------------
    def begin_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for in-flight requests to finish; ``False`` on timeout."""
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )


def serve_shard(
    dirpath: str,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_file=None,
) -> int:
    """Body of the ``repro serve-shard`` CLI command.

    Loads the persisted index, binds (``port=0`` → an ephemeral port),
    prints a parseable ``listening on HOST:PORT`` line, and serves
    until SIGTERM/SIGINT — which stop accepting, drain in-flight
    requests, and return 0 (the graceful-exit signature chaos tests
    check for).
    """
    service = ShardService.from_dir(dirpath)
    server = ShardServer(service, host=host, port=port)
    bound_host, bound_port = server.address

    def _graceful(signum, frame):
        # shutdown() only stops the accept loop; per-connection threads
        # finish the request they hold before the process exits.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)

    line = f"listening on {bound_host}:{bound_port}"
    if ready_file is not None:
        with open(ready_file, "w") as handle:
            print(line, file=handle, flush=True)
    else:
        print(line, flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.drain()
        server.server_close()
    return 0


# ----------------------------------------------------------------------
# Local workers: the process kind's, and the tests' and benchmarks'
# ----------------------------------------------------------------------


def _local_worker_main(dirpath: str, host: str, port: int, conn) -> None:
    """Child entry point: boot, bind, report a frame-coded ``ready``
    (or ``error``) message on the boot pipe, serve."""
    try:
        server = ShardServer(
            ShardService.from_dir(dirpath), host=host, port=port
        )
        conn.send_bytes(
            framing.encode_message("ready", meta={"value": server.endpoint})
        )
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send_bytes(framing.encode_error(exc))
        return
    finally:
        conn.close()
    server.serve_forever(poll_interval=0.05)


class LocalShardWorker:
    """A shard worker in a local child process: the process kind's
    worker, and the tests' and benchmarks' ``serve-shard``.

    A spawn-context child runs a :class:`ShardServer` on ``host:port``
    (``port=0`` → ephemeral) or on the AF_UNIX socket path ``host``;
    only its boot report comes back over a pipe.  ``wait=False`` splits
    :meth:`spawn` from :meth:`wait_ready`, so a fleet boots every
    worker before it waits for any.  ``pid`` lets chaos tests SIGKILL
    it, and :meth:`respawn` boots a fresh process on the *same*
    endpoint — what a real deployment's supervisor (systemd, k8s) does.
    """

    def __init__(
        self,
        dirpath: str,
        host: str = "127.0.0.1",
        port: int = 0,
        wait: bool = True,
    ) -> None:
        self._dirpath = dirpath
        self._host = host
        self._context = multiprocessing.get_context("spawn")
        self._proc = self._boot = None
        self.port = int(port)
        self.spawn()
        if wait:
            self.wait_ready()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    @property
    def endpoint(self) -> str:
        if is_socket_path(self._host):
            return self._host
        return f"{self._host}:{self.port}"

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def spawn(self) -> None:
        """Start the child; :meth:`wait_ready` collects its report."""
        if is_socket_path(self._host):
            # A killed predecessor leaves its socket file behind.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._host)
        self._boot, child_conn = self._context.Pipe(duplex=False)
        self._proc = self._context.Process(
            target=_local_worker_main,
            args=(self._dirpath, self._host, self.port, child_conn),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the child reports its endpoint.  A failure stops
        the child and raises its own boot error (typed, the worker
        traceback chained), or ``RuntimeError`` when it died or stayed
        silent for ``timeout`` seconds."""
        conn, self._boot = self._boot, None
        who = f"shard worker for {self._dirpath}"
        try:
            if not conn.poll(timeout):
                raise RuntimeError(f"{who} stayed silent for {timeout:.0f}s")
            message = framing.decode_message(conn.recv_bytes())
            endpoint = _unwrap_reply(
                *framing.reply_payload(message), "ready", who
            )
        except BaseException as exc:
            self.stop()
            if isinstance(exc, EOFError):
                raise RuntimeError(f"{who} died while booting") from None
            raise
        finally:
            conn.close()
        if not is_socket_path(endpoint):
            self.port = parse_hostport(endpoint)[1]

    def kill(self) -> None:
        """SIGKILL — the chaos tests' hammer."""
        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
        if self._proc is not None:
            self._proc.join(timeout=10)

    def respawn(self, timeout: float = 60.0) -> None:
        """A fresh process on the same endpoint, retried until one
        deadline ``timeout`` seconds out (a killed process's TCP port
        may linger briefly even with SO_REUSEADDR); ``RuntimeError``
        when none has booted by then."""
        self.stop()
        deadline = time.monotonic() + timeout
        while True:
            self.spawn()
            try:
                self.wait_ready(max(0.0, deadline - time.monotonic()))
                return
            except Exception as exc:
                if time.monotonic() + 0.1 >= deadline:
                    raise RuntimeError(
                        f"shard worker at {self.endpoint} did not come "
                        f"back within {timeout:.0f}s"
                    ) from exc
            time.sleep(0.1)

    def stop(self) -> None:
        if self._boot is not None:
            self._boot.close()
            self._boot = None
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
            self._proc.join(timeout=10)
            self._proc = None

    def __enter__(self) -> "LocalShardWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def wait_for_port(
    host: str, port: int, timeout: float = 30.0
) -> None:
    """Block until ``host:port`` accepts a TCP connection."""
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError as exc:
            last = exc
            time.sleep(0.05)
    raise TimeoutError(
        f"{host}:{port} did not accept a connection within {timeout:.0f}s"
    ) from last
