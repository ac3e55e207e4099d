"""Blocking clients for the network tier.

:class:`ShardClient` is the backend side: one connection to one shard
worker — a TCP ``host:port`` or the AF_UNIX socket path of a
``"process"``-kind worker — speaking the worker protocol
(``ping``/``reload``/``request``) with connect/read timeouts and
bounded exponential-backoff reconnect.
Worker death surfaces as the fleet's
:class:`~repro.serving.backends.ReplicaDied`, so its failover and
supervisor policy applies unchanged to remote workers.

:class:`NetClient` is the front-door side: a small blocking client for
the asyncio gateway's typed request protocol, used by tests, the CLI
(``index search --connect``), and the load harness.  Requests are
tagged with client-chosen ids and responses may arrive out of order;
a background reader thread resolves per-request futures, which is
what lets one client keep many requests in flight (the open-loop
runner's requirement).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from concurrent.futures import Future
from typing import Optional

from ...api.protocol import SearchRequest
from ..backends import ReplicaDied, _raise_worker_error, _unwrap_reply
from . import framing
from .worker import is_socket_path, parse_hostport


class ShardClient:
    """One blocking connection to one shard worker.

    The connection is lazy: the first request connects, and a request
    that finds the connection dead retries the *connect* with bounded
    exponential backoff (``backoff_base_s`` doubling up to
    ``backoff_max_s``, at most ``max_retries`` attempts).  A request
    that fails *mid-stream* never retries — the worker may have half-
    executed it; the failure surfaces as ``ReplicaDied`` and the
    fleet decides (fail over to a sibling, fail loudly, or pad).
    """

    def __init__(
        self,
        endpoint: str,
        connect_timeout_s: float = 5.0,
        read_timeout_s: Optional[float] = 120.0,
        max_retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        max_frame_bytes: int = framing.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.endpoint = str(endpoint)
        self._address = (
            self.endpoint
            if is_socket_path(self.endpoint)
            else parse_hostport(self.endpoint)
        )
        self._connect_timeout_s = float(connect_timeout_s)
        self._read_timeout_s = read_timeout_s
        self._max_retries = int(max_retries)
        self._backoff_base_s = float(backoff_base_s)
        self._backoff_max_s = float(backoff_max_s)
        self._max_frame_bytes = int(max_frame_bytes)
        self._sock: Optional[socket.socket] = None
        self._stream: Optional[framing.SocketReader] = None
        # One request/reply in flight per connection: interleaved
        # writes would cross-deliver replies.
        self._lock = threading.Lock()

    # -- connection lifecycle ------------------------------------------
    def _connect_once(self) -> socket.socket:
        if isinstance(self._address, str):  # an AF_UNIX socket path
            sock = socket.socket(socket.AF_UNIX)
            sock.settimeout(self._connect_timeout_s)
            try:
                sock.connect(self._address)
            except OSError:
                sock.close()
                raise
            sock.settimeout(self._read_timeout_s)
            return sock
        sock = socket.create_connection(
            self._address, timeout=self._connect_timeout_s
        )
        sock.settimeout(self._read_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        delay = self._backoff_base_s
        last: Optional[Exception] = None
        for attempt in range(self._max_retries + 1):
            try:
                self._sock = self._connect_once()
                # A fresh reader per connection: nothing a dropped
                # connection buffered can leak into the next one.
                self._stream = framing.SocketReader(self._sock)
                return self._sock
            except OSError as exc:
                last = exc
                if attempt < self._max_retries:
                    time.sleep(delay)
                    delay = min(delay * 2, self._backoff_max_s)
        raise ReplicaDied(
            f"could not connect to shard worker at {self.endpoint} "
            f"after {self._max_retries + 1} attempts"
        ) from last

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol ------------------------------------------------------
    def send(self, blob: bytes) -> None:
        """Write one request buffer (connecting first if needed)."""
        try:
            self._ensure_connected().sendall(blob)
        except OSError as exc:
            raise self._died() from exc

    def recv(self, expected: str):
        """Read the one reply a :meth:`send` is owed.  The fan-out
        calls the two halves itself, under its own per-replica lock,
        to write every shard's request before it reads any reply."""
        try:
            message = self._stream.read_message(self._max_frame_bytes)
        except (
            framing.ConnectionClosed,
            framing.FrameTruncated,
            OSError,
        ) as exc:
            raise self._died() from exc
        except framing.ProtocolError:
            self.close()  # unframed: the next request reconnects
            raise
        kind, payload = framing.reply_payload(message)
        return _unwrap_reply(
            kind, payload, expected, f"shard worker at {self.endpoint}"
        )

    def _died(self) -> ReplicaDied:
        """An infra failure: the connection is closed (the next request
        reconnects) and the caller raises the returned error."""
        self.close()
        return ReplicaDied(
            f"shard worker at {self.endpoint} died mid-request"
        )

    def _request(self, blob: bytes, expected: str):
        """Send one request buffer, read one reply."""
        with self._lock:
            self.send(blob)
            return self.recv(expected)

    def ping(self) -> None:
        self._request(framing.encode_message("ping"), "pong")

    def reload(self) -> None:
        self._request(framing.encode_message("reload"), "ready")

    def search(self, request, k=None, beam_width=None, extras=None):
        """One typed round-trip; returns the shard's
        :class:`~repro.api.SearchResponse`.

        The repo benchmark's driver spells the call ``search(queries,
        k, beam_width, {})``; that spelling builds the request here.
        """
        if not isinstance(request, SearchRequest):
            request = SearchRequest(request, k, beam_width, **(extras or {}))
        # One request per connection at a time: the id is moot.
        return self._request(
            framing.encode_search_request(
                request, 0, self._max_frame_bytes
            ),
            "response",
        )


class NetClient:
    """Blocking client for the asyncio gateway's typed protocol.

    ``submit_request`` tags each :class:`~repro.api.protocol.
    SearchRequest` with a fresh id and returns a ``Future`` resolved by
    the background reader thread when the gateway's (possibly
    out-of-order) response lands; ``search`` is the synchronous
    convenience on top.  A closed connection fails every pending
    future with :class:`~repro.serving.net.framing.ConnectionClosed`.
    """

    def __init__(
        self,
        address: str,
        connect_timeout_s: float = 10.0,
        max_frame_bytes: int = framing.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        host, port = parse_hostport(address)
        self.address = str(address)
        self._max_frame_bytes = int(max_frame_bytes)
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout_s
        )
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = framing.SocketReader(self._sock)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client", daemon=True
        )
        self._reader.start()

    # -- background reader ---------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                message = self._stream.read_message(self._max_frame_bytes)
                if message.kind == "response":
                    request_id, response = framing.decode_search_response(
                        message
                    )
                    self._resolve(request_id, response, None)
                elif message.kind == "error":
                    exc = framing.decode_error(message)
                    request_id = message.meta.get("id")
                    if request_id is None:
                        raise exc  # connection-level: fail everything
                    self._resolve(int(request_id), None, exc)
                else:
                    raise framing.ProtocolError(
                        f"unexpected gateway message {message.kind!r}"
                    )
        except BaseException as exc:
            self._fail_all(exc)
        finally:
            self._stream.close()  # releases the socket's descriptor

    def _resolve(self, request_id, response, exc) -> None:
        with self._pending_lock:
            future = self._pending.pop(request_id, None)
        if future is None:
            return
        if exc is not None:
            try:
                _raise_worker_error(exc)
            except BaseException as chained:
                future.set_exception(chained)
        else:
            future.set_result(response)

    def _fail_all(self, exc: BaseException) -> None:
        if isinstance(exc, OSError) and self._closed:
            exc = framing.ConnectionClosed("client closed")
        elif isinstance(exc, framing.ConnectionClosed) and not self._closed:
            exc = framing.ConnectionClosed(
                f"gateway at {self.address} closed the connection"
            )
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    # -- public API ----------------------------------------------------
    def submit_request(self, request) -> "Future":
        """Send one typed request; the returned future resolves to its
        :class:`~repro.api.protocol.SearchResponse`."""
        if self._closed:
            raise framing.ConnectionClosed("client is closed")
        request_id = next(self._ids)
        future: Future = Future()
        with self._pending_lock:
            self._pending[request_id] = future
        blob = framing.encode_search_request(
            request, request_id, self._max_frame_bytes
        )
        try:
            with self._send_lock:
                self._sock.sendall(blob)
        except OSError as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise framing.ConnectionClosed(
                f"gateway at {self.address} is unreachable"
            ) from exc
        return future

    def search(self, request, timeout: Optional[float] = None):
        """Blocking round-trip for one typed request."""
        return self.submit_request(request).result(timeout=timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5)
        self._fail_all(framing.ConnectionClosed("client closed"))

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
