"""The asyncio gateway: the serving tier's network front door.

One asyncio event loop multiplexes every client connection and never
blocks on a search.  Concurrency model, per connection:

* requests are read one message at a time and answered *out of
  order* — each response carries the client-chosen request id, so a
  slow query never convoys the fast ones behind it on the same
  connection;
* an ``asyncio.Semaphore`` of ``max_inflight_per_conn`` (by default
  ``2 * max_batch_size``: one micro-batch running, the next one
  filling) gates the *read* side and is released only after the
  response is fully written and drained.  That one mechanism is both
  admission control (a connection can never hold more than N requests
  in the server) and the bounded per-connection write queue: a slow
  client that stops reading makes ``drain()`` block, which stops
  releases, which stops reads — backpressure propagates to the
  client's socket instead of growing server memory;
* batchable requests (no ``labels`` / ``max_beam_width``) go from the
  event loop straight into the queue of a lazily created
  :class:`~repro.serving.batcher.DynamicBatcher` per ``(k,
  beam_width)`` profile (``submit_request``); the loop awaits the row
  futures and assembles the response itself.  No thread is parked per
  request, so every admitted request of every connection can share
  one micro-batch, up to ``max_batch_size`` rows — which is the
  entire point of a gateway;
* the rare requests that cannot ride a micro-batch — per-request
  scenario extras, which go straight to ``index.search``, and empty
  ``B = 0`` requests — run on a small private thread pool.

Shutdown (``SIGTERM``/``SIGINT`` or :meth:`Gateway.shutdown`) stops
accepting, starts every batcher's ``flush=True`` close (queued rows
are answered at once, not after ``max_wait_ms``) — mirroring
``DynamicBatcher.close``'s flush-or-cancel contract — then waits for
in-flight requests to drain and joins the batchers.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..batcher import DynamicBatcher
from . import framing
from .worker import parse_hostport

#: Threads for the requests that bypass the batchers (scenario extras,
#: ``B = 0``) — rare, so a few suffice.
_BYPASS_WORKERS = 4


@dataclass
class GatewayStats:
    """Counters the tests and ``fleet_status``-style introspection read."""

    connections_total: int = 0
    requests_total: int = 0
    errors_total: int = 0
    protocol_errors_total: int = 0
    inflight: int = 0
    peak_inflight: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def begin(self) -> None:
        with self._lock:
            self.requests_total += 1
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)

    def end(self) -> None:
        with self._lock:
            self.inflight -= 1


class Gateway:
    """Asyncio TCP front end over one served index.

    ``index`` is anything speaking the uniform request protocol — a
    scenario index, a :class:`~repro.serving.sharded.ShardedIndex`
    (possibly socket-backed, making this a two-tier network path), or
    a replicated fleet.
    """

    def __init__(
        self,
        index,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_inflight_per_conn: Optional[int] = None,
        max_frame_bytes: int = framing.DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if max_inflight_per_conn is None:
            # One full micro-batch running and the next one queued, so
            # a single pipelined connection can fire the size trigger.
            max_inflight_per_conn = 2 * int(max_batch_size)
        if max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be >= 1")
        self._index = index
        self._host = host
        self._port = int(port)
        self._max_batch_size = int(max_batch_size)
        self._max_wait_ms = float(max_wait_ms)
        self._max_inflight_per_conn = int(max_inflight_per_conn)
        self._max_frame_bytes = int(max_frame_bytes)
        self._executor = ThreadPoolExecutor(
            max_workers=_BYPASS_WORKERS,
            thread_name_prefix="repro-gateway",
        )
        self._batchers: Dict[Tuple[int, int], DynamicBatcher] = {}
        self._batchers_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._closing = False
        self.stats = GatewayStats()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``
        (``port=0`` resolves to the ephemeral port here)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self._port = port
        return host, port

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, flush the batchers' queued
        rows, let in-flight requests finish and their responses flush,
        then join the batchers.

        Connection tasks blocked *reading* are cancelled (no new work
        is admitted); each drains its in-flight request tasks — which
        are never cancelled — before its socket closes.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        # One loop turn lets created request tasks queue their rows (no
        # reader admits more); then the batchers flush them now, not
        # after max_wait_ms, without blocking the loop.
        await asyncio.sleep(0)
        with self._batchers_lock:
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.close(flush=True, timeout=0)
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        self.close_sync()

    def close_sync(self) -> None:
        """Blocking half of shutdown (also usable standalone after the
        loop is gone): flush batchers, stop the executor."""
        with self._batchers_lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close(flush=True)
        self._executor.shutdown(wait=True)

    # -- request execution ---------------------------------------------
    def _batcher_for(self, k: int, beam_width: int) -> DynamicBatcher:
        key = (int(k), int(beam_width))
        with self._batchers_lock:
            batcher = self._batchers.get(key)
            if batcher is None:
                batcher = DynamicBatcher(
                    self._index,
                    k=key[0],
                    beam_width=key[1],
                    max_batch_size=self._max_batch_size,
                    max_wait_ms=self._max_wait_ms,
                )
                self._batchers[key] = batcher
        return batcher

    async def _execute(self, request):
        """Answer one decoded request without blocking the loop."""
        loop = asyncio.get_running_loop()
        if request.labels is not None or request.max_beam_width is not None:
            # Scenario extras broadcast over load-dependent
            # micro-batches only as scalars; per-request extras bypass
            # the batcher.
            return await loop.run_in_executor(
                self._executor, self._index.search, request
            )
        batcher = self._batcher_for(request.k, request.beam_width)
        futures = batcher.submit_request(request)
        if not futures:
            # B = 0: nothing queued; the schema answer is a blocking
            # index call.
            return await loop.run_in_executor(
                self._executor, batcher.search, request
            )
        rows = [await asyncio.wrap_future(future) for future in futures]
        return batcher.assemble(rows)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections_total += 1
        sem = asyncio.Semaphore(self._max_inflight_per_conn)
        write_lock = asyncio.Lock()
        request_tasks: set = set()
        try:
            while not self._closing:
                # Read-side backpressure: no new read until a slot
                # frees, and slots free only after a response has been
                # written AND drained to the client.
                await sem.acquire()
                try:
                    message = await self._read_message(reader)
                except (framing.ConnectionClosed, ConnectionError):
                    sem.release()
                    break
                except framing.ProtocolError as exc:
                    self.stats.protocol_errors_total += 1
                    await self._write(
                        writer,
                        write_lock,
                        framing.encode_error_response(exc, None),
                        swallow=True,
                    )
                    sem.release()
                    break  # stream unframed: hang up
                request_task = asyncio.ensure_future(
                    self._answer(message, writer, write_lock, sem)
                )
                request_tasks.add(request_task)
                request_task.add_done_callback(request_tasks.discard)
        except asyncio.CancelledError:
            pass  # shutdown: stop reading, fall through to the drain
        finally:
            if request_tasks:
                # In-flight requests are never cancelled; shield the
                # drain so a shutdown-time cancel of *this* task
                # cannot propagate into them.
                drain = asyncio.gather(
                    *list(request_tasks), return_exceptions=True
                )
                try:
                    await asyncio.shield(drain)
                except asyncio.CancelledError:
                    await drain
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_message(self, reader) -> framing.Message:
        async def read_exactly(n: int) -> bytes:
            try:
                return await reader.readexactly(n)
            except asyncio.IncompleteReadError as exc:
                if not exc.partial:
                    raise framing.ConnectionClosed(
                        "client closed the connection"
                    ) from exc
                raise framing.FrameTruncated(
                    f"client closed mid-frame "
                    f"({len(exc.partial)} of {n} bytes)"
                ) from exc

        # Mirrors framing.read_message, awaiting each read.
        msg_type, length = framing.parse_header(
            await read_exactly(framing.HEADER_SIZE), self._max_frame_bytes
        )
        if msg_type != framing.MSG_JSON:
            raise framing.ProtocolError(
                "message must start with a JSON header frame"
            )
        header = framing._decode_json_frame(await read_exactly(length))
        arrays = {}
        for name in header.get("arrays", []):
            try:
                raw = await read_exactly(framing.HEADER_SIZE)
            except framing.ConnectionClosed as exc:
                raise framing.FrameTruncated(
                    "client closed mid-message"
                ) from exc
            msg_type, length = framing.parse_header(
                raw, self._max_frame_bytes
            )
            if msg_type != framing.MSG_NDARRAY:
                raise framing.ProtocolError(
                    f"expected ndarray frame for array {name!r}"
                )
            arrays[name] = framing.decode_ndarray(await read_exactly(length))
        return framing.Message(
            kind=header["kind"],
            meta=header.get("meta", {}),
            arrays=arrays,
        )

    async def _answer(self, message, writer, write_lock, sem) -> None:
        """Decode, execute, and stream back one request; always
        releases its read-side slot."""
        request_id = None
        self.stats.begin()
        try:
            try:
                if message.kind != "request":
                    raise framing.ProtocolError(
                        f"unexpected gateway message {message.kind!r}"
                    )
                request_id, request = framing.decode_search_request(message)
                response = await self._execute(request)
                blob = framing.encode_search_response(
                    response, request_id, self._max_frame_bytes
                )
            except BaseException as exc:
                self.stats.errors_total += 1
                import traceback

                blob = framing.encode_error_response(
                    exc, request_id, tb=traceback.format_exc()
                )
            await self._write(writer, write_lock, blob, swallow=True)
        finally:
            self.stats.end()
            sem.release()

    async def _write(self, writer, write_lock, blob, swallow=False) -> None:
        try:
            async with write_lock:
                writer.write(blob)
                await writer.drain()
        except (ConnectionError, OSError):
            if not swallow:
                raise


def run_gateway_blocking(
    index,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback=None,
    install_signal_handlers: bool = True,
    **gateway_kwargs,
) -> int:
    """Run a gateway until SIGTERM/SIGINT (the ``experiment serve
    --listen`` body).  ``ready_callback(host, port)`` fires once bound
    — the CLI prints the parseable "listening" line from it."""
    gateway = Gateway(index, host=host, port=port, **gateway_kwargs)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
        bound_host, bound_port = await gateway.start()
        if ready_callback is not None:
            ready_callback(bound_host, bound_port)
        serve = asyncio.ensure_future(gateway.serve_forever())
        await stop.wait()
        serve.cancel()
        await gateway.shutdown()

    asyncio.run(_main())
    return 0


def parse_listen(text: str) -> Tuple[str, int]:
    """``--listen HOST:PORT`` (``:PORT`` binds all interfaces)."""
    if text.startswith(":"):
        return "0.0.0.0", int(text[1:])
    return parse_hostport(text)


class GatewayThread:
    """A gateway on a background thread with its own event loop —
    the in-process harness tests, benchmarks, and ``run_load`` use to
    stand up a real network path without a subprocess."""

    def __init__(self, index, host: str = "127.0.0.1", port: int = 0,
                 **gateway_kwargs) -> None:
        self.gateway = Gateway(index, host=host, port=port,
                               **gateway_kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._boot_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._boot_error is not None:
            raise self._boot_error
        if self._address is None:
            raise RuntimeError("gateway failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def _boot():
            try:
                self._address = await self.gateway.start()
            except BaseException as exc:
                self._boot_error = exc
            finally:
                self._started.set()

        try:
            # start_server begins accepting as soon as the loop runs;
            # run_forever keeps it alive until close() stops the loop
            # (after the shutdown coroutine has fully drained).
            self._loop.run_until_complete(_boot())
            if self._boot_error is None:
                self._loop.run_forever()
        except Exception:
            pass
        finally:
            try:
                self._loop.close()
            except Exception:
                pass

    @property
    def address(self) -> Tuple[str, int]:
        assert self._address is not None
        return self._address

    @property
    def connect(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def close(self, timeout: float = 30.0) -> None:
        if self._loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.shutdown(), self._loop
            )
            future.result(timeout=timeout)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "GatewayThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
