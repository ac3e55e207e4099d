"""Network tier: framing edge cases, shard workers, gateway, parity.

Three layers under test (see ``docs/architecture.md``, "Network
tier"):

* the versioned frame codec — malformed input (bad magic/version,
  oversized payloads, truncated streams, trailing bytes) must fail
  loudly and typed, and every codec round-trips bitwise;
* the worker/client transport — an in-thread ``ShardServer`` answers
  the one worker protocol (on TCP, or on an AF_UNIX socket path as the
  process kind's workers do), worker death surfaces as
  ``ReplicaDied``, and a mid-stream disconnect is distinguished from
  a clean close;
* the asyncio gateway — bitwise identity with in-process serving,
  no cross-delivered replies under concurrent clients, bounded
  per-connection inflight (backpressure), and graceful SIGTERM
  drains (worker and gateway CLI subprocesses exit 0).

The slow lane pins the acceptance matrix: ``NetClient`` → gateway →
socket shard workers against the in-process ``ShardedIndex`` on all
five scenarios, and SIGKILL chaos over a replicated socket fleet
with zero failed requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    SearchResponse,
    ShardingSpec,
    build,
    load_index,
    save_index,
)
from repro.datasets import load
from repro.serving import ReplicaDied, ShardedIndex
from repro.serving.net import (
    GatewayThread,
    LocalShardWorker,
    NetClient,
    ShardClient,
    framing,
)

from .fleet import (
    VOLATILE_COUNTERS,
    build_memory,
    endpoint_of,
    fleet_setup,
    inproc_server,
    wait_for_respawn,
)
from .helpers import search

# ----------------------------------------------------------------------
# Shared fixtures / helpers
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    return fleet_setup()


@pytest.fixture(scope="module")
def memory_index(setup):
    data, quantizer = setup
    return build_memory(data.base, quantizer)


def assert_responses_identical(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    # The gateway path runs through the dynamic batcher, which stamps
    # wall-clock ``batcher_*`` timing counters onto its responses, and
    # the ADC-table/workspace cache counters depend on per-process
    # warm-up history; the work counters must still match bitwise.
    a_counters = {
        k: v
        for k, v in a.counters.items()
        if not k.startswith("batcher_") and k not in VOLATILE_COUNTERS
    }
    b_counters = {
        k: v
        for k, v in b.counters.items()
        if not k.startswith("batcher_") and k not in VOLATILE_COUNTERS
    }
    assert set(a_counters) == set(b_counters)
    for name in a_counters:
        np.testing.assert_array_equal(
            a_counters[name], b_counters[name], err_msg=name
        )


def reading(sock):
    """The one buffered reader of ``sock``, closed on exit."""
    return contextlib.closing(framing.SocketReader(sock))


def hostile_request() -> bytes:
    """A request whose ``queries`` block declares shape ``(2**32,
    2**32)`` — a product that wraps int64 to 0 — and carries no body."""
    block = struct.pack(">H", 3) + b"<f8"
    block += struct.pack(">BQQ", 2, 2**32, 2**32)
    header = {
        "kind": "request",
        "meta": {"id": 1, "k": 5, "beam_width": 16},
        "arrays": ["queries"],
    }
    json_frame = framing.encode_frame(framing.MSG_JSON, json.dumps(header).encode())
    return json_frame + framing.encode_frame(framing.MSG_NDARRAY, block)


class CountingSocket(socket.socket):
    """A real socket that counts the reads made on it."""

    reads = 0

    def recv(self, *args):
        self.reads += 1
        return super().recv(*args)

    def recv_into(self, *args):
        self.reads += 1
        return super().recv_into(*args)


@contextlib.contextmanager
def socket_pair():
    """``(reading end, writing end)``; the reading end counts reads."""
    left, right = socket.socketpair()
    reader = CountingSocket(fileno=left.detach())
    reader.settimeout(10)
    with reader, right:
        yield reader, right


def reader_over(blob: bytes):
    """A ``read_exactly`` callable over an in-memory byte stream,
    honoring the stream contract: ``ConnectionClosed`` when exhausted
    before any byte, ``FrameTruncated`` on a partial read."""
    view = memoryview(blob)
    pos = 0

    def read_exactly(n: int) -> bytes:
        nonlocal pos
        if pos >= len(view) and n > 0:
            raise framing.ConnectionClosed("stream exhausted")
        chunk = bytes(view[pos : pos + n])
        if len(chunk) != n:
            raise framing.FrameTruncated(f"{len(chunk)} of {n} bytes")
        pos += n
        return chunk

    return read_exactly


# ----------------------------------------------------------------------
# Frame codec: round-trips and malformed-input rejection
# ----------------------------------------------------------------------


class TestFraming:
    @pytest.mark.parametrize(
        "dtype", ["float64", "float32", "int64", "int32", "uint8", "bool"]
    )
    def test_ndarray_round_trip_bitwise(self, dtype):
        rng = np.random.default_rng(3)
        array = (rng.standard_normal((5, 7)) * 100).astype(dtype)
        decoded = framing.decode_ndarray(framing.encode_ndarray(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)
        # A non-contiguous view still encodes its logical contents.
        sliced = array[::2, ::3]
        np.testing.assert_array_equal(
            framing.decode_ndarray(framing.encode_ndarray(sliced)), sliced
        )

    def test_object_dtype_rejected(self):
        with pytest.raises(framing.ProtocolError, match="object"):
            framing.encode_ndarray(np.array([object()], dtype=object))

    def test_bad_magic_rejected(self):
        blob = bytearray(framing.encode_message("ping"))
        blob[:4] = b"EVIL"
        with pytest.raises(framing.ProtocolError, match="magic"):
            framing.decode_message(bytes(blob))

    def test_bad_version_rejected(self):
        blob = bytearray(framing.encode_message("ping"))
        blob[4] = framing.PROTOCOL_VERSION + 1
        with pytest.raises(framing.ProtocolError, match="version"):
            framing.decode_message(bytes(blob))

    def test_unknown_msg_type_rejected(self):
        blob = bytearray(framing.encode_message("ping"))
        blob[5] = 99
        with pytest.raises(framing.ProtocolError):
            framing.decode_message(bytes(blob))

    def test_oversized_payload_rejected_before_read(self):
        # A header declaring a payload beyond the cap must be rejected
        # from the header alone — never allocated or read.
        header = struct.pack(
            ">4sBBHI",
            framing.MAGIC,
            framing.PROTOCOL_VERSION,
            framing.MSG_JSON,
            0,
            2**31,
        )
        with pytest.raises(framing.ProtocolError, match="frame"):
            framing.parse_header(header, max_frame_bytes=1024)
        # And a legitimate message is refused under a smaller cap.
        blob = framing.encode_message(
            "search", arrays={"queries": np.zeros((64, 16))}
        )
        with pytest.raises(framing.ProtocolError):
            framing.decode_message(blob, max_frame_bytes=128)

    def test_clean_eof_vs_truncation(self):
        blob = framing.encode_message(
            "search", arrays={"queries": np.zeros((2, 3))}
        )
        # Clean close at a message boundary: ConnectionClosed.
        with pytest.raises(framing.ConnectionClosed):
            framing.read_message(reader_over(b""))
        # Cut inside the first header, inside a payload, and between
        # the JSON frame and its announced ndarray frame: all
        # FrameTruncated (a subtype of ProtocolError).
        for cut in (3, framing.HEADER_SIZE + 2, len(blob) - 4):
            with pytest.raises(framing.FrameTruncated):
                framing.read_message(reader_over(blob[:cut]))
        assert issubclass(framing.FrameTruncated, framing.ProtocolError)

    def test_trailing_bytes_rejected(self):
        blob = framing.encode_message("ping")
        with pytest.raises(framing.ProtocolError, match="trail"):
            framing.decode_message(blob + b"\x00")

    def test_hostile_array_shape_is_a_protocol_error(self):
        # (2**32, 2**32) wraps to 0 in int64 and matched an empty
        # body; (0, 2**64 - 1) sizes to 0 exactly but cannot be shaped.
        for dims in ((2**32, 2**32), (0, 2**64 - 1)):
            block = struct.pack(">H", 3) + b"<f8"
            block += struct.pack(">B", len(dims))
            block += b"".join(struct.pack(">Q", dim) for dim in dims)
            with pytest.raises(framing.ProtocolError):
                framing.decode_ndarray(block)

    def test_error_codec_reconstructs_type_and_traceback(self):
        try:
            raise ValueError("k must be >= 1")
        except ValueError as exc:
            blob = framing.encode_error(exc)
        rebuilt = framing.decode_error(framing.decode_message(blob))
        assert isinstance(rebuilt, ValueError)
        assert "k must be >= 1" in str(rebuilt)
        assert "Traceback" in rebuilt.remote_traceback
        assert "ValueError" in rebuilt.remote_traceback

    def test_error_codec_degrades_unknown_types(self):
        class HomegrownError(Exception):
            pass

        blob = framing.encode_error(HomegrownError("odd"))
        rebuilt = framing.decode_error(framing.decode_message(blob))
        # Not importable on the allowlist -> the typed stand-in.
        assert isinstance(rebuilt, framing.RemoteWorkerError)
        assert "HomegrownError" in str(rebuilt)

    def test_search_request_response_round_trip(self):
        rng = np.random.default_rng(0)
        request = SearchRequest(
            queries=rng.standard_normal((4, 8)),
            k=7,
            beam_width=19,
            labels=np.array([0, 1, 0, 2]),
            max_beam_width=64,
        )
        blob = framing.encode_search_request(request, request_id=41)
        rid, decoded = framing.decode_search_request(
            framing.decode_message(blob)
        )
        assert rid == 41
        np.testing.assert_array_equal(decoded.queries, request.queries)
        np.testing.assert_array_equal(decoded.labels, request.labels)
        assert (decoded.k, decoded.beam_width, decoded.max_beam_width) == (
            7,
            19,
            64,
        )

        response = SearchResponse(
            ids=rng.integers(0, 100, size=(4, 7)),
            distances=rng.standard_normal((4, 7)),
            counts=np.full(4, 7, dtype=np.int64),
            counters={"hops": rng.integers(0, 9, size=4)},
        )
        blob = framing.encode_search_response(response, request_id=41)
        rid, decoded = framing.decode_search_response(
            framing.decode_message(blob)
        )
        assert rid == 41
        assert_responses_identical(response, decoded)

    def test_request_response_bytes_match_protocol_version_1(self):
        # The typed request/response leg is byte-compatible with every
        # PROTOCOL_VERSION 1 peer (digests taken before shard workers
        # moved onto these messages) — which is why the version stays.
        request = SearchRequest(
            queries=np.arange(24, dtype=np.float64).reshape(3, 8) / 7.0,
            k=4,
            beam_width=9,
            labels=np.array([0, 1, 2]),
            max_beam_width=64,
        )
        response = SearchResponse(
            ids=np.arange(12, dtype=np.int64).reshape(3, 4),
            distances=np.arange(12, dtype=np.float64).reshape(3, 4) / 3.0,
            counts=np.array([4, 4, 2], dtype=np.int64),
            counters={
                "hops": np.array([5, 6, 7], dtype=np.int64),
                "simulated_io_us": np.array([1.5, 2.5, 3.5]),
            },
        )
        assert framing.PROTOCOL_VERSION == 1
        for blob, digest in (
            (
                framing.encode_search_request(request, 41),
                "1f7effb8e2e74bc9fde5d75b316015c5"
                "98ab6b9c55ca335430910a9cc12f3aff",
            ),
            (
                framing.encode_search_response(response, 41),
                "38cb897fa66065aa5582f67329f25fae"
                "d923aacd674da5a35773bd56d10ef55c",
            ),
        ):
            assert hashlib.sha256(blob).hexdigest() == digest


class TestSocketReader:
    """The one buffered reader every blocking peer reads through."""

    def test_one_gateway_response_costs_at_most_two_reads(self):
        # A gateway answer is 10 frames: JSON + ids, distances, counts
        # and six counters.  Reading frame by frame took 2 reads each.
        response = SearchResponse(
            ids=np.arange(10, dtype=np.int64).reshape(1, 10),
            distances=np.linspace(0.0, 1.0, 10).reshape(1, 10),
            counts=np.array([10], dtype=np.int64),
            counters={f"counter{i}": np.array([i], dtype=np.int64) for i in range(6)},
        )
        blob = framing.encode_search_response(response, 7)
        with socket_pair() as (sock, peer), reading(sock) as stream:
            peer.sendall(blob)
            message = stream.read_message()
            assert len(message.arrays) == 9
            assert sock.reads <= 2, sock.reads
        rid, decoded = framing.decode_search_response(message)
        assert rid == 7
        assert_responses_identical(response, decoded)

    def test_back_to_back_messages_lose_no_bytes(self):
        first = framing.encode_message(
            "request", meta={"n": 1}, arrays={"q": np.arange(5.0)}
        )
        second = framing.encode_message("ping", meta={"n": 2})
        with socket_pair() as (sock, peer), reading(sock) as stream:
            peer.sendall(first + second)  # one send, two messages
            peer.close()
            one, two = stream.read_message(), stream.read_message()
            with pytest.raises(framing.ConnectionClosed):
                stream.read_message()
        assert (one.kind, one.meta) == ("request", {"n": 1})
        assert (two.kind, two.meta) == ("ping", {"n": 2})
        np.testing.assert_array_equal(one.arrays["q"], np.arange(5.0))

    def test_clean_close_vs_truncation(self):
        blob = framing.encode_message(
            "search", arrays={"queries": np.zeros((2, 3))}
        )
        json_frame = framing.HEADER_SIZE + struct.unpack_from(">I", blob, 8)[0]
        # A close before the first byte of a message is clean.
        with socket_pair() as (sock, peer), reading(sock) as stream:
            peer.close()
            with pytest.raises(framing.ConnectionClosed):
                stream.read_message()
        # Mid-header, mid-payload, between the JSON frame and its
        # announced ndarray frame, and mid-ndarray: all truncation.
        for cut in (3, framing.HEADER_SIZE + 2, json_frame, len(blob) - 4):
            with socket_pair() as (sock, peer), reading(sock) as stream:
                peer.sendall(blob[:cut])
                peer.close()
                with pytest.raises(framing.FrameTruncated):
                    stream.read_message()

    def test_oversize_length_refused_before_its_body_is_read(self):
        header = struct.pack(
            ">4sBBHI",
            framing.MAGIC,
            framing.PROTOCOL_VERSION,
            framing.MSG_JSON,
            0,
            2**31,
        )
        with socket_pair() as (sock, peer), reading(sock) as stream:
            # The peer stays open: reading the body would block until
            # the socket's timeout, not fail on the cap.
            peer.sendall(header)
            with pytest.raises(framing.ProtocolError, match="cap") as info:
                stream.read_message(max_frame_bytes=1024)
        assert not isinstance(info.value, framing.FrameTruncated)


# ----------------------------------------------------------------------
# Worker transport: in-thread server + ShardClient
# ----------------------------------------------------------------------


class TestShardTransport:
    def test_socket_path_serves_over_af_unix(
        self, setup, memory_index, tmp_path
    ):
        # The process kind's transport: a socket path as the host binds
        # AF_UNIX there, and the same client dials it by that path.
        data, _ = setup
        path = str(tmp_path / "worker.sock")
        request = SearchRequest(data.queries, k=5, beam_width=16)
        with inproc_server(memory_index, host=path) as server:
            assert server.address_family == socket.AF_UNIX
            assert server.endpoint == path
            with ShardClient(path) as client:
                client.ping()
                assert_responses_identical(
                    memory_index.search(request), client.search(request)
                )

    def test_ping_search_parity_and_remote_errors(self, setup, memory_index):
        data, _ = setup
        with inproc_server(memory_index) as server:
            with ShardClient(endpoint_of(server)) as client:
                client.ping()
                expected = search(
                    memory_index, data.queries, k=5, beam_width=16
                )
                got = client.search(
                    SearchRequest(data.queries, k=5, beam_width=16)
                )
                assert_responses_identical(expected, got)
                # The repo benchmark's driver spells the same call
                # positionally; it must keep answering identically.
                assert_responses_identical(
                    expected, client.search(data.queries, 5, 16, {})
                )
                # A worker-side failure comes back typed, with the
                # remote traceback attached, and the connection stays
                # usable for the next request.
                with pytest.raises(ValueError, match="filtered") as excinfo:
                    client.search(
                        SearchRequest(data.queries, 5, 16, labels=1)
                    )
                assert excinfo.value.__cause__ is not None
                client.ping()

    def test_stale_search_request_is_a_typed_protocol_error(
        self, setup, memory_index
    ):
        # A peer still speaking the retired ``search`` message gets a
        # typed error frame back — never a hang, never an answer — and
        # the connection stays framed for the next request.
        data, _ = setup
        stale = framing.encode_message(
            "search",
            meta={
                "k": 5,
                "beam_width": 16,
                "kw_scalars": {},
                "kw_arrays": [],
            },
            arrays={"queries": data.queries},
        )
        with inproc_server(memory_index) as server:
            with ShardClient(
                endpoint_of(server), read_timeout_s=10.0
            ) as client:
                with pytest.raises(
                    (framing.ProtocolError, framing.RemoteWorkerError),
                    match="search",
                ):
                    client._request(stale, "response")
                client.ping()

    def test_stale_result_reply_is_a_typed_protocol_error(self, setup):
        # A worker still answering with the retired ``result`` message
        # (class named by module + qualname strings) must never be
        # decoded into an object: the client raises ProtocolError.
        data, _ = setup
        reply = framing.encode_message(
            "result",
            meta={
                "module": "repro.api.protocol",
                "qualname": "SearchResponse",
            },
            arrays={"ids": np.zeros((1, 5), dtype=np.int64)},
        )
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def stale_worker():
            conn, _ = listener.accept()
            with conn, reading(conn) as stream:
                stream.read_message()
                conn.sendall(reply)

        thread = threading.Thread(target=stale_worker, daemon=True)
        thread.start()
        try:
            with ShardClient(f"{host}:{port}", read_timeout_s=10.0) as client:
                with pytest.raises(framing.ProtocolError, match="result"):
                    client.search(
                        SearchRequest(data.queries[:1], k=5, beam_width=16)
                    )
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_garbage_input_gets_error_frame_not_worker_death(
        self, setup, memory_index
    ):
        data, _ = setup
        with inproc_server(memory_index) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"NOTAFRAME-------")
                with reading(sock) as stream:
                    kind, payload = framing.reply_payload(
                        stream.read_message()
                    )
                    assert kind == "error"
                    # Stream unframed: hang up.
                    with pytest.raises(framing.ConnectionClosed):
                        stream.read_message()
            # The worker survives for well-formed clients.
            with ShardClient(endpoint_of(server)) as client:
                client.ping()

    def test_hostile_array_header_gets_error_frame_not_worker_death(
        self, setup, memory_index
    ):
        data, _ = setup
        with inproc_server(memory_index) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(hostile_request())
                with reading(sock) as stream:
                    kind, payload = framing.reply_payload(
                        stream.read_message()
                    )
                    assert kind == "error"
                    assert isinstance(payload, framing.ProtocolError)
                    with pytest.raises(framing.ConnectionClosed):
                        stream.read_message()
            with ShardClient(endpoint_of(server)) as client:
                client.ping()
                assert_responses_identical(
                    search(memory_index, data.queries, k=5, beam_width=16),
                    client.search(data.queries, 5, 16, {}),
                )

    def test_read_timeout_reconnects_with_a_fresh_reader(self):
        # The first connection answers with 5 bytes of a frame and
        # stalls.  After the timeout the client must reconnect with a
        # new reader: the old one's buffered bytes would mis-frame the
        # second connection's reply.
        reply = framing.encode_message("pong")
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        timed_out = threading.Event()

        def stalling_then_sound():
            conn, _ = listener.accept()
            with conn, reading(conn) as stream:
                stream.read_message()
                conn.sendall(reply[:5])
                timed_out.wait(10)
            conn, _ = listener.accept()
            with conn, reading(conn) as stream:
                stream.read_message()
                conn.sendall(reply)
                with contextlib.suppress(framing.ConnectionClosed):
                    stream.read_message()

        thread = threading.Thread(target=stalling_then_sound, daemon=True)
        thread.start()
        try:
            with ShardClient(f"{host}:{port}", read_timeout_s=0.3) as client:
                client.send(framing.encode_message("ping"))
                first = client._stream
                with pytest.raises(ReplicaDied) as excinfo:
                    client.recv("pong")
                assert isinstance(excinfo.value.__cause__, TimeoutError)
                assert client._stream is None
                timed_out.set()
                client.ping()
                assert client._stream is not None
                assert client._stream is not first
        finally:
            timed_out.set()
            thread.join(timeout=10)
            listener.close()

    def test_unframed_reply_drops_the_connection(self):
        # A reply with bad magic is a typed ProtocolError, and the rest
        # of that stream is never read as the next reply.
        good = framing.encode_message("pong")
        bad = b"EVIL" + good[4:]
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def unframed_then_sound():
            for reply in (bad + good, good):
                conn, _ = listener.accept()
                with conn, reading(conn) as stream:
                    stream.read_message()
                    conn.sendall(reply)
                    with contextlib.suppress(framing.ConnectionClosed):
                        stream.read_message()  # until the client leaves

        thread = threading.Thread(target=unframed_then_sound, daemon=True)
        thread.start()
        try:
            with ShardClient(f"{host}:{port}", read_timeout_s=10.0) as client:
                with pytest.raises(framing.ProtocolError, match="magic"):
                    client.ping()
                assert client._stream is None
                client.ping()
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_dead_worker_surfaces_replica_died(self, memory_index):
        with inproc_server(memory_index) as server:
            endpoint = endpoint_of(server)
        # Server is gone; a fast-backoff client must give up typed.
        client = ShardClient(
            endpoint, max_retries=1, backoff_base_s=0.01,
            connect_timeout_s=1.0,
        )
        with pytest.raises(ReplicaDied, match="connect"):
            client.ping()

    def test_mid_stream_disconnect_is_replica_died(self):
        # A hand-rolled server that answers with *half* a frame and
        # hangs up mid-response: the client must not hang or mis-frame,
        # it must surface ReplicaDied (chained from FrameTruncated).
        reply = framing.encode_message("pong")
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def half_answer():
            conn, _ = listener.accept()
            with conn, reading(conn) as stream:
                stream.read_message()
                conn.sendall(reply[: len(reply) - 3])

        thread = threading.Thread(target=half_answer, daemon=True)
        thread.start()
        try:
            with ShardClient(f"{host}:{port}", read_timeout_s=10.0) as client:
                with pytest.raises(ReplicaDied) as excinfo:
                    client.ping()
            assert isinstance(
                excinfo.value.__cause__, framing.FrameTruncated
            )
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_socket_backend_parity_and_invalidate_guard(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        request = SearchRequest(queries=data.queries, k=5, beam_width=16)
        expected = sharded.search(request)
        with contextlib.ExitStack() as stack:
            servers = [
                stack.enter_context(inproc_server(shard))
                for shard in sharded._shards
            ]
            endpoints = [endpoint_of(s) for s in servers]
            sharded.set_backend("socket", endpoints=endpoints)
            try:
                for replicas in (1, 2):
                    sharded.set_replicas(replicas)
                    assert sharded.backend == "socket"
                    assert_responses_identical(
                        expected, sharded.search(request)
                    )
                    rows = sharded.fleet_status()
                    assert [r["endpoint"] for r in rows] == [
                        e for e in endpoints for _ in range(replicas)
                    ]
                    # Streaming writes cannot re-ship remote state.
                    with pytest.raises(RuntimeError, match="wire"):
                        sharded._backend.invalidate(0)
            finally:
                sharded.close()
                sharded.set_replicas(1)
                sharded.set_backend("thread")

    def test_spec_round_trip_carries_endpoints(self):
        spec = IndexSpec(
            sharding=ShardingSpec(
                num_shards=2,
                backend="socket",
                endpoints=["127.0.0.1:7001", "127.0.0.1:7002"],
            )
        )
        restored = IndexSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.sharding.endpoints == [
            "127.0.0.1:7001",
            "127.0.0.1:7002",
        ]
        with pytest.raises(ValueError, match="endpoints"):
            build(IndexSpec(sharding=ShardingSpec(
                num_shards=2, backend="socket"
            )))
        with pytest.raises(ValueError, match="socket"):
            build(IndexSpec(sharding=ShardingSpec(
                num_shards=2, backend="thread",
                endpoints=["127.0.0.1:7001", "127.0.0.1:7002"],
            )))


# ----------------------------------------------------------------------
# Gateway: identity, concurrency, backpressure, error frames
# ----------------------------------------------------------------------


class TestGateway:
    def test_identity_with_in_process_serving(self, setup, memory_index):
        data, _ = setup
        request = SearchRequest(queries=data.queries, k=5, beam_width=16)
        expected = memory_index.search(request)
        with GatewayThread(memory_index) as gw:
            with NetClient(gw.connect) as client:
                assert_responses_identical(expected, client.search(request))

    def test_concurrent_clients_no_cross_delivery(self, setup, memory_index):
        data, _ = setup
        reference = memory_index.search(
            SearchRequest(queries=data.queries, k=5, beam_width=16)
        )
        errors: list = []

        def hammer(row: int) -> None:
            try:
                with NetClient(gw.connect) as client:
                    request = SearchRequest(
                        queries=data.queries[row : row + 1],
                        k=5,
                        beam_width=16,
                    )
                    futures = [
                        client.submit_request(request) for _ in range(6)
                    ]
                    for future in futures:
                        response = future.result(timeout=60)
                        np.testing.assert_array_equal(
                            response.ids[0], reference.ids[row]
                        )
                        np.testing.assert_array_equal(
                            response.distances[0], reference.distances[row]
                        )
            except BaseException as exc:  # surfaced after join
                errors.append((row, exc))

        with GatewayThread(memory_index) as gw:
            threads = [
                threading.Thread(target=hammer, args=(row,))
                for row in range(data.queries.shape[0])
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = gw.gateway.stats
            assert stats.requests_total == 6 * data.queries.shape[0]
        assert errors == []

    def test_backpressure_bounds_per_connection_inflight(
        self, setup, memory_index
    ):
        data, _ = setup
        cap = 3
        request = SearchRequest(
            queries=data.queries[:1], k=5, beam_width=16
        )
        with GatewayThread(
            memory_index, max_inflight_per_conn=cap, max_wait_ms=0.5
        ) as gw:
            with NetClient(gw.connect) as client:
                futures = [client.submit_request(request) for _ in range(24)]
                for future in futures:
                    future.result(timeout=60)
            stats = gw.gateway.stats
            assert stats.requests_total == 24
            # The semaphore is the bounded write queue: the gateway
            # never admits more than `cap` requests from one
            # connection, no matter how many the client floods.
            assert 1 <= stats.peak_inflight <= cap

    def test_error_frames_carry_remote_traceback(self, setup, memory_index):
        data, _ = setup
        bad = SearchRequest(
            queries=data.queries, k=5, beam_width=16, labels=1
        )
        good = SearchRequest(queries=data.queries, k=5, beam_width=16)
        expected = memory_index.search(good)
        with GatewayThread(memory_index) as gw:
            with NetClient(gw.connect) as client:
                with pytest.raises(ValueError, match="filtered"):
                    client.search(bad)
                # The connection survives the failed request.
                assert_responses_identical(expected, client.search(good))
            assert gw.gateway.stats.errors_total >= 1

    def test_protocol_garbage_answers_error_frame_and_hangs_up(
        self, memory_index
    ):
        with GatewayThread(memory_index) as gw:
            host, port = gw.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"\x00" * framing.HEADER_SIZE)
                with reading(sock) as stream:
                    kind, _ = framing.reply_payload(stream.read_message())
                    assert kind == "error"
                    with pytest.raises(framing.ConnectionClosed):
                        stream.read_message()
            assert gw.gateway.stats.protocol_errors_total >= 1

    def test_hostile_array_header_answers_error_frame_and_hangs_up(
        self, memory_index
    ):
        with GatewayThread(memory_index) as gw:
            host, port = gw.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(hostile_request())
                with reading(sock) as stream:
                    message = stream.read_message()
                    kind, payload = framing.reply_payload(message)
                    assert kind == "error"
                    assert message.meta["id"] is None  # connection-level
                    assert isinstance(payload, framing.ProtocolError)
                    with pytest.raises(framing.ConnectionClosed):
                        stream.read_message()
            assert gw.gateway.stats.protocol_errors_total == 1

    def test_client_disconnect_mid_flight_does_not_kill_gateway(
        self, setup, memory_index
    ):
        data, _ = setup
        request = SearchRequest(queries=data.queries, k=5, beam_width=16)
        expected = memory_index.search(request)
        with GatewayThread(memory_index) as gw:
            client = NetClient(gw.connect)
            for _ in range(4):
                client.submit_request(request)
            client.close()  # mid-flight disconnect
            # Gateway keeps serving fresh connections.
            with NetClient(gw.connect) as client2:
                assert_responses_identical(expected, client2.search(request))


class _RecordingIndex:
    """Answers through ``inner`` (scenario extras dropped), recording
    each call's row count and thread name.  With ``hold_first`` set, the first call blocks until
    ``hold_first()`` is true (or 30 s pass); with ``failing`` set,
    every call raises instead."""

    def __init__(self, inner, hold_first=None) -> None:
        self.inner = inner
        self.hold_first = hold_first
        self.failing = False
        self.batch_sizes: list = []
        self.threads: list = []
        self.first_started = threading.Event()

    def search(self, request):
        self.batch_sizes.append(request.query_matrix.shape[0])
        self.threads.append(threading.current_thread().name)
        if len(self.batch_sizes) == 1 and self.hold_first is not None:
            self.first_started.set()
            deadline = time.monotonic() + 30
            while not self.hold_first() and time.monotonic() < deadline:
                time.sleep(0.001)
        if self.failing:
            raise RuntimeError("index exploded")
        return self.inner.search(
            SearchRequest(
                queries=request.queries,
                k=request.k,
                beam_width=request.beam_width,
            )
        )


class TestGatewayBatching:
    """Batchable requests go from the event loop into the batcher's
    queue: nothing but admission caps how many rows one micro-batch
    can carry."""

    def test_micro_batch_carries_every_admitted_request(
        self, setup, memory_index
    ):
        data, _ = setup
        gw_box: list = []
        index = _RecordingIndex(
            memory_index,
            hold_first=lambda: gw_box[0].gateway.stats.inflight == 32,
        )
        rows = [i % data.queries.shape[0] for i in range(32)]
        reference = memory_index.search(
            SearchRequest(queries=data.queries, k=5, beam_width=16)
        )
        with GatewayThread(index, max_batch_size=64, max_wait_ms=0) as gw:
            gw_box.append(gw)
            with NetClient(gw.connect) as client:

                def submit(row):
                    return client.submit_request(
                        SearchRequest(
                            queries=data.queries[row : row + 1],
                            k=5,
                            beam_width=16,
                        )
                    )

                # One request occupies the batcher's worker, then 31
                # more are admitted behind it.
                futures = [submit(rows[0])]
                assert index.first_started.wait(30)
                futures += [submit(row) for row in rows[1:]]
                for row, future in zip(rows, futures):
                    response = future.result(timeout=60)
                    np.testing.assert_array_equal(
                        response.ids[0], reference.ids[row]
                    )
                    np.testing.assert_array_equal(
                        response.distances[0], reference.distances[row]
                    )
        assert index.batch_sizes[0] == 1
        # A thread parked per request would cap this at the pool size.
        assert index.batch_sizes[1] > 16, index.batch_sizes

    def test_one_connection_fills_a_size_triggered_batch(
        self, setup, memory_index
    ):
        # The admission cap defaults to twice the batch size, so one
        # pipelined connection can fill a batch.  A cap below 64 would
        # leave the batch waiting out its 60 s deadline.
        data, _ = setup
        index = _RecordingIndex(memory_index)
        rows = [i % data.queries.shape[0] for i in range(64)]
        requests = [
            SearchRequest(
                queries=data.queries[row : row + 1], k=5, beam_width=16
            )
            for row in rows
        ]
        with GatewayThread(
            index, max_batch_size=64, max_wait_ms=60_000
        ) as gw:
            with NetClient(gw.connect) as client:
                futures = [client.submit_request(r) for r in requests]
                responses = [future.result(timeout=30) for future in futures]
        assert index.batch_sizes == [64]
        for request, response in zip(requests, responses):
            assert_responses_identical(memory_index.search(request), response)

    def test_request_straddling_micro_batches_reassembles_bitwise(
        self, setup, memory_index
    ):
        data, _ = setup
        request = SearchRequest(queries=data.queries, k=5, beam_width=16)
        expected = memory_index.search(request)
        index = _RecordingIndex(memory_index)
        with GatewayThread(index, max_batch_size=2) as gw:
            with NetClient(gw.connect) as client:
                assert_responses_identical(expected, client.search(request))
        assert max(index.batch_sizes) <= 2
        assert sum(index.batch_sizes) == data.queries.shape[0]

    def test_failed_batch_fails_each_request_and_connection_survives(
        self, setup, memory_index
    ):
        data, _ = setup
        index = _RecordingIndex(memory_index)
        index.failing = True
        request = SearchRequest(queries=data.queries[:1], k=5, beam_width=16)
        # A far deadline: the batch goes out when its 4th row arrives.
        with GatewayThread(
            index, max_batch_size=4, max_wait_ms=60_000
        ) as gw:
            with NetClient(gw.connect) as client:
                futures = [client.submit_request(request) for _ in range(4)]
                for future in futures:
                    with pytest.raises(RuntimeError, match="index exploded"):
                        future.result(timeout=60)
                assert index.batch_sizes == [4]
                assert gw.gateway.stats.errors_total == 4
                index.failing = False
                futures = [client.submit_request(request) for _ in range(4)]
                expected = memory_index.search(request)
                for future in futures:
                    assert_responses_identical(
                        expected, future.result(timeout=60)
                    )

    def test_shutdown_flushes_a_partial_micro_batch_at_once(
        self, setup, memory_index
    ):
        # Three rows wait in a 64-row batch with an 8 s deadline: a
        # graceful close answers them now, not after the deadline.
        data, _ = setup
        requests = [
            SearchRequest(queries=data.queries[i : i + 1], k=5, beam_width=16)
            for i in range(3)
        ]
        gw = GatewayThread(memory_index, max_batch_size=64, max_wait_ms=8_000)
        with NetClient(gw.connect) as client:
            try:
                futures = [client.submit_request(r) for r in requests]
                deadline = time.monotonic() + 30
                while (
                    gw.gateway.stats.inflight < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
                assert gw.gateway.stats.inflight == 3
                start = time.monotonic()
                gw.close()
                elapsed = time.monotonic() - start
            finally:
                gw.close()
            for request, future in zip(requests, futures):
                assert_responses_identical(
                    memory_index.search(request), future.result(timeout=5)
                )
        assert elapsed < 2.0, elapsed

    def test_requests_with_labels_take_the_executor_path(
        self, setup, memory_index
    ):
        data, _ = setup
        index = _RecordingIndex(memory_index)
        plain = SearchRequest(queries=data.queries, k=5, beam_width=16)
        labelled = SearchRequest(
            queries=data.queries, k=5, beam_width=16, labels=1
        )
        expected = memory_index.search(plain)
        with GatewayThread(index) as gw:
            with NetClient(gw.connect) as client:
                assert_responses_identical(expected, client.search(labelled))
                assert_responses_identical(expected, client.search(plain))
        # The labelled request ran whole on the gateway's pool; the
        # plain one rode the batcher's worker.
        assert index.batch_sizes[0] == data.queries.shape[0]
        assert index.threads[0].startswith("repro-gateway")
        assert all(name == "repro-batcher" for name in index.threads[1:])

    def test_empty_request_takes_the_executor_path(self, setup, memory_index):
        data, _ = setup
        index = _RecordingIndex(memory_index)
        empty = SearchRequest(queries=data.queries[:0], k=5, beam_width=16)
        with GatewayThread(index) as gw:
            with NetClient(gw.connect) as client:
                response = client.search(empty)
        assert response.ids.shape == (0, 5)
        assert response.counters["batcher_dequeue_s"].shape == (0,)
        assert index.threads == [index.threads[0]]
        assert index.threads[0].startswith("repro-gateway")


# ----------------------------------------------------------------------
# Graceful shutdown (SIGTERM drains) — CLI subprocesses
# ----------------------------------------------------------------------


def _spawn_cli(args, cwd):
    env = dict(os.environ)
    src = os.path.join(cwd, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=cwd,
        env=env,
    )


def _await_listening(proc, marker: str, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if marker in line:
            return line.strip().rsplit(" ", 1)[-1]
    proc.kill()
    pytest.fail(f"no {marker!r} line from CLI; output: {''.join(lines)}")


@pytest.fixture(scope="module")
def saved_index_dir(tmp_path_factory, setup):
    data, quantizer = setup
    index = build_memory(data.base, quantizer)
    dirpath = tmp_path_factory.mktemp("netidx") / "memory"
    save_index(index, dirpath)
    return str(dirpath)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
class TestGracefulShutdown:
    def test_serve_shard_sigterm_exits_zero(self, setup, saved_index_dir):
        data, _ = setup
        proc = _spawn_cli(
            ["serve-shard", "--dir", saved_index_dir], cwd=REPO_ROOT
        )
        try:
            endpoint = _await_listening(proc, "listening on")
            with ShardClient(endpoint) as client:
                client.ping()
                result = client.search(
                    SearchRequest(data.queries, k=5, beam_width=16)
                )
                assert result.ids.shape == (data.queries.shape[0], 5)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_gateway_listen_sigterm_exits_zero(self, setup, saved_index_dir):
        data, _ = setup
        proc = _spawn_cli(
            [
                "experiment",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--dir",
                saved_index_dir,
            ],
            cwd=REPO_ROOT,
        )
        try:
            address = _await_listening(proc, "gateway listening on")
            with NetClient(address) as client:
                request = SearchRequest(
                    queries=data.queries, k=5, beam_width=16
                )
                response = client.search(request)
                assert response.num_queries == data.queries.shape[0]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Acceptance matrix (slow lane): five scenarios + SIGKILL chaos
# ----------------------------------------------------------------------


SCENARIOS = [
    ("memory", {}, None),
    ("hybrid", {"io_width": 2}, None),
    ("l2r", {"seed": 1}, None),
    ("streaming", {"r": 8, "search_l": 16}, None),
    ("filtered", {"num_labels": 3, "label_seed": 1}, 1),
]


def scenario_spec(kind: str, params: dict) -> IndexSpec:
    return IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=160, n_queries=6, seed=5),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16),
        scenario=ScenarioSpec(kind=kind, params=params),
        sharding=ShardingSpec(num_shards=2),
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind,params,label",
    SCENARIOS,
    ids=[kind for kind, _, _ in SCENARIOS],
)
def test_gateway_over_socket_workers_matches_in_process(
    tmp_path, kind, params, label
):
    """The acceptance path: NetClient → gateway → socket shard workers
    is bitwise identical to the in-process ShardedIndex, per scenario."""
    spec = scenario_spec(kind, params)
    index = build(spec)
    queries = load("sift", n_base=160, n_queries=6, seed=5).queries
    request = SearchRequest(
        queries=queries, k=5, beam_width=16, labels=label
    )
    expected = index.search(request)
    save_index(index, tmp_path)
    index.close()

    with contextlib.ExitStack() as stack:
        workers = [
            stack.enter_context(
                LocalShardWorker(str(tmp_path / f"shard_{s:03d}"))
            )
            for s in range(2)
        ]
        remote = load_index(tmp_path)
        stack.callback(remote.close)
        remote.set_backend(
            "socket", endpoints=[w.endpoint for w in workers]
        )
        # Tier 1: the socket fan-out alone.
        assert_responses_identical(expected, remote.search(request))
        # Tier 2: the full network path through the gateway.
        gw = stack.enter_context(GatewayThread(remote))
        with NetClient(gw.connect) as client:
            assert_responses_identical(expected, client.search(request))


@pytest.mark.slow
def test_sigkill_socket_worker_fails_over_and_respawns(tmp_path, setup):
    """SIGKILL one worker of a replicated socket fleet mid-load: zero
    failed requests (in-request failover to the sibling), and the
    supervisor + external respawner heal the fleet."""
    data, quantizer = setup
    sharded = ShardedIndex.build(
        data.base, 2, lambda xs: build_memory(xs, quantizer)
    )
    expected = search(sharded, data.queries, k=10, beam_width=24)
    save_index(sharded, tmp_path)

    with contextlib.ExitStack() as stack:
        # Two distinct workers per shard: killing one must leave a
        # live sibling to fail over to.
        workers = {}
        endpoints = []
        for s in range(2):
            row = []
            for _ in range(2):
                worker = stack.enter_context(
                    LocalShardWorker(str(tmp_path / f"shard_{s:03d}"))
                )
                workers[worker.endpoint] = worker
                row.append(worker.endpoint)
            endpoints.append(row)
        fleet = ShardedIndex(
            sharded._shards,
            global_ids=sharded._global_ids,
            backend="socket",
            replicas=2,
            endpoints=endpoints,
        )
        stack.callback(fleet.close)

        # Warm the fleet, then hand every replica its respawner (the
        # stand-in for a real deployment's systemd/k8s restart).
        np.testing.assert_array_equal(
            expected.ids,
            search(fleet, data.queries, k=10, beam_width=24).ids,
        )
        for row in fleet._backend._fleet:
            for replica in row:
                replica._respawner = workers[replica.endpoint].respawn

        victim = workers[endpoints[0][0]]
        failed = 0
        for i in range(6):
            if i == 1:
                victim.kill()
            try:
                result = search(fleet, data.queries, k=10, beam_width=24)
            except Exception:
                failed += 1
                continue
            np.testing.assert_array_equal(expected.ids, result.ids)
            np.testing.assert_array_equal(
                expected.distances, result.distances
            )
        assert failed == 0

        # The supervisor runs respawn_and_verify -> the respawner
        # boots a fresh worker process on the same port.
        wait_for_respawn(fleet)
        # And the healed fleet still answers identically.
        np.testing.assert_array_equal(
            expected.ids,
            search(fleet, data.queries, k=10, beam_width=24).ids,
        )


@pytest.mark.slow
def test_local_worker_respawn_is_bounded_by_one_deadline(tmp_path, setup):
    """``respawn`` retries a failed boot under one deadline: with its
    port held by another socket it raises ``RuntimeError`` about
    ``timeout`` (plus one spawn) later and leaves no process behind."""
    data, quantizer = setup
    save_index(build_memory(data.base, quantizer), tmp_path)
    start = time.monotonic()
    worker = LocalShardWorker(str(tmp_path))
    spawn_s = time.monotonic() - start
    timeout = 1.0
    with worker, socket.socket() as holder:
        worker.stop()
        holder.bind(("127.0.0.1", worker.port))
        holder.listen()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="did not come back"):
            worker.respawn(timeout=timeout)
        elapsed = time.monotonic() - start
        assert worker.pid is None
    assert elapsed < timeout + 2 * spawn_s + 1.0, (elapsed, spawn_s)


@pytest.mark.slow
def test_sigkill_sole_socket_worker_fails_loudly_then_readmits(tmp_path, setup):
    """``replicas == 1`` over sockets: the same policy as the process
    kind — no sibling, so the request fails typed (never padded) until
    the supervisor + external respawner re-admit the worker."""
    data, quantizer = setup
    sharded = ShardedIndex.build(
        data.base, 2, lambda xs: build_memory(xs, quantizer)
    )
    request = SearchRequest(queries=data.queries, k=10, beam_width=24)
    expected = sharded.search(request)
    save_index(sharded, tmp_path)

    with contextlib.ExitStack() as stack:
        workers = [
            stack.enter_context(
                LocalShardWorker(str(tmp_path / f"shard_{s:03d}"))
            )
            for s in range(2)
        ]
        sharded.set_backend("socket", endpoints=[w.endpoint for w in workers])
        stack.callback(sharded.close)
        assert_responses_identical(expected, sharded.search(request))

        workers[0].kill()
        with pytest.raises(RuntimeError, match="died") as info:
            sharded.search(request)
        assert isinstance(info.value, ReplicaDied)
        assert [r["alive"] for r in sharded.fleet_status()] == [False, True]
        # Only now hand the supervisor its respawner (the stand-in for
        # systemd/k8s): until the worker is back, requests keep failing.
        with pytest.raises(ReplicaDied, match="died"):
            sharded.search(request)
        sharded._backend._fleet[0][0]._respawner = workers[0].respawn
        rows = wait_for_respawn(sharded)
        assert [r["restarts"] for r in rows] == [1, 0]
        assert_responses_identical(expected, sharded.search(request))
