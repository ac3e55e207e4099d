"""The wire protocol: length-prefixed, versioned binary framing.

This module is the *single* protocol definition of the repo: the one
shard-worker transport (TCP ``serve-shard`` workers and the process
kind's AF_UNIX workers alike), the asyncio gateway, and a local
worker's boot report all speak it (see ``docs/architecture.md``,
"Network tier").

Frame layout (all integers big-endian)::

    +-------+---------+----------+----------+-------------+---------+
    | magic | version | msg type | reserved | payload len | payload |
    | 4 B   | 1 B     | 1 B      | 2 B      | 4 B         | ...     |
    +-------+---------+----------+----------+-------------+---------+

Two frame types exist: ``MSG_JSON`` (a UTF-8 JSON object) and
``MSG_NDARRAY`` (a raw C-order array block: dtype string + shape +
bytes), so hot arrays — queries, ids, distances — never round-trip
through JSON floats and decode bitwise.

A logical *message* is one JSON header frame ::

    {"kind": "...", "meta": {...}, "arrays": ["name", ...]}

followed by exactly ``len(arrays)`` ndarray frames, in order.  Error
messages (``kind="error"``) carry the worker-side exception type,
message, and formatted ``remote_traceback`` so remote failures re-raise
with their real frames attached (the ``concurrent.futures`` idiom).

Strictness rules, enforced on every decode path:

* bad magic or an unknown version → :class:`ProtocolError`
  (never a silent resync attempt);
* a declared payload length above ``max_frame_bytes`` →
  :class:`ProtocolError` *before* any allocation;
* a stream that ends mid-frame → :class:`FrameTruncated`;
* a stream that ends cleanly *between* messages →
  :class:`ConnectionClosed` (the one non-error way a peer leaves).

Every blocking peer — :class:`~repro.serving.net.ShardClient`,
:class:`~repro.serving.net.NetClient`'s reader thread and each shard
worker connection — reads through one :class:`SocketReader` per
connection; the asyncio gateway's ``StreamReader`` is its buffered twin.
"""

from __future__ import annotations

import builtins
import dataclasses
import importlib
import json
import math
import struct
import traceback
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: First bytes of every frame; anything else on the wire is not ours.
MAGIC = b"RPQN"
PROTOCOL_VERSION = 1

MSG_JSON = 1
MSG_NDARRAY = 2
_MSG_TYPES = (MSG_JSON, MSG_NDARRAY)

_HEADER = struct.Struct(">4sBBHI")
HEADER_SIZE = _HEADER.size

#: Default per-frame payload cap.  Large enough for any realistic
#: query/result block at this repo's scale, small enough that a
#: corrupted or hostile length field cannot trigger a giant allocation.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: A :class:`SocketReader`'s buffer: one ``recv`` holds a typical shard
#: reply (a 64-row answer, k = 10, six counters: 14 KiB).
_READ_BUFFER_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """The peer sent something that is not valid protocol: bad magic,
    unknown version/msg type, an oversized payload, or a malformed
    payload body.  Connections that see this must be torn down — the
    stream cannot be re-framed."""


class FrameTruncated(ProtocolError):
    """The stream ended mid-frame (short read inside a header or
    payload) — distinct from a clean close between messages."""


class ConnectionClosed(EOFError):
    """The peer closed the connection at a message boundary."""


class RemoteWorkerError(RuntimeError):
    """Stand-in raised when a remote error's original exception type
    cannot be reconstructed locally (unknown module, exotic ctor)."""


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------


def encode_frame(
    msg_type: int,
    payload: bytes,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One complete frame: header + payload."""
    if msg_type not in _MSG_TYPES:
        raise ProtocolError(f"unknown message type {msg_type}")
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return (
        _HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, 0, len(payload))
        + payload
    )


def parse_header(
    header: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Tuple[int, int]:
    """Validate a raw header; returns ``(msg_type, payload_len)``.

    The length check runs *here*, before the caller allocates or reads
    a single payload byte.
    """
    if len(header) != HEADER_SIZE:
        raise FrameTruncated(
            f"frame header is {len(header)} bytes, expected {HEADER_SIZE}"
        )
    magic, version, msg_type, _reserved, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            "the peer is not speaking this protocol"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    if msg_type not in _MSG_TYPES:
        raise ProtocolError(f"unknown message type {msg_type}")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return msg_type, length


# ----------------------------------------------------------------------
# ndarray payloads
# ----------------------------------------------------------------------

_NDARRAY_HEAD = struct.Struct(">H")  # dtype-string length
_NDARRAY_NDIM = struct.Struct(">B")
_NDARRAY_DIM = struct.Struct(">Q")


def encode_ndarray(array: np.ndarray) -> bytes:
    """Raw array block: dtype string + shape + C-order bytes (exact)."""
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ProtocolError(
            f"cannot encode object-dtype array (dtype {array.dtype}); "
            "only fixed-size numeric/bool dtypes cross the wire"
        )
    dtype = array.dtype.str.encode("ascii")
    parts = [_NDARRAY_HEAD.pack(len(dtype)), dtype]
    parts.append(_NDARRAY_NDIM.pack(array.ndim))
    for dim in array.shape:
        parts.append(_NDARRAY_DIM.pack(dim))
    parts.append(array.tobytes(order="C"))
    return b"".join(parts)


def decode_ndarray(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_ndarray`; bitwise-exact round-trip."""
    offset = 0
    try:
        (dtype_len,) = _NDARRAY_HEAD.unpack_from(payload, offset)
        offset += _NDARRAY_HEAD.size
        dtype = np.dtype(payload[offset : offset + dtype_len].decode("ascii"))
        offset += dtype_len
        (ndim,) = _NDARRAY_NDIM.unpack_from(payload, offset)
        offset += _NDARRAY_NDIM.size
        shape = []
        for _ in range(ndim):
            (dim,) = _NDARRAY_DIM.unpack_from(payload, offset)
            offset += _NDARRAY_DIM.size
            shape.append(int(dim))
    except (struct.error, UnicodeDecodeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed ndarray block: {exc}") from exc
    if dtype.hasobject:
        raise ProtocolError("object-dtype ndarray blocks are not allowed")
    # Exact integers: a hostile shape cannot wrap around to match.
    expected = math.prod(shape) * dtype.itemsize
    body = payload[offset:]
    if len(body) != expected:
        raise ProtocolError(
            f"ndarray block declares shape {tuple(shape)} dtype {dtype} "
            f"({expected} bytes) but carries {len(body)} bytes"
        )
    try:
        array = np.frombuffer(body, dtype=dtype).reshape(shape)
    except ValueError as exc:  # e.g. an empty block with a huge dim
        raise ProtocolError(f"malformed ndarray block: {exc}") from exc
    return array.copy()


# ----------------------------------------------------------------------
# Message layer
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Message:
    """One decoded logical message."""

    kind: str
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)


def encode_message(
    kind: str,
    meta: Optional[dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """A full message as one byte string: JSON header frame + one
    ndarray frame per named array, in declaration order."""
    arrays = arrays or {}
    header = {
        "kind": kind,
        "meta": meta or {},
        "arrays": list(arrays),
    }
    parts = [
        encode_frame(
            MSG_JSON,
            json.dumps(header, sort_keys=True).encode("utf-8"),
            max_frame_bytes,
        )
    ]
    for array in arrays.values():
        parts.append(
            encode_frame(MSG_NDARRAY, encode_ndarray(array), max_frame_bytes)
        )
    return b"".join(parts)


def _decode_json_frame(payload: bytes) -> dict:
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON frame: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise ProtocolError("message header frame must be an object "
                            "with a 'kind'")
    return header


def read_message(
    read_exactly: Callable[[int], bytes],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Message:
    """Read one message from a stream.

    ``read_exactly(n)`` must return exactly ``n`` bytes, raise
    :class:`ConnectionClosed` when the stream is cleanly closed before
    any byte arrives, and :class:`FrameTruncated` on a partial read.
    Only the *first* header read may see a clean close; from then on
    every short read is a truncation error.
    """
    msg_type, length = parse_header(
        read_exactly(HEADER_SIZE), max_frame_bytes
    )
    if msg_type != MSG_JSON:
        raise ProtocolError(
            "message must start with a JSON header frame, got an "
            "ndarray frame"
        )
    header = _decode_json_frame(_read_body(read_exactly, length))
    arrays: Dict[str, np.ndarray] = {}
    for name in header.get("arrays", []):
        try:
            raw_header = read_exactly(HEADER_SIZE)
        except ConnectionClosed as exc:
            raise FrameTruncated(
                "stream closed mid-message (between frames of one "
                "multi-frame message)"
            ) from exc
        msg_type, length = parse_header(raw_header, max_frame_bytes)
        if msg_type != MSG_NDARRAY:
            raise ProtocolError(
                f"expected ndarray frame for array {name!r}, "
                "got a JSON frame"
            )
        arrays[name] = decode_ndarray(_read_body(read_exactly, length))
    return Message(
        kind=header["kind"], meta=header.get("meta", {}), arrays=arrays
    )


def _read_body(read_exactly: Callable[[int], bytes], length: int) -> bytes:
    if length == 0:
        return b""
    try:
        return read_exactly(length)
    except ConnectionClosed as exc:
        raise FrameTruncated("stream closed mid-frame") from exc


def decode_message(
    buffer: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Message:
    """Decode one message from a complete byte buffer (a local
    worker's boot report, or a buffer encoded in memory).

    The buffer must contain exactly one message — trailing bytes are a
    framing error, not a second message.
    """
    view = memoryview(buffer)
    offset = 0

    def read_exactly(n: int) -> bytes:
        nonlocal offset
        if offset >= len(view) and n > 0:
            raise ConnectionClosed("buffer exhausted")
        chunk = view[offset : offset + n]
        if len(chunk) != n:
            raise FrameTruncated(
                f"buffer ends mid-frame ({len(chunk)} of {n} bytes)"
            )
        offset += n
        return bytes(chunk)

    message = read_message(read_exactly, max_frame_bytes)
    if offset != len(view):
        raise ProtocolError(
            f"{len(view) - offset} trailing bytes after a complete message"
        )
    return message


class SocketReader:
    """Buffered reads of one blocking socket: the one way a blocking
    peer reads messages.

    A connection owns exactly one reader for its whole life, so the
    bytes the buffer reads ahead (the rest of a message, or the next
    one) are never lost.  One ``recv`` usually carries a whole
    multi-frame message, where reading frame by frame costs two per
    frame.  ``socket.timeout`` propagates to the caller (read timeouts
    are a liveness policy, not a protocol event); after one, the
    buffer's state is undefined, so the caller drops the connection
    with its reader.

    :meth:`close` it with the socket: the buffered file holds its own
    reference to the descriptor, so ``sock.close()`` alone leaves the
    connection open.
    """

    def __init__(self, sock) -> None:
        self._file = sock.makefile("rb", buffering=_READ_BUFFER_BYTES)

    def read_exactly(self, n: int) -> bytes:
        """Exactly ``n`` bytes.  :class:`ConnectionClosed` when the
        peer closed before any byte of this read arrived,
        :class:`FrameTruncated` when it closed mid-read."""
        data = self._file.read(n)  # short only at EOF
        if len(data) != n:
            if not data:
                raise ConnectionClosed("peer closed the connection")
            raise FrameTruncated(
                f"peer closed mid-read ({len(data)} of {n} bytes)"
            )
        return data

    def read_message(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> Message:
        """Read one message (see :func:`read_message`)."""
        return read_message(self.read_exactly, max_frame_bytes)

    def close(self) -> None:
        self._file.close()


# ----------------------------------------------------------------------
# Error messages
# ----------------------------------------------------------------------


def encode_error(
    exc: BaseException,
    tb: Optional[str] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """An explicit error frame carrying type, message, and the remote
    traceback (``tb`` defaults to the currently handled exception's).

    Never raises — it is the one error encoder of every worker, and a
    failure to *report* must not replace the failure
    being reported (the peer would read EOF and call the worker dead).
    An exception whose ``str``/``repr`` itself fails degrades to a
    plain ``RuntimeError`` carrying whatever could be rendered.
    """
    if tb is None:
        tb = getattr(exc, "remote_traceback", None) or traceback.format_exc()
    try:
        meta = {
            "type_module": type(exc).__module__,
            "type_name": type(exc).__qualname__,
            "message": str(exc),
            "repr": repr(exc),
        }
    except Exception:
        try:
            rendered = repr(exc)
        except Exception:
            rendered = f"<unprintable {type(exc).__name__}>"
        meta = {
            "type_module": "builtins",
            "type_name": "RuntimeError",
            "message": rendered,
            "repr": rendered,
        }
    meta["remote_traceback"] = tb
    return encode_message("error", meta=meta, max_frame_bytes=max_frame_bytes)


def decode_error(message: Message) -> BaseException:
    """Rebuild the remote exception (best effort) with its
    ``remote_traceback`` attached for :func:`_raise_worker_error`-style
    chaining.

    Only ``builtins`` and ``repro.*`` exception types are reconstructed
    (arbitrary-module reconstruction would be an import gadget);
    anything else — or a type whose constructor rejects a single
    message argument — degrades to :class:`RemoteWorkerError` carrying
    the original repr.
    """
    meta = message.meta
    module = str(meta.get("type_module", ""))
    name = str(meta.get("type_name", ""))
    text = str(meta.get("message", ""))
    exc: Optional[BaseException] = None
    exc_cls = None
    try:
        if module == "builtins":
            exc_cls = getattr(builtins, name, None)
        elif module == "repro" or module.startswith("repro."):
            exc_cls = getattr(importlib.import_module(module), name, None)
        if (
            isinstance(exc_cls, type)
            and issubclass(exc_cls, BaseException)
            and "." not in name  # nested/qualified types don't resolve
        ):
            exc = exc_cls(text)
    except Exception:
        exc = None
    if exc is None:
        exc = RemoteWorkerError(
            f"{meta.get('repr', name + ': ' + text)}"
        )
    try:
        exc.remote_traceback = str(meta.get("remote_traceback", ""))
    except Exception:
        pass
    return exc


# ----------------------------------------------------------------------
# Worker replies (ready / pong / response / error)
# ----------------------------------------------------------------------


def reply_payload(message: Message) -> Tuple[str, object]:
    """``(kind, payload)`` of an already-decoded reply message."""
    if message.kind == "error":
        return "error", decode_error(message)
    if message.kind == "response":
        return "response", decode_search_response(message)[1]
    return message.kind, message.meta.get("value")


# ----------------------------------------------------------------------
# Search requests/responses (the typed protocol, on every leg:
# client <-> gateway and gateway/router <-> shard worker)
# ----------------------------------------------------------------------


def encode_search_request(
    request,
    request_id: int,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """A typed request, tagged for multiplexing."""
    arrays = {"queries": np.asarray(request.queries)}
    labels_scalar = None
    has_label_array = False
    if request.labels is not None:
        labels = np.asarray(request.labels)
        if labels.ndim == 0:
            labels_scalar = labels.item()
        else:
            arrays["labels"] = labels
            has_label_array = True
    meta = {
        "id": int(request_id),
        "k": int(request.k),
        "beam_width": int(request.beam_width),
        "max_beam_width": None
        if request.max_beam_width is None
        else int(request.max_beam_width),
        "labels_scalar": labels_scalar,
        "has_label_array": has_label_array,
    }
    return encode_message(
        "request", meta=meta, arrays=arrays, max_frame_bytes=max_frame_bytes
    )


def decode_search_request(message: Message):
    """Inverse of :func:`encode_search_request`; returns
    ``(request_id, SearchRequest)``."""
    from ...api.protocol import SearchRequest

    meta = message.meta
    try:
        queries = message.arrays["queries"]
    except KeyError:
        raise ProtocolError("request message lacks a 'queries' array") \
            from None
    labels = None
    if meta.get("has_label_array"):
        try:
            labels = message.arrays["labels"]
        except KeyError:
            raise ProtocolError(
                "request message declares labels but carries none"
            ) from None
    elif meta.get("labels_scalar") is not None:
        labels = np.asarray(meta["labels_scalar"])
    max_beam_width = meta.get("max_beam_width")
    request = SearchRequest(
        queries=queries,
        k=int(meta.get("k", 10)),
        beam_width=int(meta.get("beam_width", 32)),
        labels=labels,
        max_beam_width=None
        if max_beam_width is None
        else int(max_beam_width),
    )
    return int(meta["id"]), request


def encode_search_response(
    response,
    request_id: int,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """A typed response, tagged with its request id."""
    arrays = {
        "ids": np.asarray(response.ids),
        "distances": np.asarray(response.distances),
        "counts": np.asarray(response.counts),
    }
    for name, values in response.counters.items():
        arrays[f"counter:{name}"] = np.asarray(values)
    meta = {"id": int(request_id), "counters": list(response.counters)}
    return encode_message(
        "response", meta=meta, arrays=arrays, max_frame_bytes=max_frame_bytes
    )


def decode_search_response(message: Message):
    """Inverse of :func:`encode_search_response`; returns
    ``(request_id, SearchResponse)``."""
    from ...api.protocol import SearchResponse

    meta = message.meta
    try:
        response = SearchResponse(
            ids=message.arrays["ids"],
            distances=message.arrays["distances"],
            counts=message.arrays["counts"],
            counters={
                name: message.arrays[f"counter:{name}"]
                for name in meta.get("counters", [])
            },
        )
    except KeyError as exc:
        raise ProtocolError(
            f"response message lacks array {exc.args[0]!r}"
        ) from exc
    return int(meta["id"]), response


def encode_error_response(
    exc: BaseException,
    request_id: Optional[int],
    tb: Optional[str] = None,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """An error message tagged with the request it answers (``None``
    for connection-level protocol errors)."""
    if tb is None:
        tb = getattr(exc, "remote_traceback", None) or traceback.format_exc()
    meta = {
        "id": None if request_id is None else int(request_id),
        "type_module": type(exc).__module__,
        "type_name": type(exc).__qualname__,
        "message": str(exc),
        "repr": repr(exc),
        "remote_traceback": tb,
    }
    return encode_message("error", meta=meta, max_frame_bytes=max_frame_bytes)
