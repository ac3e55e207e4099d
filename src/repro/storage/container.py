"""Aligned, header-described container file for hot index arrays.

One file holds every hot array of an index — codes, packed CSR
adjacency, vectors, labels — each laid out at a page-aligned offset
so a reader can hand back ``np.memmap`` views in O(1) without touching
the array bytes.  That is the whole point: a worker process "loads" a
multi-megabyte index by mapping a few sections, and every
worker/replica that maps the same file shares the OS page cache
instead of holding a private deserialized copy.

Layout::

    [magic 8B][container version u32 LE][header length u64 LE]
    [header JSON (utf-8)]
    [zero padding to the first aligned offset]
    [section 0 bytes][pad][section 1 bytes][pad]...

The header JSON is self-describing: ``align``, a free-form ``meta``
dict for the owner, and a ``sections`` list of
``{name, dtype, shape, offset, nbytes}`` entries.  Sections are raw
C-contiguous array bytes — exactly what ``np.memmap`` wants.  Arrays
with zero elements are recorded in the header but store no bytes; the
reader synthesizes them, so empty indexes round-trip without special
cases upstream.  The reader checks every header entry when it opens
the file — ``nbytes`` must equal ``prod(shape) * itemsize`` and the
bytes must lie inside the file — so a lying header raises instead of
handing back uninitialised or misshapen arrays.  The check reads only
the header, so opening stays O(1) in the array bytes.

Header offsets depend on the header's own length (it embeds the
offsets), so the writer runs a tiny fixed-point iteration: guess the
header area, lay out sections, re-render, repeat until stable — it
converges in a couple of passes because only the digit widths of the
offsets can shift.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterator, Mapping, Optional

import numpy as np

MAGIC = b"RPQSTOR\x00"
CONTAINER_FORMAT_VERSION = 1

# Section alignment: one page.  Keeps every mmap view page-aligned and
# lets the kernel fault sections independently.
PAGE_ALIGN = 4096

_PREAMBLE = len(MAGIC) + 4 + 8  # magic + version u32 + header length u64


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _render_header(
    sections, meta: Mapping[str, object], align: int
) -> bytes:
    header = {
        "align": int(align),
        "meta": dict(meta),
        "sections": sections,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def write_container(
    path: str,
    arrays: Mapping[str, np.ndarray],
    meta: Optional[Mapping[str, object]] = None,
    align: int = PAGE_ALIGN,
) -> Dict[str, int]:
    """Write ``arrays`` into a single aligned container file.

    Returns ``{section name: stored nbytes}`` (zero-element arrays
    store 0 bytes).  Section order follows the mapping's iteration
    order, so related arrays can be laid out adjacently.
    """
    meta = meta or {}
    prepared = {}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype == object:
            raise ValueError(f"section {name!r}: object arrays unsupported")
        prepared[name] = arr

    # Fixed-point layout: header length <-> section offsets.
    header_area = align
    for _ in range(10):
        sections = []
        offset = header_area
        for name, arr in prepared.items():
            nbytes = int(arr.nbytes) if arr.size else 0
            sections.append(
                {
                    "name": name,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset if nbytes else 0,
                    "nbytes": nbytes,
                }
            )
            if nbytes:
                offset = _align_up(offset + nbytes, align)
        header_bytes = _render_header(sections, meta, align)
        needed = _align_up(_PREAMBLE + len(header_bytes), align)
        if needed == header_area:
            break
        header_area = needed
    else:  # pragma: no cover - offsets stabilise in <= 2 passes
        raise RuntimeError("container header layout did not converge")

    # Write-then-rename: a re-save must never truncate a container that
    # live workers still have mapped — their views stay on the old
    # inode; only fresh opens see the new file.
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(CONTAINER_FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for section in sections:
            if not section["nbytes"]:
                continue
            fh.write(b"\x00" * (section["offset"] - fh.tell()))
            prepared[section["name"]].tofile(fh)
    os.replace(tmp_path, path)
    return {s["name"]: s["nbytes"] for s in sections}


class Container:
    """Reader for :func:`write_container` files.

    ``mmap=True`` (the default) returns read-only ``np.memmap`` views —
    opening the container touches only the header page, and array pages
    fault in lazily, shared across every process mapping the file.
    ``mmap=False`` reads private in-memory copies instead (useful when
    the file is about to be deleted, e.g. shipped-state temp dirs that
    outlive their worker).
    """

    def __init__(self, path: str, mmap: bool = True) -> None:
        self.path = os.fspath(path)
        self.mmap = bool(mmap)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError(
                    f"{self.path}: not an index container (bad magic)"
                )
            version = int.from_bytes(fh.read(4), "little")
            if version > CONTAINER_FORMAT_VERSION:
                raise ValueError(
                    f"{self.path}: container format version {version} is "
                    f"newer than supported ({CONTAINER_FORMAT_VERSION}); "
                    "upgrade this library to read it"
                )
            self.version = version
            header_len = int.from_bytes(fh.read(8), "little")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            file_size = os.fstat(fh.fileno()).st_size
        self.align = int(header.get("align", PAGE_ALIGN))
        self.meta = dict(header.get("meta", {}))
        self._sections = {s["name"]: s for s in header["sections"]}
        for section in self._sections.values():
            self._check(section, _PREAMBLE + header_len, file_size)

    def _check(self, section: dict, data_start: int, file_size: int) -> None:
        """Refuse a header entry whose byte count does not match its
        dtype and shape, or whose bytes lie outside the file."""
        name = section["name"]
        itemsize = np.dtype(section["dtype"]).itemsize
        nbytes, offset = int(section["nbytes"]), int(section["offset"])
        shape = section["shape"]
        expected = math.prod(shape) * itemsize
        if nbytes != expected or min(shape, default=0) < 0:
            raise ValueError(
                f"{self.path}: section {name!r} header is corrupt: "
                f"{nbytes} bytes for shape {shape} of {section['dtype']}"
            )
        if nbytes and not data_start <= offset <= file_size - nbytes:
            raise ValueError(
                f"{self.path}: section {name!r} lies outside the file "
                f"(bytes [{offset}, {offset + nbytes}) of {file_size})"
            )

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def __iter__(self) -> Iterator[str]:
        return iter(self._sections)

    def names(self):
        return list(self._sections)

    def section_bytes(self) -> Dict[str, int]:
        """Stored bytes per section (the describe/report surface)."""
        return {n: int(s["nbytes"]) for n, s in self._sections.items()}

    def read(self, name: str) -> np.ndarray:
        """Return one section as an array: a read-only ``np.memmap``
        view in mmap mode, a private copy otherwise."""
        try:
            section = self._sections[name]
        except KeyError:
            raise KeyError(
                f"{self.path}: no section {name!r} "
                f"(have {sorted(self._sections)})"
            ) from None
        dtype = np.dtype(section["dtype"])
        shape = tuple(section["shape"])
        if not section["nbytes"]:
            return np.empty(shape, dtype=dtype)
        if self.mmap:
            return np.memmap(
                self.path,
                dtype=dtype,
                mode="r",
                offset=int(section["offset"]),
                shape=shape,
            )
        with open(self.path, "rb") as fh:
            fh.seek(int(section["offset"]))
            count = int(np.prod(shape)) if shape else 1
            flat = np.fromfile(fh, dtype=dtype, count=count)
        if flat.size != count:
            raise ValueError(
                f"{self.path}: section {name!r} truncated "
                f"({flat.size}/{count} elements)"
            )
        return flat.reshape(shape)
