"""``repro.storage`` units: the container.

* It round-trips arrays through mmap and copy modes, keeps sections
  page-aligned and read-only, and rejects future versions.
* A header that lies about a section — byte count against shape, or
  bytes outside the file — is refused when the container opens.

What :mod:`repro.api.persistence` builds around it — the index
directory format, its round trips, the format-1 fixtures — is pinned in
``tests/test_api_persistence.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.storage import Container, write_container

MMAP_MODES = pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "copy"])


def _two_sections(tmp_path):
    path = str(tmp_path / "index.bin")
    write_container(
        path,
        {
            "codes": np.arange(64, dtype=np.uint8).reshape(8, 8),
            "vectors": np.ones((8, 8)),
        },
    )
    return path


def _edit_section(path, name, **fields):
    """Rewrite one section's header entry in place (same header
    length, padded with JSON whitespace); the array bytes stay."""
    with open(path, "r+b") as fh:
        fh.seek(12)
        length = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(length))
        for section in header["sections"]:
            if section["name"] == name:
                section.update(fields)
        text = json.dumps(header).encode("utf-8")
        assert len(text) <= length
        fh.seek(20)
        fh.write(text.ljust(length))


class TestContainer:
    def test_round_trip_mmap_and_copy(self, tmp_path):
        path = str(tmp_path / "index.bin")
        arrays = {
            "codes": np.arange(24, dtype=np.uint8).reshape(6, 4),
            "offsets": np.arange(7, dtype=np.int64),
            "empty": np.empty((0, 3), dtype=np.float64),
            "vectors": np.random.default_rng(0).standard_normal((6, 3)),
        }
        sizes = write_container(path, arrays, meta={"scenario": "memory"})
        assert sizes["empty"] == 0
        for mmap in (True, False):
            cont = Container(path, mmap=mmap)
            assert cont.meta == {"scenario": "memory"}
            for name, arr in arrays.items():
                got = cont.read(name)
                assert got.dtype == arr.dtype
                np.testing.assert_array_equal(got, arr)
                assert isinstance(got, np.memmap) == (mmap and arr.size > 0)

    def test_mmap_views_are_read_only(self, tmp_path):
        path = str(tmp_path / "index.bin")
        write_container(path, {"codes": np.zeros((4, 4), dtype=np.uint8)})
        view = Container(path).read("codes")
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0, 0] = 1

    def test_sections_page_aligned(self, tmp_path):
        path = str(tmp_path / "index.bin")
        write_container(
            path,
            {
                "a": np.zeros(3, dtype=np.uint8),
                "b": np.zeros(5, dtype=np.int64),
            },
        )
        cont = Container(path)
        for section in cont._sections.values():
            if section["nbytes"]:
                assert section["offset"] % cont.align == 0

    def test_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "index.bin")
        write_container(path, {"a": np.zeros(2, dtype=np.uint8)})
        with open(path, "r+b") as fh:
            fh.seek(8)
            fh.write((99).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="version 99"):
            Container(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a container at all")
        with pytest.raises(ValueError, match="magic"):
            Container(path)

    def test_missing_section_keyerror(self, tmp_path):
        path = str(tmp_path / "index.bin")
        write_container(path, {"a": np.zeros(2, dtype=np.uint8)})
        with pytest.raises(KeyError, match="nope"):
            Container(path).read("nope")

    @MMAP_MODES
    def test_zero_nbytes_over_elements_rejected(self, tmp_path, mmap):
        # A section that claims no bytes but an (8, 8) shape must not
        # come back as np.empty((8, 8)) — uninitialised memory.
        path = _two_sections(tmp_path)
        _edit_section(path, "vectors", nbytes=0, offset=0)
        with pytest.raises(ValueError, match="'vectors' header is corrupt"):
            Container(path, mmap=mmap).read("vectors")

    @MMAP_MODES
    def test_shrunk_shape_rejected(self, tmp_path, mmap):
        # (4, 8) over 64 stored bytes must not read as half the array.
        path = _two_sections(tmp_path)
        _edit_section(path, "codes", shape=[4, 8])
        with pytest.raises(ValueError, match="'codes' header is corrupt"):
            Container(path, mmap=mmap).read("codes")

    @MMAP_MODES
    def test_section_past_end_of_file_rejected(self, tmp_path, mmap):
        path = _two_sections(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 8)
        with pytest.raises(ValueError, match="'vectors' lies outside"):
            Container(path, mmap=mmap).read("vectors")
