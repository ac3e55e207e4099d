"""``repro.storage`` units: the rANS entropy coder and the container.

* The coder round-trips exactly (and refuses corrupt streams).
* The container round-trips arrays through mmap and copy modes, keeps
  sections page-aligned and read-only, and rejects future versions.

What :mod:`repro.api.persistence` builds out of the two — the index
directory format, its round trips, the format-1 fixtures — is pinned in
``tests/test_api_persistence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import (
    CompressedCodes,
    Container,
    EntropyCoder,
    write_container,
)


# ----------------------------------------------------------------------
# Entropy coder
# ----------------------------------------------------------------------


class TestEntropyCoder:
    def test_round_trip_skewed(self):
        rng = np.random.default_rng(0)
        p = np.random.default_rng(1).dirichlet(np.ones(32) * 0.4)
        codes = rng.choice(32, size=(700, 8), p=p).astype(np.uint8)
        coder = EntropyCoder()
        comp = coder.compress(codes)
        np.testing.assert_array_equal(coder.decompress(comp), codes)
        assert comp.blob.nbytes < codes.nbytes

    def test_round_trip_uniform_small_alphabet(self):
        # Uniform over 16 symbols still beats 8 stored bits per code.
        rng = np.random.default_rng(2)
        codes = rng.integers(16, size=(500, 4)).astype(np.uint8)
        coder = EntropyCoder()
        comp = coder.compress(codes)
        np.testing.assert_array_equal(coder.decompress(comp), codes)
        assert comp.blob.nbytes < codes.nbytes

    def test_degenerate_single_symbol_column(self):
        codes = np.zeros((300, 3), dtype=np.uint16)
        codes[:, 1] = 7
        coder = EntropyCoder()
        comp = coder.compress(codes)
        decoded = coder.decompress(comp)
        np.testing.assert_array_equal(decoded, codes)
        assert decoded.dtype == codes.dtype
        # A constant column carries no information: 4 flush bytes each.
        assert comp.blob.nbytes == 12

    def test_preserves_dtype(self):
        for dtype in (np.uint8, np.uint16, np.int64):
            codes = np.arange(40, dtype=dtype).reshape(20, 2) % 5
            comp = EntropyCoder().compress(codes)
            decoded = EntropyCoder().decompress(comp)
            assert decoded.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(decoded, codes)

    def test_corrupt_blob_rejected(self):
        codes = np.random.default_rng(3).integers(
            16, size=(200, 4)
        ).astype(np.uint8)
        comp = EntropyCoder().compress(codes)
        blob = comp.blob.copy()
        blob[len(blob) // 2] ^= 0xFF
        bad = CompressedCodes(
            freqs=comp.freqs,
            blob=blob,
            starts=comp.starts,
            num_rows=comp.num_rows,
            code_dtype=comp.code_dtype,
            scale_bits=comp.scale_bits,
        )
        with pytest.raises(ValueError, match="rANS stream"):
            EntropyCoder().decompress(bad)

    def test_truncated_blob_rejected(self):
        codes = np.random.default_rng(4).integers(
            16, size=(100, 2)
        ).astype(np.uint8)
        comp = EntropyCoder().compress(codes)
        bad = CompressedCodes(
            freqs=comp.freqs,
            blob=comp.blob[:2],
            starts=np.array([0, 2, 2], dtype=np.int64),
            num_rows=comp.num_rows,
            code_dtype=comp.code_dtype,
            scale_bits=comp.scale_bits,
        )
        with pytest.raises(ValueError):
            EntropyCoder().decompress(bad)

    def test_rejects_bad_inputs(self):
        coder = EntropyCoder()
        with pytest.raises(ValueError, match="2-D"):
            coder.compress(np.zeros(5, dtype=np.uint8))
        with pytest.raises(ValueError, match="integer"):
            coder.compress(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="empty"):
            coder.compress(np.zeros((0, 2), dtype=np.uint8))

    def test_arrays_meta_round_trip(self):
        codes = np.random.default_rng(5).integers(
            8, size=(64, 4)
        ).astype(np.uint8)
        comp = EntropyCoder().compress(codes)
        arrays = comp.to_arrays("codes")
        rebuilt = CompressedCodes.from_arrays(
            "codes", comp.meta(), arrays.__getitem__
        )
        np.testing.assert_array_equal(
            EntropyCoder().decompress(rebuilt), codes
        )


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------


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
