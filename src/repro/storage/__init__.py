"""Storage v2: mmap-native index persistence.

:mod:`repro.storage.container` is an aligned, header-described
container file that lays hot arrays (codes, packed CSR adjacency,
vectors, labels) out at page-aligned offsets, so a worker can
memory-map them read-only in O(1) instead of deserializing a private
copy.  Every process that maps the same container shares page cache —
the lever that makes replicated worker spawn near-free.
:mod:`repro.api.persistence` builds the format-version-2 index
directory around it.  Sections are stored raw: there is no decode step
between the file and the search kernel.
"""

from .container import (
    CONTAINER_FORMAT_VERSION,
    PAGE_ALIGN,
    Container,
    write_container,
)

__all__ = [
    "Container",
    "write_container",
    "CONTAINER_FORMAT_VERSION",
    "PAGE_ALIGN",
]
