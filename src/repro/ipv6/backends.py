"""Build the exclusion store behind generation sessions by name.

There is one store, the flat :class:`~repro.ipv6.sets.BucketTable`,
which sessions build directly.  :func:`make_backend` is the public way
to build one by name, and it accepts only ``"memory"``.
"""

from __future__ import annotations

from typing import Optional

from repro.ipv6.sets import BucketTable


def make_backend(
    spec: Optional[str], word_count: int, capacity: int = 0
) -> BucketTable:
    """Build the exclusion store: a :class:`BucketTable` of
    ``word_count``-word rows pre-sized for ``capacity`` rows.

    ``spec`` must be ``None`` or ``"memory"``; any other value raises
    ``ValueError``.
    """
    if spec is not None and spec != "memory":
        raise ValueError(
            f"unknown backend {spec!r}: the only store is 'memory' "
            f"(the 'sharded64' store was removed)"
        )
    return BucketTable(word_count, capacity=capacity)
