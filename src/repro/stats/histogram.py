"""Value-frequency histograms for segment mining (Section 4.3).

The mining heuristic looks at a segment's data three ways: raw value
frequencies (outlier step), the multiset of values (value-space DBSCAN),
and the histogram viewed as (value, count) points (histogram DBSCAN).
:class:`Histogram` is the shared representation.

The hot constructors and range operations are array-native: histograms
build from a raw value array with one ``np.unique`` pass
(:meth:`Histogram.from_array`), and range queries / removals are
``searchsorted`` slices over the sorted value array.  Values wider than
64 bits (possible only when the hard /32 and /64 segmentation cuts are
disabled) fall back to Python-int object arrays, for which every
operation keeps the original scalar behaviour.  The pre-vectorization
scalar implementations are retained wholesale on
:class:`_ReferenceHistogram` — the ``EntropyIP._fit_reference``
benchmark path mines with it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


#: Largest representable histogram value (range queries clamp to it).
_UINT64_MAX = int(np.iinfo(np.uint64).max)


def value_counts(values: Iterable[int]) -> Dict[int, int]:
    """Exact counts of each distinct value."""
    counts: Dict[int, int] = {}
    for value in values:
        key = int(value)
        counts[key] = counts.get(key, 0) + 1
    return counts


class Histogram:
    """A sparse histogram over non-negative integer values.

    Stores sorted distinct values and their counts; provides the views
    the mining steps need.

    >>> h = Histogram.from_values([1, 1, 2, 9])
    >>> h.values.tolist(), h.counts.tolist()
    ([1, 2, 9], [2, 1, 1])
    >>> h.total
    4
    """

    __slots__ = ("values", "counts")

    def __init__(self, values: Sequence[int], counts: Sequence[int]):
        self.values = np.asarray(values, dtype=object if _needs_object(values) else np.uint64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if len(self.values) != len(self.counts):
            raise ValueError("values and counts must have equal length")
        if len(self.values) > 1 and not all(
            self.values[i] < self.values[i + 1] for i in range(len(self.values) - 1)
        ):
            raise ValueError("values must be strictly increasing")
        if np.any(self.counts <= 0):
            raise ValueError("counts must be positive")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Histogram":
        """Build from a multiset of values (scalar counting loop)."""
        counts = value_counts(values)
        ordered = sorted(counts)
        return cls(ordered, [counts[v] for v in ordered])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "Histogram":
        """Build from a value array in one vectorized ``np.unique`` pass.

        Object-dtype inputs (segment values wider than 64 bits) route
        through the scalar constructor.
        """
        array = np.asarray(values)
        if array.dtype == object:
            return cls.from_values(int(v) for v in array)
        uniques, counts = np.unique(array, return_counts=True)
        return cls._trusted(
            uniques.astype(np.uint64, copy=False), counts.astype(np.int64)
        )

    @classmethod
    def _trusted(cls, values: np.ndarray, counts: np.ndarray) -> "Histogram":
        """Adopt already-sorted-unique arrays, skipping validation.

        Internal: every caller guarantees strictly increasing values and
        positive counts (slices of an existing histogram, ``np.unique``
        output).
        """
        histogram = object.__new__(cls)
        histogram.values = values
        histogram.counts = counts
        return histogram

    @property
    def total(self) -> int:
        """Total number of observations."""
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        """Number of distinct values."""
        return len(self.values)

    def min_value(self) -> int:
        if not len(self.values):
            raise ValueError("empty histogram")
        return int(self.values[0])

    def max_value(self) -> int:
        if not len(self.values):
            raise ValueError("empty histogram")
        return int(self.values[-1])

    def frequency(self, value: int) -> float:
        """Relative frequency of ``value`` (0.0 if unseen)."""
        index = np.searchsorted(self.values.astype(object), value)
        if index < len(self.values) and int(self.values[index]) == value:
            return float(self.counts[index]) / self.total
        return 0.0

    def _range_slice(self, low: int, high: int) -> Tuple[int, int]:
        """Index slice [start, stop) of values inside ``[low, high]``."""
        low = max(int(low), 0)
        high = min(int(high), _UINT64_MAX)
        if high < low or low > _UINT64_MAX:
            return (0, 0)
        start = self.values.searchsorted(np.uint64(low), side="left")
        stop = self.values.searchsorted(np.uint64(high), side="right")
        return (int(start), int(stop))

    def count_in_range(self, low: int, high: int) -> int:
        """Total count of observations with ``low <= value <= high``."""
        if self.values.dtype == object:
            mask = [(low <= int(v) <= high) for v in self.values]
            return int(self.counts[np.asarray(mask, dtype=bool)].sum()) if mask else 0
        start, stop = self._range_slice(low, high)
        return int(self.counts[start:stop].sum())

    def remove_values(self, to_remove: Iterable[int]) -> "Histogram":
        """New histogram with the given distinct values dropped."""
        removal = {int(v) for v in to_remove}
        if self.values.dtype == object:
            keep = [i for i, v in enumerate(self.values) if int(v) not in removal]
            return Histogram(
                [int(self.values[i]) for i in keep],
                [int(self.counts[i]) for i in keep],
            )
        if not removal:
            return type(self)._trusted(self.values, self.counts)
        removed = np.fromiter(
            (v for v in removal if 0 <= v <= _UINT64_MAX),
            dtype=np.uint64,
        )
        keep = ~np.isin(self.values, removed)
        return type(self)._trusted(self.values[keep], self.counts[keep])

    def remove_range(self, low: int, high: int) -> "Histogram":
        """New histogram with all values in [low, high] dropped."""
        if self.values.dtype == object:
            keep = [i for i, v in enumerate(self.values) if not low <= int(v) <= high]
            return Histogram(
                [int(self.values[i]) for i in keep],
                [int(self.counts[i]) for i in keep],
            )
        start, stop = self._range_slice(low, high)
        return type(self)._trusted(
            np.concatenate([self.values[:start], self.values[stop:]]),
            np.concatenate([self.counts[:start], self.counts[stop:]]),
        )

    def items(self) -> List[Tuple[int, int]]:
        """Sorted (value, count) pairs."""
        return [(int(v), int(c)) for v, c in zip(self.values, self.counts)]

    def expand(self) -> List[int]:
        """Back to a sorted multiset (careful with large totals)."""
        result: List[int] = []
        for value, count in self.items():
            result.extend([value] * count)
        return result

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Histogram(distinct={self.distinct}, total={self.total})"


class _ReferenceHistogram(Histogram):
    """The pre-vectorization scalar implementations, retained verbatim.

    ``EntropyIP._fit_reference`` mines with this class, and
    ``tests/core/test_fit_golden.py`` checks that path's model against
    the vectorized fit.  Results are identical to :class:`Histogram` —
    only the implementation differs.
    """

    __slots__ = ()

    def count_in_range(self, low: int, high: int) -> int:
        mask = [(low <= int(v) <= high) for v in self.values]
        return int(self.counts[np.asarray(mask, dtype=bool)].sum()) if mask else 0

    def remove_values(self, to_remove: Iterable[int]) -> "Histogram":
        removal = {int(v) for v in to_remove}
        keep = [i for i, v in enumerate(self.values) if int(v) not in removal]
        return _ReferenceHistogram(
            [int(self.values[i]) for i in keep],
            [int(self.counts[i]) for i in keep],
        )

    def remove_range(self, low: int, high: int) -> "Histogram":
        keep = [i for i, v in enumerate(self.values) if not low <= int(v) <= high]
        return _ReferenceHistogram(
            [int(self.values[i]) for i in keep],
            [int(self.counts[i]) for i in keep],
        )


def _needs_object(values: Sequence[int]) -> bool:
    """True if any value exceeds the uint64 range."""
    return any(int(v) >= (1 << 64) for v in values)
