"""Segment mining (Section 4.3): discovering popular values and ranges.

For each segment k the paper reduces the dataset to the segment's values
D_k and builds the ordered set V_k of popular values and ranges through
three steps, nominating at most 10 elements per step and removing them
from D_k as it goes:

(a) **frequency outliers** — values more common than Q3 + 1.5*IQR of the
    value-count distribution (e.g. C1..C5 in Fig. 4);
(b) **value-space DBSCAN** — highly dense ranges of values, added as
    (min, max) intervals of each discovered cluster;
(c) **histogram DBSCAN** — DBSCAN over the (value, count) histogram,
    tuned to find ranges that are both uniformly distributed and
    relatively continuous (e.g. C6 in Fig. 4).

If more than 0.1% of the original observations remain after the steps,
V_k is closed with the range (min D_k, max D_k) — unless at most 10
distinct values remain, in which case they are taken individually.

The resulting elements carry codes ``<label><index>`` (A1, B2, ...) used
to rewrite addresses as categorical vectors (Table 3).

The mining hot path is array-native (``engine="vector"``, the default):
per-segment value histograms build straight from the nybble matrix via
one ``np.unique`` pass, DBSCAN receives the histogram's value/count
arrays (and runs its vectorized pairwise engine), and interval counts
are ``searchsorted`` slices.  ``engine="reference"`` retains the
pre-vectorization scalar path — per-value Python histograms
(:class:`~repro.stats.histogram._ReferenceHistogram`), list-fed
grid-scan DBSCAN — and produces byte-identical mined values; it backs
``EntropyIP._fit_reference``, which ``tests/core/test_fit_golden.py``
compares with the vectorized fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.dbscan import DBSCAN
from repro.cluster.intervals import Interval, clusters_to_intervals
from repro.core.segmentation import Segment
from repro.ipv6.sets import AddressSet
from repro.stats.histogram import Histogram, _ReferenceHistogram
from repro.stats.outliers import _tukey_outlier_values_scalar, tukey_outlier_values


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of the three-step mining heuristic.

    The step structure and the nomination/stop constants come straight
    from §4.3; the DBSCAN parameterizations are the tunable part the
    paper leaves open ("parametrized to find highly dense ranges" /
    "tuned to find ranges that are both uniformly distributed and
    relatively continuous").
    """

    #: Nominate at most this many elements per step (paper: 10).
    max_nominations: int = 10
    #: Stop once at most this fraction of observations remains (paper: 0.1%).
    stop_fraction: float = 0.001
    #: If at most this many distinct values remain at the end, take them
    #: individually instead of closing with a range (paper: 10).
    tail_values: int = 10
    #: Value-space DBSCAN: eps as a fraction of the segment cardinality.
    value_eps_fraction: float = 1 / 256
    #: Value-space DBSCAN: min neighborhood weight as a fraction of |D_k|.
    value_min_weight_fraction: float = 0.002
    #: Minimum absolute neighborhood weight for the value-space step.
    value_min_weight: float = 3.0
    #: Histogram DBSCAN: eps in the normalized (value, count) plane.
    histogram_eps: float = 0.05
    #: Histogram DBSCAN: min points (distinct values) per cluster seed.
    histogram_min_points: int = 4
    #: Ignore clusters narrower than this many distinct values.
    min_range_width: int = 2
    #: Values covering at least this fraction of |D_k| are nominated as
    #: points in step (a) even when the Tukey fence misses them.  Near-
    #: uniform segments (e.g. Table 3's D: five values at ~9-10% each)
    #: must keep their popular values as individual codes, otherwise the
    #: BN loses the very structure the paper's browser displays.
    point_frequency: float = 0.05

    def __post_init__(self):
        if self.max_nominations < 1:
            raise ValueError("max_nominations must be >= 1")
        if not 0 <= self.stop_fraction < 1:
            raise ValueError("stop_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SegmentValue:
    """One element of V_k: a point value or a closed range, with a code.

    ``low == high`` denotes a point value.  ``frequency`` is relative to
    the original |D_k| (so a segment's frequencies sum to ≤ 1).
    """

    code: str
    low: int
    high: int
    frequency: float
    origin: str  # "outlier" | "value-cluster" | "hist-cluster" | "tail"

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"invalid value range: [{self.low}, {self.high}]")
        if not 0 <= self.frequency <= 1:
            raise ValueError(f"invalid frequency: {self.frequency}")

    @property
    def is_range(self) -> bool:
        return self.low != self.high

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    def span(self) -> int:
        """Number of raw values covered."""
        return self.high - self.low + 1

    def format_value(self, nybbles: int) -> str:
        """Render like Table 3: fixed-width hex, ranges as low-high."""
        if self.is_range:
            return f"{self.low:0{nybbles}x}-{self.high:0{nybbles}x}"
        return f"{self.low:0{nybbles}x}"


@dataclass(frozen=True)
class MinedSegment:
    """A segment together with its ordered mined values V_k."""

    segment: Segment
    values: Tuple[SegmentValue, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"segment {self.segment.label} mined no values")

    @property
    def cardinality(self) -> int:
        """Number of categorical codes (the BN variable cardinality)."""
        return len(self.values)

    def code_index(self, value: int) -> int:
        """Encode a raw segment value as a code index.

        Point matches win over ranges; among ranges, the earliest-mined
        containing range wins; values covered by nothing map to the
        nearest element (the encoding is lossy by design, §4.3).
        """
        best_range: Optional[int] = None
        for index, element in enumerate(self.values):
            if not element.is_range:
                if element.low == value:
                    return index
            elif best_range is None and element.contains(value):
                best_range = index
        if best_range is not None:
            return best_range
        return self._nearest_index(value)

    def _nearest_index(self, value: int) -> int:
        def distance(element: SegmentValue) -> int:
            if element.contains(value):
                return 0
            return min(abs(value - element.low), abs(value - element.high))

        return min(range(len(self.values)), key=lambda i: distance(self.values[i]))

    def codes(self) -> List[str]:
        """All code strings, in mining order (e.g. ['C1', 'C2', ...])."""
        return [v.code for v in self.values]


def mine_segment(
    address_set: AddressSet,
    segment: Segment,
    config: MiningConfig = MiningConfig(),
    engine: str = "vector",
) -> MinedSegment:
    """Run the three-step mining heuristic on one segment.

    ``engine="vector"`` (default) runs the array-native path;
    ``engine="reference"`` runs the retained scalar path (identical
    output, pre-vectorization cost), which ``EntropyIP._fit_reference``
    mines with for ``tests/core/test_fit_golden.py``.
    """
    if engine not in ("vector", "reference"):
        raise ValueError(f"unknown mining engine: {engine!r}")
    raw_values = address_set.segment_values(segment.first_nybble, segment.last_nybble)
    scalar = engine == "reference"
    if scalar:
        histogram = _ReferenceHistogram.from_values(int(v) for v in raw_values)
    else:
        histogram = Histogram.from_array(raw_values)
        # Segments wider than 64 bits (hard cuts disabled) fall back to
        # object arrays; mine them with the scalar operations.
        scalar = histogram.values.dtype == object
    total = histogram.total
    if total == 0:
        raise ValueError("cannot mine an empty address set")

    elements: List[SegmentValue] = []
    label = segment.label

    def add(low: int, high: int, count: int, origin: str):
        elements.append(
            SegmentValue(
                code=f"{label}{len(elements) + 1}",
                low=low,
                high=high,
                frequency=count / total,
                origin=origin,
            )
        )

    def finished() -> bool:
        return histogram.total <= config.stop_fraction * total

    # ------------------------------------------------------------ (a)
    outlier_fn = _tukey_outlier_values_scalar if scalar else tukey_outlier_values
    outliers = outlier_fn(histogram, max_results=config.max_nominations)
    chosen = dict(outliers)
    # Frequency-threshold nominations: popular values of near-uniform
    # segments that the fence misses (see MiningConfig.point_frequency).
    threshold = config.point_frequency * total
    need = config.max_nominations - len(chosen)
    if scalar:
        for value, count in histogram.items():
            if len(chosen) >= config.max_nominations:
                break
            if count >= threshold and value not in chosen:
                chosen[value] = count
    elif need > 0 and len(histogram):
        eligible = histogram.counts >= threshold
        if chosen:
            eligible &= ~np.isin(
                histogram.values,
                np.asarray(list(chosen), dtype=histogram.values.dtype),
            )
        for index in np.nonzero(eligible)[0][:need]:
            chosen[int(histogram.values[index])] = int(histogram.counts[index])
    nominated = sorted(chosen.items(), key=lambda pair: (-pair[1], pair[0]))
    nominated = nominated[: config.max_nominations]
    for value, count in nominated:
        add(value, value, count, "outlier")
    histogram = histogram.remove_values(v for v, _ in nominated)

    # ------------------------------------------------------------ (b)
    if not finished() and len(histogram) >= 2:
        for interval in _value_space_ranges(histogram, segment, config, scalar):
            count = histogram.count_in_range(interval.low, interval.high)
            if count == 0:
                continue
            add(interval.low, interval.high, count, "value-cluster")
            histogram = histogram.remove_range(interval.low, interval.high)

    # ------------------------------------------------------------ (c)
    if not finished() and len(histogram) >= config.histogram_min_points:
        for interval in _histogram_ranges(histogram, segment, config, scalar):
            count = histogram.count_in_range(interval.low, interval.high)
            if count == 0:
                continue
            add(interval.low, interval.high, count, "hist-cluster")
            histogram = histogram.remove_range(interval.low, interval.high)

    # ------------------------------------------------------ remainder
    if not finished() and len(histogram) > 0:
        if histogram.distinct <= config.tail_values:
            for value, count in histogram.items():
                add(value, value, count, "tail")
        else:
            add(
                histogram.min_value(),
                histogram.max_value(),
                histogram.total,
                "tail",
            )
    elif len(histogram) > 0:
        # ≤ stop_fraction left: fold the dust into a final range so every
        # training value still has a containing element.
        add(
            histogram.min_value(),
            histogram.max_value(),
            histogram.total,
            "tail",
        )

    if not elements:
        # Degenerate but possible: everything was outliers and removed —
        # cannot happen (outliers become elements), so this guards misuse.
        raise ValueError(f"segment {label}: no values mined")
    return MinedSegment(segment=segment, values=tuple(elements))


def mine_segments(
    address_set: AddressSet,
    segments: Sequence[Segment],
    config: MiningConfig = MiningConfig(),
    engine: str = "vector",
) -> List[MinedSegment]:
    """Mine every segment of a segmentation."""
    return [mine_segment(address_set, s, config, engine=engine) for s in segments]


def _histogram_points(histogram: Histogram, scalar: bool) -> np.ndarray:
    """The histogram's values as a float column, without a Python loop."""
    if scalar or histogram.values.dtype == object:
        return np.asarray([float(int(v)) for v in histogram.values])
    return histogram.values.astype(np.float64)


def _cluster_values(histogram: Histogram, scalar: bool):
    """Value sequence handed to :func:`clusters_to_intervals`."""
    if scalar:
        return [int(v) for v in histogram.values]
    return histogram.values


def _value_space_ranges(
    histogram: Histogram,
    segment: Segment,
    config: MiningConfig,
    scalar: bool = False,
) -> List[Interval]:
    """Step (b): dense ranges in value space (weighted 1-D DBSCAN)."""
    cardinality = segment.cardinality
    eps = max(1.0, cardinality * config.value_eps_fraction)
    min_weight = max(
        config.value_min_weight,
        histogram.total * config.value_min_weight_fraction,
    )
    points = _histogram_points(histogram, scalar).reshape(-1, 1)
    weights = histogram.counts.astype(np.float64)
    algorithm = "grid" if scalar else "auto"
    labels = (
        DBSCAN(eps=eps, min_samples=min_weight, algorithm=algorithm)
        .fit(points, weights)
        .labels
    )
    intervals = _wide_enough_intervals(histogram, labels, config, scalar)
    return _top_ranges(histogram, intervals, config.max_nominations, scalar)


def _histogram_ranges(
    histogram: Histogram,
    segment: Segment,
    config: MiningConfig,
    scalar: bool = False,
) -> List[Interval]:
    """Step (c): uniform & continuous ranges in the (value, count) plane."""
    cardinality = segment.cardinality
    max_count = float(histogram.counts.max())
    points = np.column_stack(
        [
            _histogram_points(histogram, scalar) / cardinality,
            histogram.counts.astype(np.float64) / max_count,
        ]
    )
    algorithm = "grid" if scalar else "auto"
    labels = (
        DBSCAN(
            eps=config.histogram_eps,
            min_samples=config.histogram_min_points,
            algorithm=algorithm,
        )
        .fit(points)
        .labels
    )
    intervals = _wide_enough_intervals(histogram, labels, config, scalar)
    return _top_ranges(histogram, intervals, config.max_nominations, scalar)


def _wide_enough_intervals(
    histogram: Histogram,
    labels: np.ndarray,
    config: MiningConfig,
    scalar: bool,
) -> List[Interval]:
    """Cluster intervals with at least ``min_range_width`` distinct values."""
    pairs = clusters_to_intervals(_cluster_values(histogram, scalar), labels)
    if not pairs:
        return []
    intervals = [interval for _, interval in pairs]
    distinct = _interval_distinct_many(histogram, intervals, scalar)
    return [
        interval
        for interval, width in zip(intervals, distinct)
        if width >= config.min_range_width
    ]


def _interval_distinct(
    histogram: Histogram, interval: Interval, scalar: bool = False
) -> int:
    """Distinct histogram values inside the interval."""
    if scalar or histogram.values.dtype == object:
        return sum(
            1 for v in histogram.values if interval.low <= int(v) <= interval.high
        )
    start, stop = histogram._range_slice(interval.low, interval.high)
    return stop - start


def _interval_bounds_slices(
    histogram: Histogram, intervals: Sequence[Interval]
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``_range_slice`` over many intervals at once."""
    lows = np.asarray([i.low for i in intervals], dtype=np.uint64)
    highs = np.asarray([i.high for i in intervals], dtype=np.uint64)
    starts = histogram.values.searchsorted(lows, side="left")
    stops = histogram.values.searchsorted(highs, side="right")
    return starts, stops


def _interval_distinct_many(
    histogram: Histogram, intervals: Sequence[Interval], scalar: bool
) -> List[int]:
    """Distinct value counts for every interval, batched when vectorized."""
    if scalar or histogram.values.dtype == object:
        return [_interval_distinct(histogram, i, scalar=True) for i in intervals]
    starts, stops = _interval_bounds_slices(histogram, intervals)
    return (stops - starts).tolist()


def _interval_counts_many(
    histogram: Histogram, intervals: Sequence[Interval], scalar: bool
) -> List[int]:
    """Observation counts for every interval, batched when vectorized."""
    if scalar or histogram.values.dtype == object:
        return [histogram.count_in_range(i.low, i.high) for i in intervals]
    starts, stops = _interval_bounds_slices(histogram, intervals)
    cumulative = np.concatenate([[0], np.cumsum(histogram.counts)])
    return (cumulative[stops] - cumulative[starts]).tolist()


def _top_ranges(
    histogram: Histogram,
    intervals: List[Interval],
    limit: int,
    scalar: bool = False,
) -> List[Interval]:
    """Keep the ``limit`` ranges covering the most observations.

    Overlapping candidates are merged first so removals do not corrupt
    later counts.
    """
    from repro.cluster.intervals import merge_intervals

    merged = merge_intervals(intervals)
    if not merged:
        return merged
    covered = _interval_counts_many(histogram, merged, scalar)
    decorated = sorted(
        zip(merged, covered), key=lambda pair: (-pair[1], pair[0].low)
    )
    chosen = [interval for interval, _ in decorated[:limit]]
    chosen.sort(key=lambda i: i.low)
    return chosen
