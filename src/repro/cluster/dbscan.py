"""DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996), from scratch.

Density-based clustering: a point is a *core* point if at least
``min_samples`` points (including itself, counted with weights) lie
within distance ``eps`` of it; clusters are the connected components of
core points under the eps-neighborhood relation, plus any *border* points
within eps of a core point.  Everything else is noise.

This implementation supports:

- weighted points (a point with weight w contributes w samples to every
  neighborhood it belongs to) — the mining step clusters *distinct*
  segment values weighted by their frequencies instead of expanding
  multisets;
- two interchangeable engines behind one :class:`DBSCAN` facade:

  * ``"vector"`` — the array-native engine segment mining runs on.
    Points are ordered by their first coordinate; two ``searchsorted``
    calls per point delimit a *candidate band* (using an
    over-approximated radius, so no true neighbor can fall outside),
    the exact distance test runs once over the flattened band pairs,
    neighborhood weights come from one ``bincount``, core components
    from a sparse connected-components pass, and border points join the
    lowest-numbered adjacent cluster.  No per-point Python region
    queries at all.
  * ``"grid"`` — the original scan: a uniform-grid spatial index with
    cell size eps and an explicit expansion frontier.  Retained both as
    the reference implementation (the scalar fit path of
    ``EntropyIP._fit_reference`` runs it) and as the fallback for
    inputs the banded engine cannot handle bit-exactly (non-integral
    weights, or coordinates so large that the band over-approximation
    slack would round away — see :func:`_banded_is_exact`).

Both engines produce **identical labels**, not merely isomorphic
clusterings: distances use the same ``sqrt((deltas**2).sum())``
arithmetic (the banded engine sums the squared terms column by column,
left to right, which is the order numpy's ``sum(axis=1)`` adds fewer
than 8 columns in), integer-valued weights make neighborhood sums
order-independent, cluster ids number components by their smallest
original core index (the order the scan discovers them), and a border
point between two clusters joins the lower-numbered one (the one whose
expansion reaches it first).  ``tests/cluster`` and the property suite
assert this parity on random inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Cluster label assigned to noise points.
NOISE = -1

#: Relative over-approximation applied to the banded engine's candidate
#: radius.  Any point passing the exact test ``sqrt((dx² + ... )) <= eps``
#: has ``|dx| <= eps * (1 + 2**-50)``, so widening the candidate window
#: by this much guarantees the band is a superset of every true
#: neighborhood (provided the slack survives coordinate rounding, which
#: :func:`_banded_is_exact` checks).
_BAND_SLACK = 1e-9

#: Candidate-pair budget of the banded engine (~30M pairs ≈ a few
#: hundred MB transient); denser inputs fall back to the grid scan.
_MAX_BAND_PAIRS = 30_000_000

#: Columns below which numpy's ``(n, d).sum(axis=1)`` adds a row's
#: terms left to right, the order the banded engine's column-wise sum
#: uses; wider points go to the grid scan.
_MAX_BANDED_DIMS = 8


class DBSCAN:
    """Reusable DBSCAN clusterer.

    ``algorithm`` selects the engine: ``"auto"`` (default) runs the
    vectorized banded engine whenever it is provably label-exact for
    the input and the grid scan otherwise; ``"vector"`` / ``"grid"``
    force one engine.

    >>> points = [[0.0], [0.1], [0.2], [9.0]]
    >>> DBSCAN(eps=0.5, min_samples=2).fit(points).labels.tolist()
    [0, 0, 0, -1]
    """

    def __init__(self, eps: float, min_samples: float, algorithm: str = "auto"):
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_samples <= 0:
            raise ValueError("min_samples must be positive")
        if algorithm not in ("auto", "vector", "grid"):
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        self.eps = float(eps)
        self.min_samples = float(min_samples)
        self.algorithm = algorithm
        self.labels: Optional[np.ndarray] = None

    def fit(
        self, points: Sequence[Sequence[float]], weights: Sequence[float] = None
    ) -> "DBSCAN":
        """Cluster ``points``; results land in :attr:`labels`."""
        array = np.asarray(points, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        n = array.shape[0]
        if weights is None:
            weight_array = np.ones(n, dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64)
            if weight_array.shape != (n,):
                raise ValueError("weights must match number of points")
            if np.any(weight_array < 0):
                raise ValueError("weights must be non-negative")
        if self.algorithm == "grid" or (
            self.algorithm == "auto"
            and not _banded_is_exact(array, weight_array, self.eps)
        ):
            engine = _dbscan_grid
        else:
            engine = _dbscan_banded
        self.labels = engine(array, weight_array, self.eps, self.min_samples)
        return self

    def clusters(self) -> Dict[int, List[int]]:
        """Cluster label → member point indices (noise excluded)."""
        if self.labels is None:
            raise RuntimeError("fit() has not been called")
        result: Dict[int, List[int]] = {}
        for index, label in enumerate(self.labels):
            if label != NOISE:
                result.setdefault(int(label), []).append(index)
        return result


def dbscan_labels(
    points: Sequence[Sequence[float]],
    eps: float,
    min_samples: float,
    weights: Sequence[float] = None,
) -> np.ndarray:
    """Functional one-shot interface to :class:`DBSCAN`."""
    return DBSCAN(eps, min_samples).fit(points, weights).labels


# ----------------------------------------------------------------------
# vectorized banded engine
# ----------------------------------------------------------------------


def _banded_is_exact(
    points: np.ndarray, weights: np.ndarray, eps: float
) -> bool:
    """True when the banded engine is label-identical to the grid scan.

    Three conditions: fewer than :data:`_MAX_BANDED_DIMS` coordinates
    (so both engines add squared distance terms in one order), all
    weights integral and summing inside the float64 exact-integer range
    (so neighborhood sums are order-independent), and the band slack
    ``eps * _BAND_SLACK`` strictly dominating the rounding of
    ``x ± radius`` at the coordinate magnitudes present (so the
    candidate window cannot round past a true neighbor).  All hold for
    every input segment mining produces (one or two coordinates).
    """
    if points.shape[0] == 0:
        return True
    if points.shape[1] >= _MAX_BANDED_DIMS:
        return False
    if not np.all(weights == np.floor(weights)):
        return False
    if weights.sum() >= 2.0**53:
        return False
    x = points[:, 0]
    max_magnitude = float(np.abs(x).max()) + eps
    return eps * _BAND_SLACK > 8.0 * np.spacing(max_magnitude)


def _dbscan_banded(
    points: np.ndarray, weights: np.ndarray, eps: float, min_samples: float
) -> np.ndarray:
    """Vectorized DBSCAN over first-coordinate candidate bands.

    Label-identical to :func:`_dbscan_grid` for inputs passing
    :func:`_banded_is_exact` (see module docstring for why the
    tie-breaking rules coincide).
    """
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    order = np.argsort(points[:, 0], kind="stable")
    # One contiguous array per coordinate, in sorted order: pairs are
    # gathered with 1-D ``take``s, never as rows of ``points``.
    columns = [column.take(order) for column in points.T]
    x = columns[0]
    radius = eps * (1.0 + _BAND_SLACK)
    lo = np.searchsorted(x, x - radius, side="left")
    hi = np.searchsorted(x, x + radius, side="right")
    band_widths = hi - lo
    total = int(band_widths.sum())
    if total > _MAX_BAND_PAIRS:
        # Dense bands would materialize too many candidate pairs; the
        # grid scan handles this regime in bounded memory.
        return _dbscan_grid(points, weights, eps, min_samples)
    rows = np.repeat(np.arange(n, dtype=np.int64), band_widths)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(band_widths[:-1], out=starts[1:])
    cols = np.arange(total, dtype=np.int64) - np.repeat(starts - lo, band_widths)
    # The exact neighbor test, same arithmetic as the grid scan: the
    # squared terms are summed column by column, in column order.
    squared = None
    for column in columns:
        delta = column.take(cols) - column.take(rows)
        delta *= delta
        squared = delta if squared is None else squared + delta
    within = np.sqrt(squared) <= eps
    rows, cols = rows[within], cols[within]
    sorted_weights = weights[order]
    neighborhood_weight = np.bincount(
        rows, weights=sorted_weights[cols], minlength=n
    )
    core = neighborhood_weight >= min_samples
    core_indices = np.nonzero(core)[0]
    if core_indices.size == 0:
        return labels
    if points.shape[1] == 1:
        # 1-D fast path: cores are sorted by value, and core i connects
        # to core j > i exactly when every consecutive gap between them
        # passes the eps test (distance is monotone along the line), so
        # components split at consecutive-core gaps exceeding eps.
        core_x = x.take(core_indices)
        gap = core_x[1:] - core_x[:-1]
        broken = np.sqrt(gap * gap) > eps
        component = np.concatenate([[0], np.cumsum(broken)])
    else:
        # Components of the core-core adjacency (sparse, C pass).
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        core_pair = core[rows] & core[cols]
        core_rank = np.cumsum(core) - 1  # sorted core index → 0..k-1
        graph = coo_matrix(
            (
                np.ones(int(core_pair.sum()), dtype=np.int8),
                (core_rank[rows[core_pair]], core_rank[cols[core_pair]]),
            ),
            shape=(core_indices.size, core_indices.size),
        )
        _, component = connected_components(graph, directed=False)
    # Renumber components by their smallest ORIGINAL core index — the
    # order in which the scanning engine discovers clusters.
    first_original = np.full(int(component.max()) + 1, n, dtype=np.int64)
    np.minimum.at(first_original, component, order[core_indices])
    component = np.argsort(np.argsort(first_original, kind="stable"))[component]
    core_labels = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    core_labels[core_indices] = component
    sorted_labels = np.full(n, NOISE, dtype=np.int64)
    sorted_labels[core_indices] = component
    # Border points: non-core within eps of >= 1 core join the
    # lowest-numbered such cluster (whose expansion claims them first).
    border_pair = ~core[rows] & core[cols]
    if border_pair.any():
        border_best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(
            border_best, rows[border_pair], core_labels[cols[border_pair]]
        )
        claimed = border_best < np.iinfo(np.int64).max
        sorted_labels[claimed] = border_best[claimed]
    labels[order] = sorted_labels
    return labels


# ----------------------------------------------------------------------
# grid-scan engine (reference + fallback)
# ----------------------------------------------------------------------


class _GridIndex:
    """Uniform-grid spatial index with cell size eps.

    All points within eps of a query point lie in the query's cell or one
    of its immediate neighbors, so a region query examines at most 3^d
    cells.
    """

    def __init__(self, points: np.ndarray, eps: float):
        self._points = points
        self._eps = eps
        self._cells: Dict[Tuple[int, ...], List[int]] = {}
        keys = np.floor(points / eps).astype(np.int64)
        for index, key in enumerate(map(tuple, keys)):
            self._cells.setdefault(key, []).append(index)
        dims = points.shape[1]
        self._offsets = list(product((-1, 0, 1), repeat=dims))

    def neighbors(self, index: int) -> List[int]:
        """Indices of all points within eps of point ``index`` (incl. it)."""
        point = self._points[index]
        key = tuple(np.floor(point / self._eps).astype(np.int64))
        candidates: List[int] = []
        for offset in self._offsets:
            cell = tuple(k + o for k, o in zip(key, offset))
            candidates.extend(self._cells.get(cell, ()))
        if not candidates:
            return []
        candidate_array = np.asarray(candidates, dtype=np.intp)
        deltas = self._points[candidate_array] - point
        distances = np.sqrt((deltas * deltas).sum(axis=1))
        within = candidate_array[distances <= self._eps]
        return within.tolist()


def _dbscan_grid(
    points: np.ndarray, weights: np.ndarray, eps: float, min_samples: float
) -> np.ndarray:
    """The original frontier-expansion scan over a grid index."""
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels
    index = _GridIndex(points, eps)

    neighbor_cache: Dict[int, List[int]] = {}

    def region(i: int) -> List[int]:
        if i not in neighbor_cache:
            neighbor_cache[i] = index.neighbors(i)
        return neighbor_cache[i]

    def is_core(i: int) -> bool:
        return float(weights[np.asarray(region(i), dtype=np.intp)].sum()) >= min_samples

    cluster_id = 0
    visited = np.zeros(n, dtype=bool)
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        if not is_core(start):
            continue  # may become a border point of a later cluster
        labels[start] = cluster_id
        frontier = [i for i in region(start) if i != start]
        while frontier:
            current = frontier.pop()
            if labels[current] == NOISE:
                labels[current] = cluster_id  # border or core, joins cluster
            if visited[current]:
                continue
            visited[current] = True
            if is_core(current):
                for neighbor in region(current):
                    if labels[neighbor] == NOISE or not visited[neighbor]:
                        frontier.append(neighbor)
        cluster_id += 1
    return labels


#: Backwards-compatible alias for the original engine entry point.
_dbscan = _dbscan_grid
