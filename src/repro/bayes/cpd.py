"""Conditional probability tables (CPDs) with Dirichlet smoothing.

Each BN vertex holds P(child | parents) as a table; we estimate tables
from code-vector data with a symmetric Dirichlet prior so that candidate
generation (Section 5.5) can venture slightly beyond the exact training
combinations without assigning zero mass to unseen parent configurations.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.bayes.factor import Factor


class SamplingGuide(NamedTuple):
    """A guide table over :meth:`CPD.sampling_cdf` (see
    :meth:`CPD.sampling_guide`)."""

    #: ``sampling_cdf()`` plus a ``+inf`` sentinel that ends every scan.
    cdf: np.ndarray
    #: Scan start per bucket; a key's bucket is ``floor(key * scale)``,
    #: clamped to the last one.
    guide: np.ndarray
    scale: float
    #: Per configuration, the highest state a draw may return.
    top: np.ndarray


class CPD:
    """P(child | parents) as a normalized table.

    ``table`` has axes ordered ``(child, *parents)``; every slice along
    the child axis for a fixed parent assignment sums to 1.
    """

    __slots__ = (
        "child",
        "parents",
        "table",
        "_sampling_cdf",
        "_sampling_cdf2d",
        "_sampling_guide",
    )

    def __init__(self, child: str, parents: Sequence[str], table: np.ndarray):
        self.child = child
        self.parents: Tuple[str, ...] = tuple(parents)
        self.table = np.asarray(table, dtype=np.float64)
        self._sampling_cdf = None
        self._sampling_cdf2d = None
        self._sampling_guide = None
        if self.child in self.parents:
            raise ValueError(f"{child!r} cannot be its own parent")
        if self.table.ndim != 1 + len(self.parents):
            raise ValueError(
                f"table rank {self.table.ndim} != 1 + {len(self.parents)} parents"
            )
        if np.any(self.table < 0):
            raise ValueError("CPD table must be non-negative")
        sums = self.table.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("CPD columns must each sum to 1")

    @property
    def child_cardinality(self) -> int:
        return self.table.shape[0]

    def parent_cardinalities(self) -> Dict[str, int]:
        return {p: s for p, s in zip(self.parents, self.table.shape[1:])}

    def distribution(self, parent_states: Mapping[str, int]) -> np.ndarray:
        """P(child | the given parent assignment), as a vector."""
        index = tuple(parent_states[p] for p in self.parents)
        return self.table[(slice(None),) + index]

    def probability(self, child_state: int, parent_states: Mapping[str, int]) -> float:
        """P(child = child_state | parent assignment)."""
        return float(self.distribution(parent_states)[child_state])

    def to_factor(self) -> Factor:
        """The CPD viewed as a factor over (child, *parents)."""
        return Factor((self.child,) + self.parents, self.table)

    def sampling_cdf(self) -> np.ndarray:
        """Flattened per-configuration cumulative table for inverse-CDF draws.

        Entry ``[config * child_cardinality + state]`` holds
        ``config + P(child <= state | config)`` (the rows of
        :meth:`sampling_cdf_matrix` laid end to end), so the whole
        array is sorted ascending and one ``searchsorted(cdf, config +
        u, side="right")`` maps a uniform ``u`` to a child state for
        every row at once (the vectorized sampling hot path).  Built
        lazily, cached for the lifetime of the CPD.
        """
        if self._sampling_cdf is None:
            rows = self.sampling_cdf_matrix()
            offsets = np.arange(len(rows), dtype=np.float64)[:, None]
            self._sampling_cdf = (rows + offsets).ravel()
        return self._sampling_cdf

    def sampling_cdf_matrix(self) -> np.ndarray:
        """Per-configuration CDF rows for inverse-CDF draws.

        Row ``c`` holds ``P(child <= state | config c)``, exact at its
        edges: the cumulative sum is clamped at 1 (rounding can carry
        it an ulp past 1 before the last state, which would leave the
        row unsorted), and every entry from the row's last
        positive-probability state on is exactly 1, so a uniform just
        below 1 can never land on a trailing zero-probability state.
        Grouped sampling (see :func:`repro.bayes.sampling._draw_states`)
        gathers one row per realized parent configuration and runs
        ``searchsorted`` inside that tiny slice, instead of searching
        the full concatenated table for every sample.  Built lazily,
        cached for the lifetime of the CPD; the table is assumed
        immutable afterwards.
        """
        if self._sampling_cdf2d is None:
            flat = self.table.reshape(self.child_cardinality, -1)
            cdf = np.minimum(np.cumsum(flat, axis=0), 1.0)
            states = np.arange(self.child_cardinality)[:, None]
            last = states[-1] - np.argmax(flat[::-1] > 0, axis=0)
            cdf[states >= last] = 1.0
            self._sampling_cdf2d = np.ascontiguousarray(cdf.T)
        return self._sampling_cdf2d

    def sampling_guide(self) -> SamplingGuide:
        """Guide table over :meth:`sampling_cdf` for inverse-CDF draws
        (Chen & Asau 1974; Devroye, *Non-Uniform Random Variate
        Generation*, 1986).

        The key range ``[0, configs]`` is cut into equal buckets, and
        ``guide[b]`` is the number of CDF entries at or below bucket
        ``b``'s lower edge, lowered by half a bucket: no key that
        rounds into bucket ``b`` has a smaller answer, so a forward
        scan from ``guide[b]`` while ``cdf[i] <= key`` stops exactly
        where ``searchsorted(cdf, key, side="right")`` does.  With 16
        buckets per CDF entry (4096 at least) most scans take no step.
        Built lazily, cached for the lifetime of the CPD.
        """
        if self._sampling_guide is None:
            cdf = self.sampling_cdf()
            configs = len(cdf) // self.child_cardinality
            buckets = max(4096, 16 * len(cdf))
            scale = buckets / configs
            edges = (np.arange(buckets) - 0.5) / scale
            guide = np.searchsorted(cdf, edges, side="right")
            # A key c + u that rounds up to c + 1 would search past
            # configuration c; draws clamp it to the last state a key
            # below c + 1 can reach.
            top = np.searchsorted(
                cdf, np.arange(1, configs + 1, dtype=np.float64), side="left"
            ) - np.arange(configs) * self.child_cardinality
            self._sampling_guide = SamplingGuide(
                np.append(cdf, np.inf), guide.astype(np.intp), scale, top
            )
        return self._sampling_guide

    def __repr__(self) -> str:
        return (
            f"CPD(child={self.child!r}, parents={self.parents}, "
            f"shape={self.table.shape})"
        )


def count_family(
    data: np.ndarray,
    child_index: int,
    parent_indices: Sequence[int],
    cardinalities: Sequence[int],
) -> np.ndarray:
    """Joint counts N(child, parents) from categorical data.

    ``data`` is an (n, num_vars) integer matrix; the result has axes
    ``(child, *parents)`` matching :class:`CPD` layout.
    """
    child_card = cardinalities[child_index]
    parent_cards = [cardinalities[i] for i in parent_indices]
    shape = (child_card, *parent_cards)
    # Flatten the family columns into a single index for fast bincount.
    flat = data[:, child_index].astype(np.int64)
    for parent_index, parent_card in zip(parent_indices, parent_cards):
        flat = flat * parent_card + data[:, parent_index].astype(np.int64)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.reshape(shape).astype(np.float64)


def estimate_cpd(
    data: np.ndarray,
    child_index: int,
    parent_indices: Sequence[int],
    cardinalities: Sequence[int],
    names: Sequence[str],
    alpha: float = 0.5,
    counts: np.ndarray = None,
) -> CPD:
    """Estimate P(child | parents) with a symmetric Dirichlet prior.

    ``alpha`` is the per-cell pseudo-count; 0 gives the raw MLE (parent
    configurations never observed then fall back to uniform).

    ``counts`` optionally supplies the pre-computed family count tensor
    (axes ``(child, *parents)``, as :func:`count_family` lays it out) —
    the structure learner passes the cached sufficient statistics the
    family was scored with, so parameter estimation never re-counts.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if counts is None:
        counts = count_family(data, child_index, parent_indices, cardinalities)
    smoothed = counts + alpha
    column_totals = smoothed.sum(axis=0)
    # Guard the alpha == 0 case: unseen parent configs become uniform.
    zero_mask = column_totals == 0
    if np.any(zero_mask):
        smoothed = smoothed + np.where(zero_mask, 1.0, 0.0)
        column_totals = smoothed.sum(axis=0)
    table = smoothed / column_totals
    return CPD(
        names[child_index],
        [names[i] for i in parent_indices],
        table,
    )
