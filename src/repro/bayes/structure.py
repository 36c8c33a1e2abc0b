"""Structure learning under the paper's left-to-right ordering constraint.

Section 4.4: "Since learning BNs from data is generally NP-hard, we
constrain the network so that given segment k can only depend on previous
segments <k".  Under a fixed variable order, the globally optimal
structure decomposes: each vertex independently picks the predecessor
subset maximizing its family score.  This is exactly the setting in which
BNFinder's algorithm (Dojer 2006) is exact and polynomial, and we
implement the same exhaustive-with-bound search:

- enumerate parent subsets of each vertex's predecessors up to
  ``max_parents`` elements, smallest subsets first;
- score each with BDeu (default) or BIC/MDL;
- keep the best subset.

For wide models a greedy fallback activates when the predecessor count
makes exhaustive enumeration too large.

Scoring runs on cached sufficient statistics
(:class:`repro.bayes.scores.FamilyStats`) and is *tier-batched*: the
exhaustive sweep hands each whole subset tier (all predecessor subsets
of one size) to :meth:`~repro.bayes.scores.FamilyStats.score_tier`,
which counts every family of the tier in one fused ``bincount`` and
evaluates all their BDeu cells with a single ``gammaln`` pass per
chunk — with per-family summation order preserved, so each score is
bit-identical to the per-family path and near-tie winners cannot move.
Greedy forward selection batches each iteration's candidate additions
the same way.  Per-``(child, parent-set)`` scores are memoized so
neither search strategy ever re-counts a family, and the count tensors
of the winning families are handed straight to CPD estimation, which
makes the fitted parameters bit-identical to the uncached path by
construction.  ``learn_structure(..., cache=False)`` retains the
original score-from-scratch behaviour.
``tests/core/test_fit_golden.py::TestTierBatchedBDeu`` pins
tier-batched output against it, and ``EntropyIP._fit_reference``
learns with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.cpd import estimate_cpd
from repro.bayes.network import BayesianNetwork
from repro.bayes.scores import FamilyStats, family_score


@dataclass(frozen=True)
class StructureConfig:
    """Knobs of the structure learner.

    max_parents
        Upper bound on any vertex's in-degree (BNFinder-style bound).
    score
        "bdeu" (default) or "bic"/"mdl".
    equivalent_sample_size
        BDeu prior strength; ignored for BIC.
    exhaustive_limit
        Maximum number of candidate subsets to enumerate exhaustively per
        vertex before switching to greedy forward selection.
    alpha
        Dirichlet smoothing pseudo-count used when fitting the CPDs of
        the final network.
    """

    max_parents: int = 2
    score: str = "bdeu"
    equivalent_sample_size: float = 1.0
    exhaustive_limit: int = 20000
    alpha: float = 0.05


def learn_structure(
    data: np.ndarray,
    names: Sequence[str],
    cardinalities: Sequence[int],
    config: StructureConfig = StructureConfig(),
    cache: bool = True,
    stats: Optional[FamilyStats] = None,
) -> BayesianNetwork:
    """Learn an ordered BN from an (n, num_vars) categorical code matrix.

    ``names`` fixes the ordering constraint: column k may only receive
    parents among columns < k.

    ``cache`` (default) scores through a shared
    :class:`~repro.bayes.scores.FamilyStats` instance and estimates
    each CPD from the count tensor its family was scored with;
    ``cache=False`` retains the original re-count-per-score path (the
    reference of ``TestTierBatchedBDeu`` — results are bit-identical
    either way).
    ``stats`` supplies a pre-built (e.g. incrementally extended)
    :class:`~repro.bayes.scores.FamilyStats` over the same rows — the
    streaming-ingest refit path, where family counts have already been
    folded batch by batch; it must agree with ``data`` on the sample
    count.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D code matrix")
    n, num_vars = data.shape
    if num_vars != len(names) or num_vars != len(cardinalities):
        raise ValueError("names/cardinalities must match data columns")
    if n == 0:
        raise ValueError("cannot learn from an empty dataset")

    if stats is not None and stats.n_samples != n:
        raise ValueError(
            f"stats cover {stats.n_samples} rows, data has {n}"
        )
    if stats is None and cache:
        stats = FamilyStats(data, cardinalities)
    parent_sets = [
        select_parents(data, child, cardinalities, config, stats=stats)
        for child in range(num_vars)
    ]
    cpds = [
        estimate_cpd(
            data,
            child,
            parent_sets[child],
            cardinalities,
            names,
            alpha=config.alpha,
            counts=(
                stats.counts(child, parent_sets[child])
                if stats is not None
                else None
            ),
        )
        for child in range(num_vars)
    ]
    return BayesianNetwork(names, cpds)


def select_parents(
    data: np.ndarray,
    child: int,
    cardinalities: Sequence[int],
    config: StructureConfig,
    stats: Optional[FamilyStats] = None,
) -> Tuple[int, ...]:
    """Best-scoring parent subset of vertex ``child``'s predecessors.

    With ``stats`` (the cached path), degenerate cardinality-1
    variables are pruned from the search: a constant child scores 0 for
    every parent set (the two BDeu sums cancel exactly), and adding a
    constant parent to any subset reproduces the smaller subset's count
    table — and therefore its exact float score — so under the strict
    ``>`` comparisons (smallest subsets first) neither can ever be
    selected.  The pruned search returns bit-identical parent sets to
    the exhaustive reference; the exhaustive-vs-greedy decision still
    uses the unpruned predecessor count so both paths walk the same
    search strategy.
    """
    predecessors = list(range(child))
    max_parents = min(config.max_parents, len(predecessors))
    if stats is not None:
        if cardinalities[child] <= 1:
            return ()
        predecessors = [i for i in predecessors if cardinalities[i] > 1]

    if stats is not None:

        def score_of(parents: Tuple[int, ...]) -> float:
            return stats.score(
                child,
                parents,
                method=config.score,
                equivalent_sample_size=config.equivalent_sample_size,
            )

        def score_tier_of(tier: List[Tuple[int, ...]]) -> List[float]:
            return stats.score_tier(
                child,
                tier,
                method=config.score,
                equivalent_sample_size=config.equivalent_sample_size,
            )

    else:

        def score_of(parents: Tuple[int, ...]) -> float:
            return family_score(
                data,
                child,
                parents,
                cardinalities,
                method=config.score,
                equivalent_sample_size=config.equivalent_sample_size,
            )

        score_tier_of = None

    # Exhaustive-vs-greedy is decided on the unpruned predecessor count
    # so the cached and reference paths always run the same strategy.
    if _subset_count(child, min(config.max_parents, child)) <= config.exhaustive_limit:
        best_parents: Tuple[int, ...] = ()
        best_score = score_of(())
        for size in range(1, max_parents + 1):
            tier = list(combinations(predecessors, size))
            if not tier:
                break
            # One fused counting/gammaln pass scores the whole tier on
            # the cached path; the comparison below walks the same
            # subsets in the same order with the same strict >, so the
            # selected parents are bit-identical to per-family scoring.
            if score_tier_of is not None:
                tier_scores = score_tier_of(tier)
            else:
                tier_scores = [score_of(subset) for subset in tier]
            for subset, candidate_score in zip(tier, tier_scores):
                if candidate_score > best_score:
                    best_score = candidate_score
                    best_parents = subset
        return best_parents
    return _greedy_parents(
        predecessors, max_parents, score_of, score_tier_of=score_tier_of
    )


def _greedy_parents(
    predecessors: List[int],
    max_parents: int,
    score_of,
    score_tier_of=None,
) -> Tuple[int, ...]:
    """Greedy forward selection: add the best single parent until no gain.

    Each iteration's candidate one-parent extensions form a tier;
    ``score_tier_of`` (the cached path) scores them in one fused pass,
    with the selection loop unchanged so the chosen additions are
    bit-identical to per-candidate scoring.
    """
    chosen: List[int] = []
    current_score = score_of(())
    while len(chosen) < max_parents:
        candidates = [c for c in predecessors if c not in chosen]
        if not candidates:
            break
        tier = [tuple(sorted(chosen + [c])) for c in candidates]
        if score_tier_of is not None:
            tier_scores = score_tier_of(tier)
        else:
            tier_scores = [score_of(candidate_set) for candidate_set in tier]
        best_addition = None
        best_score = current_score
        for candidate, candidate_score in zip(candidates, tier_scores):
            if candidate_score > best_score:
                best_score = candidate_score
                best_addition = candidate
        if best_addition is None:
            break
        chosen.append(best_addition)
        current_score = best_score
    return tuple(sorted(chosen))


def _subset_count(n: int, k: int) -> int:
    """Number of subsets of an n-set with at most k elements."""
    total = 0
    term = 1
    for size in range(0, k + 1):
        if size > 0:
            term = term * (n - size + 1) // size
        total += term
    return total


def learned_parent_map(network: BayesianNetwork) -> Dict[str, Tuple[str, ...]]:
    """Convenience: variable → parents mapping of a learned network."""
    return {v: network.parents(v) for v in network.variables}
