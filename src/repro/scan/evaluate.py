"""Scanning and prefix-prediction experiments (Tables 4, 5 and 6).

The methodology follows Section 5.5 exactly:

1. sample a training set of ``train_size`` real addresses from the
   network's observed dataset;
2. fit Entropy/IP on the training set;
3. generate ``n_candidates`` distinct candidates (training excluded);
4. score: membership in the held-out test set, simulated ping, and
   simulated rDNS; "Overall" = any of the three; success rate =
   overall / candidates; "New /64s" = overall hits in /64 prefixes not
   present in training.

Section 5.6's prefix prediction runs the same pipeline constrained to
the top 64 bits (``width=16``), scoring candidates against the /64s
active on the training day and across the whole week.

The scoring pipeline is array-native end to end: candidates stay an
:class:`~repro.ipv6.sets.AddressSet` from generation through oracle
masks (:meth:`~repro.scan.responder.SimulatedResponder.ping_mask` et
al.) to the /64 accounting, which derives the prefix width from the
training set itself — so §5.6 prefix-mode (width 16) runs compare
matching-width prefix sets rather than shifting one side by 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.pipeline import EntropyIP
from repro.datasets.networks import SyntheticNetwork
from repro.exec.pool import resolve_workers
from repro.ipv6.sets import AddressSet, split_train_test
from repro.scan.responder import SimulatedResponder
from repro.serve.lifecycle import SessionSpec


@dataclass(frozen=True)
class ScanResult:
    """One row of Table 4."""

    dataset: str
    train_size: int
    n_candidates: int
    found_test_set: int
    found_ping: int
    found_rdns: int
    found_overall: int
    new_prefixes64: int

    @property
    def success_rate(self) -> float:
        """Overall hits / generated candidates (the paper's "Success rate")."""
        return self.found_overall / self.n_candidates if self.n_candidates else 0.0

    def row(self) -> str:
        """Render like a Table 4 line."""
        return (
            f"{self.dataset:>4}  test={self.found_test_set:>7}  "
            f"ping={self.found_ping:>7}  rdns={self.found_rdns:>7}  "
            f"overall={self.found_overall:>7}  "
            f"success={100 * self.success_rate:5.2f}%  "
            f"new/64s={self.new_prefixes64:>6}"
        )


@dataclass(frozen=True)
class PrefixPredictionResult:
    """One row of Table 6."""

    dataset: str
    train_size: int
    n_candidates: int
    predicted_day: int
    predicted_week: int

    @property
    def success_rate_week(self) -> float:
        """7-day success rate (the paper's rightmost column)."""
        return self.predicted_week / self.n_candidates if self.n_candidates else 0.0

    def row(self) -> str:
        """Render like a Table 6 line."""
        return (
            f"{self.dataset:>4}  day={self.predicted_day:>7}  "
            f"week={self.predicted_week:>7}  "
            f"success={100 * self.success_rate_week:5.2f}%"
        )


def scan_experiment(
    network: SyntheticNetwork,
    train_size: int = 1000,
    n_candidates: int = 100_000,
    dataset_size: Optional[int] = None,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ScanResult:
    """Run the full §5.5 scanning experiment against one network.

    ``dataset_size`` bounds the observed dataset sampled from the
    population (defaults to half the population, leaving the rest as
    never-observed-but-active addresses the ping oracle can confirm).

    ``workers`` runs generation and oracle scoring across a worker
    pool (see :mod:`repro.exec`); results are bit-identical for any
    worker count, including the serial default.
    """
    resolve_workers(workers)  # workers=0 fails before the population builds
    population = network.population(seed)
    responder = SimulatedResponder(
        population,
        ping_rate=network.ping_rate,
        rdns_rate=network.rdns_rate,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 17)
    if dataset_size is None:
        dataset_size = max(train_size * 2, len(population) // 2)
    dataset = population.sample(min(dataset_size, len(population)), rng)
    train, test = split_train_test(dataset, train_size, rng)

    analysis = EntropyIP.fit(train, width=train.width)
    # A generation session (training pre-excluded) rather than a bare
    # exclude: same rows bit for bit, and callers that extend the
    # experiment into follow-up rounds inherit the no-repeat guarantee
    # for free.  Opened through the one canonical SessionSpec recipe
    # (shared with the serving runtime and the CLI), capped at the full
    # candidate count so the table never rehashes mid-experiment — the
    # capacity the old per-call exclude path implied, now enforced.
    session = SessionSpec(
        exclude=train,
        capacity=n_candidates + len(train),
        workers=workers,
    ).open(analysis.model)
    try:
        candidates = analysis.model.generate_set(
            n_candidates,
            rng,
            state=session,
            workers=workers,
        )
    finally:
        session.close()

    # One scoring path for any worker count: sharded_map_rows and
    # oracle_masks both run inline when workers is None, and their
    # outputs are pinned equal to the per-mask calls by the exec tests.
    from repro.exec import sharded_map_rows

    packed = candidates.packed_rows()
    if len(test):
        test._membership_index()  # build serially, probe in shards
    test_mask = sharded_map_rows(
        lambda a, b: test.match_words(packed[a:b]) >= 0,
        len(candidates),
        workers=workers,
    )
    _, ping_mask, rdns_mask = responder.oracle_masks(
        candidates, workers=workers
    )
    overall_mask = test_mask | ping_mask | rdns_mask
    overall = candidates.take(np.flatnonzero(overall_mask))

    # "New /64s": overall hits in prefixes unseen in training.  Both
    # prefix sets derive from the same nybble width (train.width), so
    # prefix-mode (width 16) runs subtract like against like.
    new_64s = np.setdiff1d(
        overall.prefixes64(), train.prefixes64(), assume_unique=True
    )

    return ScanResult(
        dataset=network.name,
        train_size=train_size,
        n_candidates=len(candidates),
        found_test_set=int(test_mask.sum()),
        found_ping=int(ping_mask.sum()),
        found_rdns=int(rdns_mask.sum()),
        found_overall=len(overall),
        new_prefixes64=len(new_64s),
    )


def prefix_prediction_experiment(
    network: SyntheticNetwork,
    train_size: int = 1000,
    n_candidates: int = 100_000,
    day_fraction: float = 0.45,
    seed: int = 0,
    workers: Optional[int] = None,
) -> PrefixPredictionResult:
    """Run the §5.6 client /64 prediction experiment.

    The population's /64 set plays the role of the prefixes active at
    least once in the week; a random ``day_fraction`` of them is "seen
    on March 17th".  Training samples 1K day-1 prefixes; candidates are
    scored against the day-1 set and the full week set.  Scoring is
    pure uint64 array membership (the /64 identifier of a width-16 row
    is the row itself).

    ``workers`` has the same spelling and semantics as every other
    session-opening entry point (results are bit-identical for any
    worker count).
    """
    population = network.population(seed)
    week_prefixes = population.prefixes64()  # sorted distinct uint64
    rng = np.random.default_rng(seed + 29)
    day_count = max(train_size + 1, int(len(week_prefixes) * day_fraction))
    day_count = min(day_count, len(week_prefixes))
    day_rows = rng.choice(len(week_prefixes), size=day_count, replace=False)
    day_prefixes = week_prefixes[day_rows]

    train_rows = rng.choice(len(day_prefixes), size=train_size, replace=False)
    train = AddressSet.from_words(day_prefixes[train_rows], width=16)

    analysis = EntropyIP.fit(train, width=16)
    # Same canonical session recipe as the full-width experiment
    # (session-backed generation is bit-identical to the bare
    # exclude= call); uncapped because prefix-mode support is often
    # smaller than the ask and saturates early.
    session = SessionSpec(exclude=train, workers=workers).open(analysis.model)
    try:
        candidates = analysis.model.generate_set(
            n_candidates, rng, state=session, workers=workers
        )
    finally:
        session.close()

    candidate_words = candidates.prefixes64()  # distinct width-16 rows
    predicted_day = int(np.isin(candidate_words, day_prefixes).sum())
    predicted_week = int(np.isin(candidate_words, week_prefixes).sum())

    return PrefixPredictionResult(
        dataset=network.name,
        train_size=train_size,
        n_candidates=len(candidates),
        predicted_day=predicted_day,
        predicted_week=predicted_week,
    )


def training_size_sweep(
    network: SyntheticNetwork,
    train_sizes: Sequence[int] = (100, 1000, 10_000),
    n_candidates: int = 50_000,
    prefix_mode: bool = False,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Dict[int, float]:
    """Success rate vs training size (Table 5).

    Returns train_size → success rate.  Sizes larger than the available
    dataset are skipped.  ``workers`` forwards to the underlying
    experiments with the unified spelling (results are bit-identical
    for any worker count).
    """
    results: Dict[int, float] = {}
    for train_size in train_sizes:
        if prefix_mode:
            population = network.population(seed)
            available = len(population.prefixes64())
        else:
            available = len(network.population(seed))
        if train_size * 2 >= available:
            continue
        if prefix_mode:
            result = prefix_prediction_experiment(
                network,
                train_size=train_size,
                n_candidates=n_candidates,
                seed=seed,
                workers=workers,
            )
            results[train_size] = result.success_rate_week
        else:
            scan = scan_experiment(
                network,
                train_size=train_size,
                n_candidates=n_candidates,
                seed=seed,
                workers=workers,
            )
            results[train_size] = scan.success_rate
    return results
