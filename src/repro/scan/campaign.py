"""Budgeted scanning campaigns: the operational side of §5.5.

The paper's evaluation scores a fixed 1M-candidate batch.  A real
survey (zmap-style, [8]) runs under a *probe budget* and wants hits as
early as possible.  :class:`ScanCampaign` drives a fitted Entropy/IP
model against a responder in rounds, records the progressive discovery
curve, and optionally *adapts*: addresses confirmed in earlier rounds
are folded back into the training set and the model is refitted — the
bootstrap loop the paper sketches ("use them to bootstrap active
address discovery").

The loop is a steady-state engine: one persistent
:class:`~repro.core.model.GenerationSession` owns the probed universe
(training counts as probed) for the whole campaign, so each round's
generation excludes everything ever probed without anyone re-feeding —
or re-indexing — the history; the session survives adaptive refits
unchanged (only the BN is relearned, not the probed universe).
Campaign accounting is incremental too: the "new /64s" counter folds
each round's hit prefixes into a running sorted-unique uint64 array
(:func:`~repro.ipv6.sets.merge_sorted_unique`) instead of recomputing
``prefixes64()`` + ``setdiff1d`` over the full discovered set, and hit
rows accumulate as per-round chunks concatenated once at the end.  Per
round cost is therefore ~flat in the campaign's age.  The pre-session
re-seeding loop is retained verbatim as
:meth:`ScanCampaign._run_reseed_reference`:
``tests/scan/test_campaign.py::TestIncrementalAccounting`` pins their
outcomes equal round for round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Set

import numpy as np

from repro.core.pipeline import EntropyIP
from repro.exec.pool import resolve_workers
from repro.ipv6.sets import AddressSet, in_sorted, merge_sorted_unique
from repro.scan.responder import SimulatedResponder
from repro.serve.lifecycle import SessionSpec


@dataclass(frozen=True)
class CampaignRound:
    """Bookkeeping for one probing round."""

    index: int
    probes_sent: int
    hits: int
    cumulative_probes: int
    cumulative_hits: int
    new_prefixes64: int
    #: Wall-clock seconds this round took (generation + scoring +
    #: accounting) — what the steady-state benchmark gates on.
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Hits per probe within this round."""
        return self.hits / self.probes_sent if self.probes_sent else 0.0


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a whole campaign."""

    rounds: Sequence[CampaignRound]
    discovered: Sequence[int]
    discovered_prefixes64: Set[int]

    @property
    def total_probes(self) -> int:
        return self.rounds[-1].cumulative_probes if self.rounds else 0

    @property
    def total_hits(self) -> int:
        return self.rounds[-1].cumulative_hits if self.rounds else 0

    def discovery_curve(self) -> List[int]:
        """Cumulative hits after each round (the survey's yield curve)."""
        return [r.cumulative_hits for r in self.rounds]


class ScanCampaign:
    """Round-based prober over a fitted model and a responder oracle."""

    def __init__(
        self,
        training: AddressSet,
        responder: SimulatedResponder,
        probe_budget: int = 50_000,
        round_size: int = 10_000,
        adaptive: bool = False,
        seed: int = 0,
        workers: "int | None" = None,
    ):
        if probe_budget < 1 or round_size < 1:
            raise ValueError("budget and round size must be positive")
        resolve_workers(workers)  # workers=0 fails here, before any fit
        self._training = training
        self._responder = responder
        self._budget = probe_budget
        self._round_size = round_size
        self._adaptive = adaptive
        self._rng = np.random.default_rng(seed)
        # workers=N routes generation and scoring through the sharded
        # engine (repro.exec); campaign outcomes are bit-identical for
        # any N because the shard decomposition is worker-independent.
        # Only batches whose shards reach the engine's
        # MIN_ROWS_PER_SHARD rows run on threads: 10k-probe rounds draw
        # batches of at most 40k rows and score 10k, so they run inline
        # at any N.
        self._workers = workers

    def run(self) -> CampaignResult:
        """Probe until the budget is exhausted; return the full record.

        Steady-state: one :class:`~repro.core.model.GenerationSession`
        is seeded with the training set and reused by every round (and
        every adaptive refit), so no round re-reads the probed history;
        hit-row and /64-prefix accounting are likewise incremental.
        Outcomes are bit-identical to the retained re-seeding reference
        (:meth:`_run_reseed_reference`) for any seed and worker count.
        """
        train = self._training
        analysis = EntropyIP.fit(train, width=train.width)
        # The probed universe for the whole campaign (training counts
        # as probed): each round's generated rows stay in the session,
        # so the next round can never probe them again.  Opened through
        # the canonical SessionSpec recipe (shared with the serving
        # runtime), capped at the probe budget — the cap both pre-sizes
        # the table (steady-state rounds almost never rehash) and
        # enforces that the campaign can never outgrow its budget.
        session = SessionSpec(
            exclude=train,
            capacity=len(train) + self._budget,
            workers=self._workers,
        ).open(analysis.model)
        train_64s = train.prefixes64()
        hit_chunks: List[np.ndarray] = []
        hit_count = 0
        # Sorted-unique /64 prefixes discovered outside training, grown
        # by a searchsorted merge of each round's (distinct) hit
        # prefixes — never recomputed over the full discovered set.
        new_64s = np.empty(0, dtype=np.uint64)

        rounds: List[CampaignRound] = []
        spent = 0
        index = 0
        try:
            while spent < self._budget:
                round_started = time.perf_counter()
                want = min(self._round_size, self._budget - spent)
                candidates = analysis.model.generate_set(
                    want,
                    self._rng,
                    state=session,
                    workers=self._workers,
                )
                if len(candidates) == 0:
                    break  # model support exhausted
                # oracle_masks runs inline when workers is None and
                # matches ping_mask bit for bit, so one call site serves
                # any worker count.
                _, hit_mask, _ = self._responder.oracle_masks(
                    candidates, workers=self._workers
                )
                hits = candidates.take(np.flatnonzero(hit_mask))
                spent += len(candidates)
                hit_count += len(hits)
                if len(hits):
                    hit_chunks.append(hits.matrix)
                    hits_64 = hits.prefixes64()
                    fresh_64 = hits_64[
                        ~in_sorted(new_64s, hits_64)
                        & ~in_sorted(train_64s, hits_64)
                    ]
                    new_64s = merge_sorted_unique(new_64s, fresh_64)
                index += 1
                rounds.append(
                    CampaignRound(
                        index=index,
                        probes_sent=len(candidates),
                        hits=len(hits),
                        cumulative_probes=spent,
                        cumulative_hits=hit_count,
                        new_prefixes64=len(new_64s),
                        seconds=time.perf_counter() - round_started,
                    )
                )
                short_round = len(candidates) < want
                if short_round and not (self._adaptive and len(hits)):
                    # The model could not fill the round even after its
                    # own oversampling retries: its support is
                    # exhausted.  The partial round is already charged
                    # to ``spent`` and recorded above; asking again
                    # would re-run the same saturated generation loop
                    # for zero (or a trickle of) new candidates per
                    # round, so terminate.  An *adaptive* round with
                    # hits continues instead — folding the hits back in
                    # refits the model and can expand its support.
                    break
                if self._adaptive and len(hits):
                    # Fold confirmed addresses back in and refit — the
                    # bootstrap loop.  The session survives the refit
                    # untouched: only the BN changed, not the probed
                    # universe, and the hits it would re-exclude are
                    # already in the table as generated rows.
                    train = train.concat(hits)
                    analysis = EntropyIP.fit(train, width=train.width)
        finally:
            # Release the session's long-lived worker pools — a
            # campaign must not leave executor threads alive.
            session.close()
        if hit_chunks:
            discovered = AddressSet(np.vstack(hit_chunks))
        else:
            discovered = AddressSet.empty(train.width)
        return CampaignResult(
            rounds=tuple(rounds),
            discovered=tuple(discovered.to_ints()),
            discovered_prefixes64=set(map(int, new_64s)),
        )

    def _run_reseed_reference(self) -> CampaignResult:
        """The retained pre-session campaign loop.

        Re-pays the history every round: the probed set grows by
        ``np.vstack`` and is re-fed (and re-indexed) through
        ``generate_set``'s per-call exclusion, and the "new /64s"
        accounting recomputes ``prefixes64()`` + ``setdiff1d`` over the
        full discovered set.  Kept as the regression oracle: :meth:`run`
        must match it round for round
        (``tests/scan/test_campaign.py::TestIncrementalAccounting``).
        """
        train = self._training
        analysis = EntropyIP.fit(train, width=train.width)
        probed_words = train.packed_rows()
        train_64s = train.prefixes64()
        discovered = AddressSet.empty(train.width)
        new_64s = np.empty(0, dtype=np.uint64)

        rounds: List[CampaignRound] = []
        spent = 0
        index = 0
        while spent < self._budget:
            round_started = time.perf_counter()
            want = min(self._round_size, self._budget - spent)
            candidates = analysis.model.generate_set(
                want,
                self._rng,
                exclude=probed_words,
                workers=self._workers,
            )
            if len(candidates) == 0:
                break  # model support exhausted
            probed_words = np.vstack([probed_words, candidates.packed_rows()])
            _, hit_mask, _ = self._responder.oracle_masks(
                candidates, workers=self._workers
            )
            hits = candidates.take(np.flatnonzero(hit_mask))
            spent += len(candidates)
            discovered = discovered.concat(hits)
            new_64s = np.setdiff1d(
                discovered.prefixes64(), train_64s, assume_unique=True
            )
            index += 1
            rounds.append(
                CampaignRound(
                    index=index,
                    probes_sent=len(candidates),
                    hits=len(hits),
                    cumulative_probes=spent,
                    cumulative_hits=len(discovered),
                    new_prefixes64=len(new_64s),
                    seconds=time.perf_counter() - round_started,
                )
            )
            short_round = len(candidates) < want
            if short_round and not (self._adaptive and len(hits)):
                break
            if self._adaptive and len(hits):
                train = train.concat(hits)
                analysis = EntropyIP.fit(train, width=train.width)
        return CampaignResult(
            rounds=tuple(rounds),
            discovered=tuple(discovered.to_ints()),
            discovered_prefixes64=set(map(int, new_64s)),
        )


def run_campaign(
    training: AddressSet,
    responder: SimulatedResponder,
    probe_budget: int = 50_000,
    round_size: int = 10_000,
    adaptive: bool = False,
    seed: int = 0,
    workers: "int | None" = None,
) -> CampaignResult:
    """Functional one-shot interface to :class:`ScanCampaign`."""
    return ScanCampaign(
        training,
        responder,
        probe_budget=probe_budget,
        round_size=round_size,
        adaptive=adaptive,
        seed=seed,
        workers=workers,
    ).run()
