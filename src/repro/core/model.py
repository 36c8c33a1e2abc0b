"""The BN address model (Section 4.4) over mined code vectors.

:class:`AddressModel` glues the encoder (Section 4.3) to the Bayesian
network substrate: it learns structure and parameters from a training
set's code matrix, answers conditional queries (the probability browser),
and generates candidate addresses (Section 5.5).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bayes.inference import VariableElimination
from repro.bayes.network import BayesianNetwork
from repro.bayes.sampling import (
    forward_sample,
    likelihood_weighted_sample,
    sample_packed,
)
from repro.bayes.structure import StructureConfig, learn_structure
from repro.core.encoding import AddressEncoder
# Defined in the consolidated hierarchy (repro.errors); re-exported
# here because this module is its historical home.
from repro.errors import SessionCapacityError
from repro.ipv6.backends import AddressSetBackend, BackendSpec, make_backend
from repro.ipv6.sets import AddressSet, BucketTable, unpack_rows

#: Evidence may name states by code string ("J1") or by index (0).
EvidenceLike = Mapping[str, Union[str, int]]

#: Any accepted form of the generation exclusion set.
ExcludeLike = Union[AddressSet, np.ndarray, Iterable[int]]


def exclude_packed_words(
    exclude: Optional[ExcludeLike], width: int
) -> np.ndarray:
    """Normalize any accepted ``exclude`` form into packed uint64 rows.

    Accepts an :class:`AddressSet` of matching width (zero conversion),
    a pre-packed ``(n, ceil(width/16))`` uint64 word matrix
    (:meth:`AddressSet.packed_rows` form — what the campaign maintains
    incrementally across rounds), or an iterable of ``width``-nybble
    integers; integer values outside ``[0, 16**width)`` can never be
    generated, so they are dropped.
    """
    words_per_row = (width + 15) // 16
    if isinstance(exclude, AddressSet):
        if exclude.width != width:
            raise ValueError(
                f"exclude width {exclude.width} != model width {width}"
            )
        return exclude.packed_rows()
    if isinstance(exclude, np.ndarray) and exclude.ndim == 2:
        # Pre-packed rows (packed_rows form), trusted as-is.
        if exclude.shape[1] != words_per_row or exclude.dtype != np.uint64:
            raise ValueError(
                f"packed exclude must be (n, {words_per_row}) uint64, "
                f"got {exclude.dtype} shape {exclude.shape}"
            )
        return exclude
    bound = 1 << (4 * width)
    return AddressSet.from_ints(
        [
            int(v)
            for v in (exclude if exclude is not None else ())
            if 0 <= v < bound
        ],
        width=width,
        already_truncated=True,
    ).packed_rows()


class GenerationSession:
    """Persistent cross-round exclusion/dedup state for §5.5 campaigns.

    The adaptive scanning loop is inherently *stateful*: probe, fold
    the hits back in, refit, probe again.  A session owns the one
    growing :class:`~repro.ipv6.sets.BucketTable` that serves as the
    combined exclusion + dedup index for the lifetime of that loop —
    seeded once with the initial exclusions (typically the training
    set), then fed each ``generate_set(..., state=session)`` call's
    returned rows and nothing else: each batch is cut exactly at the
    call's outstanding need, and rows past the cut are never inserted,
    so an oversampled batch's overshoot is never excluded (see
    :meth:`~repro.ipv6.sets.BucketTable.insert_packed`).  Per-call
    cost therefore depends only on the batches drawn in that call,
    never on the length of the campaign history; and because the
    session is independent of the model object, an adaptive refit
    simply reuses it — only the BN changed, not the probed universe.

    The output contract is unchanged: a sequence of session-backed
    calls is bit-identical to the legacy pattern of re-passing an
    ever-growing packed ``exclude`` matrix to each call, for any
    worker count.

    ``capacity`` is an **enforceable cap** on total distinct rows the
    session may hold (0 = uncapped).  It still pre-sizes the table —
    steady-state rounds almost never rehash — but it is no longer
    *only* a sizing hint (the pre-PR-7 semantics): seeding, observing,
    or generating past the cap raises :class:`SessionCapacityError`
    with no partial state mutation, so a serving layer can bound each
    client's memory and surface a clean typed error instead of
    unbounded growth.

    A session also owns the campaign's **worker pools**: parallel
    ``generate_set(..., state=session, workers=N)`` calls fetch a
    long-lived :class:`~repro.exec.pool.WorkerPool` from
    :meth:`get_pool` (one per worker count), so a multi-round campaign
    reuses one executor instead of re-spawning threads every round.
    :meth:`close` (or the session as a context manager) releases them;
    a closed session's table remains readable, and a later parallel
    call transparently recreates its pool.
    """

    __slots__ = ("_width", "_table", "_excluded", "_capacity", "_pools")

    def __init__(
        self,
        width: int,
        exclude: Optional[ExcludeLike] = None,
        capacity: int = 0,
        backend: BackendSpec = None,
    ):
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        excluded = exclude_packed_words(exclude, width)
        self._width = width
        self._capacity = int(capacity)
        # ``backend`` picks the exclusion-set storage layout (see
        # repro.ipv6.backends): None/"memory" is the flat BucketTable,
        # "sharded64" the per-prefix sharded bank for 100M+-row
        # campaigns.  All backends share exact insert/limit semantics,
        # so the choice never changes which rows a session emits.
        self._table = make_backend(
            backend,
            (width + 15) // 16,
            capacity=max(self._capacity, len(excluded)),
        )
        self._table.insert_packed(excluded)
        self._excluded = len(self._table)
        self._pools: Dict[int, "object"] = {}
        if self._capacity and self._excluded > self._capacity:
            raise SessionCapacityError(
                f"seed exclusions ({self._excluded} distinct rows) exceed "
                f"session capacity {self._capacity}"
            )

    @property
    def width(self) -> int:
        """Row width (nybbles) every call on this session must match."""
        return self._width

    @property
    def table(self) -> AddressSetBackend:
        """The underlying combined exclusion+dedup store (a
        :class:`~repro.ipv6.sets.BucketTable` by default; see
        :mod:`repro.ipv6.backends` for the alternatives)."""
        return self._table

    @property
    def excluded_rows(self) -> int:
        """Distinct rows folded in as exclusions (seed + ``observe``)."""
        return self._excluded

    @property
    def generated_rows(self) -> int:
        """Distinct rows generated (and therefore retired) so far."""
        return len(self._table) - self._excluded

    @property
    def capacity(self) -> int:
        """The enforceable cap on total distinct rows (0 = uncapped)."""
        return self._capacity

    @property
    def remaining_capacity(self) -> Optional[int]:
        """Rows the session may still admit, or ``None`` if uncapped."""
        if not self._capacity:
            return None
        return self._capacity - len(self._table)

    def __len__(self) -> int:
        """Total distinct rows the session will never emit again."""
        return len(self._table)

    def get_pool(self, workers: Optional[int]):
        """The session's long-lived :class:`~repro.exec.pool.WorkerPool`
        for a worker count, created on first use.

        Pool construction is cheap (the executor itself is lazy), but
        the executor a pool eventually spawns persists across the
        campaign's generate calls until :meth:`close` — that reuse is
        the point.
        """
        from repro.exec.pool import WorkerPool, resolve_workers

        key = resolve_workers(workers)
        pool = self._pools.get(key)
        if pool is None:
            pool = WorkerPool(key)
            self._pools[key] = pool
        return pool

    def close(self) -> None:
        """Release every worker pool's threads (idempotent).

        The exclusion table is untouched — a closed session can still
        be inspected, observed into, or even generated against (a later
        parallel call recreates its pool on demand).
        """
        pools, self._pools = self._pools, {}
        for pool in pools.values():
            pool.close()

    def __enter__(self) -> "GenerationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def snapshot(self) -> dict:
        """The session's complete generation state as plain data.

        The table's stored-rows matrix *is* the session (rehash and
        rollback already rebuild everything from it), so a snapshot is
        that matrix plus the exclusion split and the cap — no backend
        internals, no pool state (pools are lazily recreated).  Pair
        with :meth:`restore`; persist via
        :func:`repro.checkpoint.save_checkpoint`.
        """
        words = np.array(
            self._table.stored_words(), dtype=np.uint64, copy=True
        )
        return {
            "width": self._width,
            "capacity": self._capacity,
            "excluded_rows": self._excluded,
            "words": words,
            "digest": self._table.state_digest(),
        }

    @classmethod
    def restore(
        cls, snapshot: dict, backend: BackendSpec = None
    ) -> "GenerationSession":
        """Rebuild a session from a :meth:`snapshot`.

        Re-inserting the stored rows rebuilds a table with exactly the
        same membership set, exclusion split, and capacity headroom —
        everything generation behavior depends on — so a restored
        session continues exactly where the snapshot left off: with
        the caller resuming the same RNG stream, subsequent draws are
        bit-identical to an uninterrupted run.  The snapshot's
        order-independent state digest is re-verified after the
        rebuild; corruption fails with
        :class:`~repro.errors.CheckpointError` instead of silently
        serving rows the original session had already retired.
        """
        from repro.errors import CheckpointError

        session = cls(
            int(snapshot["width"]),
            capacity=int(snapshot["capacity"]),
            backend=backend,
        )
        words = np.ascontiguousarray(
            np.asarray(snapshot["words"], dtype=np.uint64)
        )
        if len(words):
            session._table.reserve(len(words))
            session._table.insert_packed(words)
        session._excluded = int(snapshot["excluded_rows"])
        expected = snapshot.get("digest")
        if expected is not None and session._table.state_digest() != expected:
            raise CheckpointError(
                "restored session state digest mismatch (wrong storage "
                "backend, or a corrupt snapshot)"
            )
        return session

    def observe(self, exclude: ExcludeLike) -> int:
        """Fold additional exclusions in mid-campaign; returns how many
        of them were actually new to the session.

        On a capacity-capped session an over-cap batch raises
        :class:`SessionCapacityError` and the insert is rolled back
        exactly — the fresh count is only knowable after deduplication,
        so the insert runs reversibly and commits only under the cap.
        """
        words = exclude_packed_words(exclude, self._width)
        if not self._capacity:
            fresh = int(np.count_nonzero(self._table.insert_packed(words)))
            self._excluded += fresh
            return fresh
        mask = self._table.insert_reversible(words)
        if len(self._table) > self._capacity:
            overflow = len(self._table) - self._capacity
            self._table.revert_insert()
            raise SessionCapacityError(
                f"observe batch would exceed session capacity "
                f"{self._capacity} by {overflow} rows"
            )
        self._table.commit_insert()
        fresh = int(np.count_nonzero(mask))
        self._excluded += fresh
        return fresh

    def __repr__(self) -> str:
        cap = f", capacity={self._capacity}" if self._capacity else ""
        return (
            f"GenerationSession(width={self._width}, "
            f"excluded={self._excluded}, generated={self.generated_rows}"
            f"{cap})"
        )


def generation_batch_size(
    need: int, marginal_yield: float, batch_cap: int
) -> int:
    """Oversampled batch size for one generation round.

    Shared by the serial loop and the sharded engine so both converge
    identically: draw enough that the observed marginal yield should
    cover ``need``, plus a 12.5% cushion, floored at 4096 and capped by
    ``batch_cap``.
    """
    return min(
        max(int(need / marginal_yield) + need // 8 + 64, 4096), batch_cap
    )


def run_generation_rounds(
    width: int,
    n: int,
    draw,
    exclude: Optional[ExcludeLike] = None,
    max_batches: int = 64,
    constrained: bool = False,
    state: Optional[GenerationSession] = None,
) -> AddressSet:
    """The §5.5 streaming generation loop, draw strategy abstracted.

    One implementation drives both the serial path
    (:meth:`AddressModel.generate_set`) and the sharded engine
    (:func:`repro.exec.sharded_generate_set`): per round, ask ``draw``
    for ``batch_size`` candidate rows — returned as a ``(matrix,
    packed_words)`` pair, where a fused draw may return ``matrix=None``
    and the loop reconstructs the nybble matrix for the *kept* rows
    only via :func:`~repro.ipv6.sets.unpack_rows` (the exact inverse of
    packing, so output is unchanged) — feed them into a growing
    :class:`~repro.ipv6.sets.BucketTable` that suppresses duplicates
    and ``exclude`` members (already-kept rows are never re-sorted),
    re-estimate the marginal yield to oversample the next round, and
    stop early when the model's effective support is exhausted.  Only
    the drawing differs between callers, so the oversampling policy and
    saturation behavior cannot drift between them.

    ``state`` runs the loop on a persistent :class:`GenerationSession`
    instead of a per-call table: the session's table *is* the dedup
    index, and the rows this call returns stay in it, so the next call
    (or the next campaign round) excludes them automatically without
    anyone re-feeding the probed history.  Batch inserts are bounded by
    the outstanding need: each batch is cut exactly; rows past the cut
    are never inserted, so an oversampled final round's overshoot is
    not retired — the session ends the call holding exactly its prior
    rows plus the rows returned, which keeps session-backed sequences
    bit-identical to the legacy grow-and-repass ``exclude`` pattern.

    ``constrained`` marks evidence-constrained draws, which materialize
    an oversample=4 likelihood-weighting pool per batch and therefore
    get a tighter batch cap to keep peak memory at ~4n transient rows.

    Deterministic for a deterministic ``draw``; first-occurrence order
    within the stream is preserved.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    words_per_row = (width + 15) // 16
    if state is not None:
        if exclude is not None:
            raise ValueError(
                "pass exclusions to the GenerationSession, not alongside it"
            )
        if state.width != width:
            raise ValueError(
                f"session width {state.width} != model width {width}"
            )
        remaining = state.remaining_capacity
        if remaining is not None and n > remaining:
            # Generation admits at most n fresh rows (inserts are
            # bounded by the outstanding need), so the cap check is an
            # exact precondition — raised before any draw or insert.
            raise SessionCapacityError(
                f"requested {n} rows but session has capacity for only "
                f"{max(remaining, 0)} more (cap {state.capacity})"
            )
        seen = state.table
    else:
        excluded = exclude_packed_words(exclude, width)
        # Pre-size for the expected final population (kept rows plus
        # exclusions) so the table almost never grows — and therefore
        # never rehashes — mid-campaign.
        seen = BucketTable(words_per_row, capacity=n + len(excluded))
        seen.insert_packed(excluded)
    chunks_matrix: List[np.ndarray] = []
    chunks_words: List[np.ndarray] = []
    kept = 0
    # Marginal yield of distinct non-excluded rows per drawn sample,
    # re-estimated each round and used to oversample the next batch,
    # so the loop converges in a couple of rounds instead of
    # geometrically many.
    marginal_yield = 1.0
    batch_cap = max(n if constrained else 4 * n, 8192)
    for round_index in range(max_batches):
        need = n - kept
        if need <= 0:
            break
        batch_size = generation_batch_size(need, marginal_yield, batch_cap)
        matrix, words = draw(batch_size)
        # Bounded insert: at most ``need`` fresh rows are admitted, so
        # the table never retains overshoot beyond the requested n.
        # The returned rows are identical to the unbounded
        # insert-then-truncate pattern (the limited mask keeps the
        # first ``need`` fresh rows in stream order — exactly the rows
        # truncation kept), and for a persistent session the exact cut
        # (rows past it are never inserted) is what keeps future calls
        # able to re-emit the overshoot.
        fresh = seen.insert_packed(words, limit=need)
        new_found = int(np.count_nonzero(fresh))
        if new_found:
            kept_chunk = words[fresh]
            if matrix is None:
                # Fused draw: the nybble matrix was never built for the
                # batch; materialize it for the kept rows alone.
                chunks_matrix.append(unpack_rows(kept_chunk, width))
            else:
                chunks_matrix.append(matrix[fresh])
            chunks_words.append(kept_chunk)
            kept += new_found
        marginal_yield = max(new_found / batch_size, 1.0 / batch_size)
        # Saturation guard: when the model's effective support is
        # (nearly) exhausted, rounds trickle in a handful of new rows
        # each.  Stop once the remaining rounds cannot plausibly close
        # the gap at the observed marginal yield, returning the partial
        # result instead of burning max-size batches.
        rounds_left = max_batches - round_index - 1
        reachable = marginal_yield * batch_cap * rounds_left
        if new_found == 0 or reachable < n - kept:
            break
    if not chunks_matrix:
        return AddressSet.empty(width)
    kept_matrix = (
        chunks_matrix[0]
        if len(chunks_matrix) == 1
        else np.vstack(chunks_matrix)
    )
    kept_words = (
        chunks_words[0] if len(chunks_words) == 1 else np.vstack(chunks_words)
    )
    # Hand the packed words over with the rows: campaign-style callers
    # fold them straight into their running exclude matrix.
    return AddressSet._with_packed(kept_matrix[:n], kept_words[:n])


class AddressModel:
    """A fitted Entropy/IP statistical model of one address set."""

    def __init__(self, encoder: AddressEncoder, network: BayesianNetwork):
        if list(network.variables) != encoder.variable_names:
            raise ValueError("network variables do not match encoder segments")
        self.encoder = encoder
        self.network = network
        self._inference = VariableElimination(network)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        address_set: AddressSet,
        encoder: AddressEncoder,
        config: StructureConfig = StructureConfig(),
    ) -> "AddressModel":
        """Learn BN structure + parameters from a training set."""
        codes = encoder.encode_set(address_set)
        network = learn_structure(
            codes,
            encoder.variable_names,
            encoder.cardinalities,
            config,
        )
        return cls(encoder, network)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def normalize_evidence(self, evidence: Optional[EvidenceLike]) -> Dict[str, int]:
        """Resolve code strings / indices into state indices."""
        resolved: Dict[str, int] = {}
        for label, state in (evidence or {}).items():
            mined = self._mined_by_label(label)
            if isinstance(state, str):
                try:
                    resolved[label] = mined.codes().index(state)
                except ValueError:
                    raise KeyError(
                        f"unknown code {state!r} for segment {label}"
                    ) from None
            else:
                if not 0 <= int(state) < mined.cardinality:
                    raise IndexError(
                        f"state {state} out of range for segment {label}"
                    )
                resolved[label] = int(state)
        return resolved

    def marginals(
        self, evidence: Optional[EvidenceLike] = None
    ) -> Dict[str, np.ndarray]:
        """Posterior distribution of every non-evidence segment.

        This is the quantity behind the conditional probability browser:
        evidence on any segment reshapes all the others, in both
        directions (evidential reasoning, Fig. 1b→1c).
        """
        return self._inference.all_marginals(self.normalize_evidence(evidence))

    def joint(
        self, labels: Sequence[str], evidence: Optional[EvidenceLike] = None
    ):
        """Joint posterior factor over several segments."""
        return self._inference.query(labels, self.normalize_evidence(evidence))

    def evidence_probability(self, evidence: EvidenceLike) -> float:
        """P(evidence) under the model (e.g. the 60% of Fig. 1b)."""
        return self._inference.evidence_probability(
            self.normalize_evidence(evidence)
        )

    def conditional_probability_table(
        self,
        target: str,
        target_state: Union[str, int],
        given: Sequence[str],
    ) -> Dict[Tuple[int, ...], float]:
        """P(target = state | each joint configuration of ``given``).

        Reproduces Table 2: probability of segment J's value conditional
        on the values of segments H and C.
        """
        target_index = self.normalize_evidence({target: target_state})[target]
        factor = self._inference.query([target] + list(given))
        table: Dict[Tuple[int, ...], float] = {}
        given_cards = [self.network.cardinality(g) for g in given]
        for flat in range(int(np.prod(given_cards)) if given_cards else 1):
            states = []
            remainder = flat
            for card in reversed(given_cards):
                states.append(remainder % card)
                remainder //= card
            states.reverse()
            assignment = {g: s for g, s in zip(given, states)}
            assignment[target] = target_index
            joint_value = factor.value(assignment)
            reduced = factor
            for g, s in zip(given, states):
                reduced = reduced.reduce(g, s)
            denominator = reduced.table.sum()
            table[tuple(states)] = (
                joint_value / denominator if denominator > 0 else 0.0
            )
        return table

    def log_likelihood(self, address_set: AddressSet) -> float:
        """Model log-likelihood of a (held-out) address set's codes."""
        return self.network.log_likelihood(self.encoder.encode_set(address_set))

    # ------------------------------------------------------------------
    # generation (Section 5.5)
    # ------------------------------------------------------------------

    def sample_codes(
        self,
        n: int,
        rng: np.random.Generator,
        evidence: Optional[EvidenceLike] = None,
    ) -> np.ndarray:
        """Draw code vectors from the model."""
        resolved = self.normalize_evidence(evidence)
        if resolved:
            return likelihood_weighted_sample(self.network, n, rng, resolved)
        return forward_sample(self.network, n, rng)

    def session(
        self,
        exclude: Optional[ExcludeLike] = None,
        capacity: int = 0,
        backend: BackendSpec = None,
    ) -> GenerationSession:
        """Open a persistent :class:`GenerationSession` for this model's
        width, seeded with ``exclude``.

        The session is the steady-state campaign primitive: pass it as
        ``generate_set(..., state=session)`` and every returned row is
        retired from all future calls — across rounds *and across
        adaptive refits* (a refitted model of the same width reuses the
        session unchanged).  ``capacity`` is an enforceable cap on the
        session's total distinct rows (0 = uncapped) — exceeding it
        raises :class:`SessionCapacityError`; it also pre-sizes the
        table (e.g. to the campaign's probe budget) so steady-state
        rounds almost never rehash.  ``backend`` picks the
        exclusion-store layout
        (``"memory"``/``"sharded64"``, see :mod:`repro.ipv6.backends`);
        emitted rows are identical for every backend.
        """
        return GenerationSession(
            self.encoder.width,
            exclude=exclude,
            capacity=capacity,
            backend=backend,
        )

    def generate_set(
        self,
        n: int,
        rng: np.random.Generator,
        evidence: Optional[EvidenceLike] = None,
        exclude: Optional[ExcludeLike] = None,
        max_batches: int = 64,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        state: Optional[GenerationSession] = None,
        fused: Optional[bool] = None,
    ) -> AddressSet:
        """Generate ``n`` distinct candidate rows as an :class:`AddressSet`.

        The batched streaming hot path of §5.5: each round draws a
        batch from the BN and suppresses duplicates and ``exclude``
        members (typically the training set — the paper scans for
        addresses "not yet seen") by feeding each batch into a growing
        :class:`~repro.ipv6.sets.BucketTable`: already-kept rows are
        never re-sorted, so a saturated multi-round run pays for each
        drawn row once.  No stage round-trips through per-row Python.

        ``fused`` controls how a batch is drawn.  By default
        (``None``), unconstrained draws whose encoder has a fused plan
        (:meth:`AddressEncoder.fused_plan`) run
        :func:`~repro.bayes.sampling.sample_packed`, which lands BN
        states directly in packed uint64 words — skipping the
        ``(vars, n)`` codes matrix, the nybble matrix, and the whole
        :meth:`~repro.core.encoding.AddressEncoder.decode_to_set` pass.
        The fused draw consumes the RNG stream in exactly the two-step
        order, so output is bit-identical.  ``fused=False`` forces the
        retained two-step :meth:`sample_codes` →
        :meth:`decode_to_set <repro.core.encoding.AddressEncoder.decode_to_set>`
        reference; ``fused=True`` insists on fusion where possible
        (evidence-constrained draws and planless encoders still fall
        back to the reference — fusion is an implementation detail,
        never a behavior change).

        ``exclude`` is ideally an :class:`AddressSet` of matching width,
        which feeds the dedup directly with zero conversion, or a
        pre-packed ``(n, ceil(width/16))`` uint64 word matrix
        (:meth:`AddressSet.packed_rows` form); an iterable of
        ``width``-nybble integers is also accepted for compatibility.

        ``state`` replaces ``exclude`` with a persistent
        :class:`GenerationSession` (see :meth:`session`): the session
        already holds everything excluded or previously generated, and
        this call's returned rows are folded into it — the multi-round
        campaign pattern, with per-call cost independent of how much
        history the session carries.

        ``workers``/``shards`` switch to the sharded parallel engine
        (:func:`repro.exec.sharded_generate_set`): each batch is split
        into ``shards`` fixed sub-draws with independent
        ``SeedSequence``-spawned RNG streams executed across ``workers``
        threads.  The output depends only on ``(rng, shards)`` — any
        worker count produces bit-identical rows.

        Deterministic for a fixed ``rng``; first-occurrence order within
        the stream is preserved.  Gives up after ``max_batches`` rounds
        if the model's support is too small to produce ``n`` distinct
        rows, returning what it has.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if workers is not None or shards is not None:
            from repro.exec import sharded_generate_set

            return sharded_generate_set(
                self,
                n,
                rng,
                evidence=evidence,
                exclude=exclude,
                max_batches=max_batches,
                workers=workers if workers is not None else 1,
                shards=shards,
                state=state,
                fused=fused,
            )

        plan = (
            self.encoder.fused_plan()
            if fused is not False and not evidence
            else None
        )

        def draw(batch_size: int) -> "tuple[np.ndarray, np.ndarray]":
            if plan is not None:
                return None, sample_packed(self.network, plan, batch_size, rng)
            codes = self.sample_codes(batch_size, rng, evidence)
            batch = self.encoder.decode_to_set(codes, rng, validate=False)
            return batch.matrix, batch.packed_rows()

        return run_generation_rounds(
            self.encoder.width,
            n,
            draw,
            exclude=exclude,
            max_batches=max_batches,
            constrained=bool(evidence),
            state=state,
        )

    def generate(
        self,
        n: int,
        rng: np.random.Generator,
        evidence: Optional[EvidenceLike] = None,
        exclude: Optional[ExcludeLike] = None,
        max_batches: int = 64,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        state: Optional[GenerationSession] = None,
        fused: Optional[bool] = None,
    ) -> List[int]:
        """Generate ``n`` distinct candidate values (``width``-nybble ints).

        Compatibility wrapper over :meth:`generate_set`; bulk callers
        should prefer the set form, which never materializes Python
        integers.
        """
        return self.generate_set(
            n,
            rng,
            evidence=evidence,
            exclude=exclude,
            max_batches=max_batches,
            workers=workers,
            shards=shards,
            state=state,
            fused=fused,
        ).to_ints()

    # ------------------------------------------------------------------

    def _mined_by_label(self, label: str):
        for mined in self.encoder.mined_segments:
            if mined.segment.label == label:
                return mined
        raise KeyError(f"no segment labeled {label!r}")

    def __repr__(self) -> str:
        return (
            f"AddressModel(segments={len(self.encoder.mined_segments)}, "
            f"edges={len(self.network.edges())})"
        )
