"""Pluggable storage backends for exclusion/dedup address sets.

PR 1–5 grew :class:`~repro.ipv6.sets.BucketTable` into the persistent
exclusion+dedup index behind generation sessions and campaigns.  That
table is a single open-addressing array: excellent to ~10M rows, but a
100M+-row campaign (the north-star's billion-probe regime) pays two
costs a monolith cannot dodge — every growth rehashes *all* stored rows
in one stall, and the int32 slot array tops out at ~1B slots (~500M
rows at load 1/2).

This module puts the table behind a small protocol
(:class:`AddressSetBackend`) so callers choose a layout:

``memory``
    The existing :class:`BucketTable` — one flat table, lowest constant
    factors.  The default, and the reference implementation.

``sharded64``
    :class:`ShardedBucketTable` — per-/64-prefix sub-tables routed by
    the top bits of the SplitMix64 fold of each row's *first packed
    word* (word 0 is the /64 network prefix for full-width rows, so
    shard locality follows prefix locality).  Each shard grows and
    rehashes independently: a growth stall is bounded by the largest
    shard (~1/shards of the rows), and capacity scales to
    ``shards ×`` the monolith's ceiling.

Both backends share exact semantics: batched first-occurrence insert,
word-verified lookup (exact across fold collisions), stream-position
ids, and an exact ``insert_packed(limit=...)`` (the flat table cuts a
batch before inserting past the limit; the sharded one rolls back
per shard).
The test suite pins the sharded backend row-for-row against the
in-memory one and against a Python-set oracle.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Protocol, Tuple, Union

import numpy as np

from repro.ipv6.sets import BucketTable, _mix64


class AddressSetBackend(Protocol):
    """What a generation session needs from an exclusion-set store.

    Any object with these methods/attributes can back a
    :class:`~repro.core.model.GenerationSession`:
    :class:`~repro.ipv6.sets.BucketTable` is the flat in-memory
    implementation, :class:`ShardedBucketTable` the sharded one.
    """

    @property
    def word_count(self) -> int:
        """Packed words per row (the row-shape contract)."""
        ...

    @property
    def rows_stored(self) -> int:
        """Distinct rows stored."""
        ...

    @property
    def rows_offered(self) -> int:
        """Rows ever offered, duplicates included."""
        ...

    @property
    def slot_count(self) -> int:
        """Total allocated probe slots (across shards, if any)."""
        ...

    def __len__(self) -> int: ...

    def insert(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched first-occurrence insert; returns the fresh mask."""
        ...

    def insert_packed(
        self,
        words: np.ndarray,
        ids: Optional[np.ndarray] = None,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """:meth:`insert` with an exact cap on admitted fresh rows."""
        ...

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Per-row external id, or -1 when absent."""
        ...

    def contains(self, words: np.ndarray) -> np.ndarray:
        """Boolean membership mask."""
        ...

    def stored_words(self) -> np.ndarray:
        """Stored-rows accessor: an ``(rows_stored, word_count)``
        packed matrix (ordering is backend-defined)."""
        ...

    def state_digest(self) -> str:
        """sha256 over :meth:`stored_words` — a checkpoint round-trip
        equality witness."""
        ...

    def reserve(self, capacity: int) -> None:
        """Grow hook: pre-size for ``capacity`` stored rows."""
        ...

    def insert_reversible(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`insert` with exact single-step rollback: the caller
        must follow up with :meth:`commit_insert` or
        :meth:`revert_insert`.  What the capacity-capped
        :meth:`GenerationSession.observe
        <repro.core.model.GenerationSession.observe>` uses to reject an
        over-cap batch without partially mutating the store."""
        ...

    def revert_insert(self) -> None:
        """Undo the pending :meth:`insert_reversible` exactly."""
        ...

    def commit_insert(self) -> None:
        """Finalize the pending :meth:`insert_reversible`."""
        ...

    def mark(self) -> object:
        """The store's current state, for :meth:`rollback_to`."""
        ...

    def rollback_to(self, mark: object) -> None:
        """Put the store back to its state at :meth:`mark`, across any
        number of inserts since: what a
        :func:`~repro.core.model.run_generation_rounds` call that raises
        uses to keep none of its rows."""
        ...


class ShardedBucketTable:
    """A bank of :class:`BucketTable` shards routed by /64-prefix hash.

    Rows are routed by the **top** ``log2(shards)`` bits of
    ``_mix64(words[:, 0])``.  Two properties make this exact and fast:

    - Equal rows have equal word 0, so duplicates always meet in the
      same shard — per-shard first-occurrence dedup composes to the
      global first-occurrence semantics (the stable partition keeps
      batch order within each shard, and rows in *different* shards
      are necessarily distinct).
    - Each shard masks the *low* bits of the full row fold for its
      slot index, while the router consumed the *top* bits of the
      word-0 mix — independent bit ranges (and, for multi-word rows,
      independent mixes), so routing never starves a shard's slot
      distribution.

    Word 0 is the /64 network prefix for full-width (32-nybble) rows,
    so the shard decomposition follows prefix structure: a campaign's
    per-prefix densification lands in the same shard and its rehash
    cost stays bounded by that shard alone.

    ``insert_packed(limit=...)`` is cross-shard exact: every touched
    shard inserts its slice reversibly
    (:meth:`BucketTable.insert_reversible`), and only when the *global*
    fresh count overshoots the limit are the touched shards reverted
    and re-fed the first ``limit`` fresh rows in global batch order —
    identical admitted rows, ids, and counters to the flat table.
    """

    __slots__ = (
        "_word_count",
        "_shards",
        "_shard_bits",
        "_offered",
        "_revert",
    )

    def __init__(self, word_count: int, capacity: int = 0, shards: int = 64):
        if word_count < 1:
            raise ValueError(f"word_count must be positive, got {word_count}")
        if shards < 1 or shards & (shards - 1):
            raise ValueError(f"shards must be a power of two, got {shards}")
        if shards > 1 << 16:
            raise ValueError(f"shards out of range: {shards}")
        self._word_count = word_count
        self._shard_bits = shards.bit_length() - 1
        per_shard = -(-capacity // shards) if capacity else 0
        self._shards: List[BucketTable] = [
            BucketTable(word_count, capacity=per_shard) for _ in range(shards)
        ]
        self._offered = 0
        # (offered mark, touched shard indices) of the outstanding
        # reversible batch; None when there is none.
        self._revert: Optional[Tuple[int, List[int]]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    @property
    def word_count(self) -> int:
        return self._word_count

    @property
    def shard_count(self) -> int:
        """Number of sub-tables."""
        return len(self._shards)

    @property
    def rows_stored(self) -> int:
        return len(self)

    @property
    def rows_offered(self) -> int:
        return self._offered

    @property
    def slot_count(self) -> int:
        """Total probe slots across all shards."""
        return sum(shard.slot_count for shard in self._shards)

    @property
    def max_shard_rows(self) -> int:
        """Rows in the fullest shard — what bounds any single rehash."""
        return max(len(shard) for shard in self._shards)

    def stored_words(self) -> np.ndarray:
        """All stored rows, grouped by shard (insertion order within
        each shard).  A copy — shards keep their own columns."""
        return np.vstack([shard.stored_words() for shard in self._shards])

    def state_digest(self) -> str:
        """Order-independent sha256 over the stored row set, in the
        same canonical (lexicographic) order as
        :meth:`BucketTable.state_digest` — so the digest is stable
        across a checkpoint round-trip and even across storage
        backends holding the same rows."""
        import hashlib

        words = self.stored_words()
        if len(words):
            words = words[np.lexsort(words.T[::-1])]
        return hashlib.sha256(
            np.ascontiguousarray(words).tobytes()
        ).hexdigest()

    def reserve(self, capacity: int) -> None:
        """Pre-size every shard for its expected share of ``capacity``
        rows.  Routing is near-uniform, so a shard that overshoots its
        share simply performs one bounded local rehash later."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        per_shard = -(-capacity // len(self._shards))
        for shard in self._shards:
            shard.reserve(per_shard)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def shard_index(self, words: np.ndarray) -> np.ndarray:
        """Shard of each packed row: top ``shard_bits`` bits of the
        SplitMix64 mix of word 0.  Public so tests can construct
        same-shard and cross-shard collision batches."""
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if self._shard_bits == 0:
            return np.zeros(len(words), dtype=np.int64)
        shift = np.uint64(64 - self._shard_bits)
        return (_mix64(words[:, 0]) >> shift).astype(np.int64)

    def _partition(
        self, words: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(shard, row_positions)`` runs; positions ascend
        within each run (stable sort), preserving batch order."""
        shard_of = self.shard_index(words)
        order = np.argsort(shard_of, kind="stable")
        sorted_shards = shard_of[order]
        cuts = np.flatnonzero(sorted_shards[1:] != sorted_shards[:-1]) + 1
        starts = np.concatenate([[0], cuts])
        stops = np.concatenate([cuts, [len(order)]])
        for a, b in zip(starts, stops):
            yield int(sorted_shards[a]), order[a:b]

    def _check(self, words: np.ndarray) -> np.ndarray:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != self._word_count:
            raise ValueError(
                f"expected (m, {self._word_count}) packed rows, "
                f"got shape {words.shape}"
            )
        return words

    def _stream_ids(
        self, m: int, ids: Optional[np.ndarray]
    ) -> np.ndarray:
        """Explicit per-row external ids (shards never self-assign:
        their internal offered counters are not the global stream)."""
        if ids is None:
            return np.arange(self._offered, self._offered + m, dtype=np.int64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.shape != (m,):
            raise ValueError("ids must be one per inserted row")
        return ids

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Batched first-occurrence insert across shards.

        Same contract as :meth:`BucketTable.insert`: returns the fresh
        mask in batch order; default ids are global stream positions.
        """
        words = self._check(words)
        m = len(words)
        ids = self._stream_ids(m, ids)
        self._offered += m
        self._revert = None
        fresh = np.zeros(m, dtype=bool)
        if m == 0:
            return fresh
        for shard, rows in self._partition(words):
            fresh[rows] = self._shards[shard].insert(words[rows], ids[rows])
        return fresh

    def insert_reversible(
        self, words: np.ndarray, ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`insert` whose whole batch can be undone exactly
        (per touched shard) with :meth:`revert_insert`."""
        words = self._check(words)
        m = len(words)
        ids = self._stream_ids(m, ids)
        offered_mark = self._offered
        self._offered += m
        fresh = np.zeros(m, dtype=bool)
        touched: List[int] = []
        for shard, rows in self._partition(words):
            fresh[rows] = self._shards[shard].insert_reversible(
                words[rows], ids[rows]
            )
            touched.append(shard)
        self._revert = (offered_mark, touched)
        return fresh

    def revert_insert(self) -> None:
        """Undo the outstanding reversible batch in every touched
        shard; restores the global offered counter."""
        if self._revert is None:
            raise RuntimeError("no reversible insert batch outstanding")
        offered_mark, touched = self._revert
        self._revert = None
        for shard in touched:
            self._shards[shard].revert_insert()
        self._offered = offered_mark

    def commit_insert(self) -> None:
        """Keep the outstanding reversible batch; drop all undo state
        so the shards' won-slot arrays are not pinned."""
        if self._revert is None:
            return
        _, touched = self._revert
        self._revert = None
        for shard in touched:
            self._shards[shard].commit_insert()

    def mark(self) -> Tuple[int, List[Tuple[int, int]]]:
        """The global offered counter and every shard's
        :meth:`BucketTable.mark`, for :meth:`rollback_to`."""
        return self._offered, [shard.mark() for shard in self._shards]

    def rollback_to(self, mark: Tuple[int, List[Tuple[int, int]]]) -> None:
        """Put every shard that changed since :meth:`mark` back to its
        own mark (:meth:`BucketTable.rollback_to`), and the global
        offered counter with them."""
        offered, shard_marks = mark
        for shard, shard_mark in zip(self._shards, shard_marks):
            if shard.mark() != shard_mark:
                shard.rollback_to(shard_mark)
        self._offered = offered
        self._revert = None

    def insert_packed(
        self,
        words: np.ndarray,
        ids: Optional[np.ndarray] = None,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Cross-shard :meth:`BucketTable.insert_packed`.

        Identical semantics to the flat table: with a limit, at most
        the first ``limit`` fresh rows *in global batch order* are
        admitted (with their true stream ids), the rest are rolled
        back exactly in whichever shards they landed, and
        ``rows_offered`` counts the full batch.
        """
        if limit is None:
            return self.insert(words, ids)
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        words = self._check(words)
        offered_mark = self._offered
        fresh = self.insert_reversible(words, ids)
        if int(np.count_nonzero(fresh)) <= limit:
            self.commit_insert()
            return fresh
        self.revert_insert()
        positions = np.flatnonzero(fresh)[:limit]
        if ids is None:
            admit_ids = offered_mark + positions
        else:
            admit_ids = np.ascontiguousarray(ids, dtype=np.int64)[positions]
        limited = np.zeros(len(fresh), dtype=bool)
        if positions.size:
            # Re-admitting only previously-fresh rows: all land fresh.
            self.insert(words[positions], ids=admit_ids)
            limited[positions] = True
        self._offered = offered_mark + len(words)
        return limited

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Per-row external id, or -1 when absent (word-verified)."""
        words = self._check(words)
        out = np.full(len(words), -1, dtype=np.int64)
        if len(words) == 0 or len(self) == 0:
            return out
        for shard, rows in self._partition(words):
            out[rows] = self._shards[shard].lookup(words[rows])
        return out

    def contains(self, words: np.ndarray) -> np.ndarray:
        """Boolean membership mask."""
        return self.lookup(words) >= 0


#: Registry of named backend constructors.
_BACKENDS = {
    "memory": lambda word_count, capacity: BucketTable(
        word_count, capacity=capacity
    ),
    "sharded64": lambda word_count, capacity: ShardedBucketTable(
        word_count, capacity=capacity
    ),
}

BackendSpec = Union[
    str, AddressSetBackend, Callable[[int, int], AddressSetBackend], None
]


def make_backend(
    spec: BackendSpec, word_count: int, capacity: int = 0
) -> AddressSetBackend:
    """Resolve a backend choice into a live store.

    ``spec`` may be ``None``/``"memory"`` (flat :class:`BucketTable`),
    ``"sharded64"`` (:class:`ShardedBucketTable`), an already-built
    backend instance (validated for ``word_count`` agreement), or a
    callable ``(word_count, capacity) -> backend``.
    """
    if spec is None:
        spec = "memory"
    if isinstance(spec, str):
        try:
            factory = _BACKENDS[spec]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; "
                f"known: {sorted(_BACKENDS)}"
            ) from None
        return factory(word_count, capacity)
    if callable(spec) and not hasattr(spec, "insert"):
        built = spec(word_count, capacity)
    else:
        built = spec
    if getattr(built, "word_count", word_count) != word_count:
        raise ValueError(
            f"backend stores {built.word_count}-word rows, "
            f"need {word_count}"
        )
    return built
