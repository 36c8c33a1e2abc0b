"""Adversarial tests for the open-addressing bucket-table index.

Covers the failure modes a hash table earns the hard way: fold
collisions between distinct rows, growth (rehashing) across many
power-of-two boundaries, duplicate-heavy batches, empty tables and
empty queries — plus equivalence against plain Python set and dict
oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ipv6.sets as sets_module
from repro.ipv6.backends import make_backend
from repro.ipv6.sets import AddressSet, BucketTable, pack_rows
from tests.ipv6.test_sets import match_rows_reference


def _random_words(rng, n, k=2, bits=63):
    return rng.integers(0, 1 << bits, size=(n, k), dtype=np.uint64)


class TestBasics:
    def test_insert_and_lookup_roundtrip(self):
        rng = np.random.default_rng(0)
        words = _random_words(rng, 1000)
        table = BucketTable(2)
        fresh = table.insert(words)
        assert fresh.all()  # all distinct at 63 random bits
        assert len(table) == 1000
        assert np.array_equal(table.lookup(words), np.arange(1000))
        misses = _random_words(rng, 500)
        assert (table.lookup(misses) == -1).all()

    def test_duplicates_first_occurrence_wins(self):
        words = np.array(
            [[1, 2], [3, 4], [1, 2], [5, 6], [3, 4], [1, 2]], dtype=np.uint64
        )
        table = BucketTable(2)
        fresh = table.insert(words)
        assert fresh.tolist() == [True, True, False, True, False, False]
        assert len(table) == 3
        # Lookup reports the id of the first occurrence.
        assert table.lookup(words).tolist() == [0, 1, 0, 3, 1, 0]

    def test_incremental_ids_continue_across_batches(self):
        table = BucketTable(1)
        table.insert(np.array([[7], [8]], dtype=np.uint64))
        fresh = table.insert(np.array([[8], [9]], dtype=np.uint64))
        assert fresh.tolist() == [False, True]
        # Default ids count every offered row, so [9] is row 3 of the
        # stream (0-indexed).
        assert table.lookup(np.array([[9]], dtype=np.uint64)).tolist() == [3]

    def test_explicit_ids(self):
        table = BucketTable(1)
        table.insert(
            np.array([[4], [5]], dtype=np.uint64),
            ids=np.array([40, 50], dtype=np.int64),
        )
        assert table.lookup(np.array([[5], [4]], dtype=np.uint64)).tolist() == [
            50,
            40,
        ]

    def test_empty_table_and_empty_query(self):
        table = BucketTable(2)
        assert len(table) == 0
        assert table.lookup(np.empty((0, 2), dtype=np.uint64)).size == 0
        rng = np.random.default_rng(1)
        assert (table.lookup(_random_words(rng, 100)) == -1).all()
        assert table.insert(np.empty((0, 2), dtype=np.uint64)).size == 0

    def test_shape_validation(self):
        table = BucketTable(2)
        with pytest.raises(ValueError):
            table.insert(np.zeros((4, 3), dtype=np.uint64))
        with pytest.raises(ValueError):
            table.lookup(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            table.insert(
                np.zeros((4, 2), dtype=np.uint64),
                ids=np.zeros(3, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            BucketTable(0)


class TestGrowth:
    def test_growth_across_many_boundaries(self):
        rng = np.random.default_rng(2)
        table = BucketTable(2)  # starts at the minimum slot count
        seen = []
        sizes = set()
        for _ in range(40):
            batch = _random_words(rng, 97)
            table.insert(batch)
            seen.append(batch)
            sizes.add(table.slot_count)
        all_words = np.vstack(seen)
        assert len(table) == len(all_words)  # 63-bit rows: no dups
        assert len(sizes) > 3  # actually crossed several boundaries
        assert (table.lookup(all_words) >= 0).all()
        assert (table.lookup(_random_words(rng, 1000)) == -1).all()

    def test_single_huge_insert_grows_once(self):
        rng = np.random.default_rng(3)
        words = _random_words(rng, 10_000, k=1)
        table = BucketTable(1)
        fresh = table.insert(words)
        assert fresh.all()
        assert table.slot_count >= 2 * len(words)
        assert np.array_equal(table.lookup(words), np.arange(10_000))

    def test_duplicates_do_not_trigger_spurious_growth(self):
        words = np.tile(np.array([[1, 9]], dtype=np.uint64), (5000, 1))
        table = BucketTable(2)
        fresh = table.insert(words)
        assert fresh.sum() == 1
        assert len(table) == 1

    def test_dup_heavy_batch_into_populated_table_keeps_size(self):
        # The saturated-generation regime: a batch far larger than the
        # table that contains nothing new must leave the slot array and
        # storage untouched (growth tracks fresh rows, not batch size).
        rng = np.random.default_rng(11)
        base = _random_words(rng, 4000)
        table = BucketTable(2, capacity=4000)
        table.insert(base)
        slots_before = table.slot_count
        fresh = table.insert(np.vstack([base, base, base, base]))
        assert not fresh.any()
        assert table.slot_count == slots_before
        assert len(table) == 4000


class TestFoldCollisions:
    """Distinct rows with identical mixed folds must stay distinct."""

    def test_weak_fold_is_still_exact(self, monkeypatch):
        # Degrade the fold to its low 3 bits: massive intentional
        # collisions.  The table must still answer exactly, because
        # every key match is word-verified and probing walks past
        # mismatches.
        monkeypatch.setattr(
            sets_module,
            "_mix_words",
            lambda words: words[:, 0] & np.uint64(7),
        )
        rng = np.random.default_rng(4)
        words = _random_words(rng, 500)
        table = BucketTable(2)
        fresh = table.insert(words)
        assert fresh.all()
        assert np.array_equal(table.lookup(words), np.arange(500))
        misses = _random_words(rng, 200)
        assert (table.lookup(misses) == -1).all()

    def test_constant_fold_duplicates_and_growth(self, monkeypatch):
        # The pathological extreme: every row hashes to the same home
        # slot, turning the table into a linear scan.  Correctness
        # (dedup, first-occurrence ids, growth) must survive.
        monkeypatch.setattr(
            sets_module,
            "_mix_words",
            lambda words: np.zeros(len(words), dtype=np.uint64),
        )
        rng = np.random.default_rng(5)
        distinct = _random_words(rng, 300, k=1)
        batch = np.vstack([distinct, distinct[::2]])
        table = BucketTable(1)
        fresh = table.insert(batch)
        assert fresh[:300].all()
        assert not fresh[300:].any()
        assert len(table) == 300
        assert np.array_equal(table.lookup(distinct), np.arange(300))

    def test_match_rows_with_weak_fold(self, monkeypatch):
        monkeypatch.setattr(
            sets_module,
            "_mix_words",
            lambda words: words[:, 0] & np.uint64(15),
        )
        rng = np.random.default_rng(6)
        values = [int(v) for v in rng.integers(0, 1 << 60, size=400)]
        base = AddressSet.from_ints(values + values[:60])
        query = AddressSet.from_ints(
            values[::5] + [int(v) for v in rng.integers(0, 1 << 60, size=150)]
        )
        positions = base.match_rows(query)
        # Python-set oracle.
        base_ints = base.to_ints()
        first_position = {}
        for i, v in enumerate(base_ints):
            first_position.setdefault(v, i)
        expected = [first_position.get(v, -1) for v in query.to_ints()]
        assert positions.tolist() == expected


class TestPersistentSession:
    """The incremental API a campaign-lifetime table runs on:
    ``insert_packed`` batches with growth mid-stream, fold collisions
    across batches, bounded (``limit``) inserts with exact rollback,
    and the snapshot counters."""

    def test_insert_packed_unlimited_is_insert(self):
        rng = np.random.default_rng(20)
        words = _random_words(rng, 800)
        a, b = BucketTable(2), BucketTable(2)
        assert np.array_equal(a.insert_packed(words), b.insert(words))
        assert len(a) == len(b)
        assert np.array_equal(a.lookup(words), b.lookup(words))

    def test_many_batches_against_python_set_oracle(self):
        # A long campaign: 40 batches with heavy cross-batch repeats,
        # growth boundaries crossed mid-stream, for rows of 1 to 3
        # words.  Fresh masks must match a first-occurrence Python-set
        # oracle at every step, and the stored rows its set at the end.
        rng = np.random.default_rng(21)
        for word_count in (1, 2, 3):
            pool = _random_words(rng, 1500, k=word_count)
            table = BucketTable(word_count)  # minimum slot count
            seen = set()
            sizes = set()
            for _ in range(40):
                take = rng.integers(0, len(pool), size=97)
                batch = pool[take]
                fresh = table.insert_packed(batch)
                for i, row in enumerate(map(tuple, batch.tolist())):
                    assert fresh[i] == (row not in seen), row
                    seen.add(row)
                sizes.add(table.slot_count)
            assert len(table) == len(seen)
            assert set(map(tuple, table.stored_words().tolist())) == seen
            assert len(sizes) > 2  # growth actually happened mid-campaign
            assert table.rows_offered == 40 * 97

    def test_fold_collision_rows_across_batches(self, monkeypatch):
        # Distinct rows whose (weakened) folds collide, spread across
        # separate batches: later batches must still dedup against
        # them and keep distinct colliding rows individually findable.
        monkeypatch.setattr(
            sets_module,
            "_mix_words",
            lambda words: words[:, 0] & np.uint64(3),
        )
        rng = np.random.default_rng(22)
        base = _random_words(rng, 200)
        table = BucketTable(2)
        assert table.insert_packed(base).all()
        for start in range(0, 200, 50):
            again = table.insert_packed(base[start:start + 50])
            assert not again.any()
        extra = _random_words(rng, 100)
        assert table.insert_packed(extra).all()
        assert np.array_equal(table.lookup(base), np.arange(200))
        assert (table.lookup(extra) >= 0).all()

    def test_limit_admits_first_fresh_rows_only(self):
        words = np.array(
            [[1, 1], [2, 2], [1, 1], [3, 3], [4, 4]], dtype=np.uint64
        )
        table = BucketTable(2)
        fresh = table.insert_packed(words, limit=2)
        # Fresh rows in batch order are [1,1],[2,2],[3,3],[4,4]; only
        # the first two are admitted.
        assert fresh.tolist() == [True, True, False, False, False]
        assert len(table) == 2
        assert (table.lookup(words[3:]) == -1).all()
        # Rolled-back rows are re-insertable later as fresh.
        again = table.insert_packed(words, limit=10)
        assert again.tolist() == [False, False, False, True, True]
        assert len(table) == 4

    def test_limit_rollback_is_exact_state(self):
        # After a limited insert the table must behave exactly like a
        # table that only ever saw the admitted rows.
        rng = np.random.default_rng(23)
        base = _random_words(rng, 500)
        batch = _random_words(rng, 400)
        limited = BucketTable(2, capacity=900)
        limited.insert_packed(base)
        fresh = limited.insert_packed(batch, limit=100)
        assert fresh.sum() == 100
        reference = BucketTable(2, capacity=900)
        reference.insert_packed(base)
        reference.insert_packed(batch[np.flatnonzero(fresh)])
        probe = np.vstack([base, batch, _random_words(rng, 300)])
        assert np.array_equal(
            limited.lookup(probe) >= 0, reference.lookup(probe) >= 0
        )
        assert len(limited) == len(reference) == 600

    def test_limit_rollback_across_growth_boundary(self):
        # The limited batch itself triggers growth (rehash): rollback
        # must rebuild the slot array, not leak phantom rows.
        rng = np.random.default_rng(24)
        table = BucketTable(1)  # minimum size
        seed_rows = _random_words(rng, 10, k=1)
        table.insert_packed(seed_rows)
        big = _random_words(rng, 5000, k=1)
        fresh = table.insert_packed(big, limit=7)
        assert fresh.sum() == 7
        assert len(table) == 17
        admitted = big[np.flatnonzero(fresh)]
        assert (table.lookup(admitted) >= 0).all()
        dropped = big[~fresh]
        assert (table.lookup(dropped) == -1).all()
        # The table remains fully functional after the rollback.
        assert table.insert_packed(big[:100], limit=None).sum() >= 93
        assert (table.lookup(seed_rows) >= 0).all()

    def test_limit_zero_and_validation(self):
        table = BucketTable(2)
        words = np.array([[5, 5], [6, 6]], dtype=np.uint64)
        fresh = table.insert_packed(words, limit=0)
        assert not fresh.any()
        assert len(table) == 0
        assert table.rows_offered == 2  # offered counts the full batch
        with pytest.raises(ValueError):
            table.insert_packed(words, limit=-1)

    def test_snapshot_counters(self):
        table = BucketTable(1)
        table.insert_packed(np.array([[1], [2], [1]], dtype=np.uint64))
        assert table.rows_stored == len(table) == 2
        assert table.rows_offered == 3
        table.insert_packed(np.array([[2], [3]], dtype=np.uint64), limit=0)
        assert table.rows_stored == 2
        assert table.rows_offered == 5

    @pytest.mark.usefixtures("threaded_shards")
    def test_workers_bit_identity_on_shared_prepopulated_session(self):
        # Two identically pre-populated sessions, one driven at
        # workers=1 and one at workers=4, across several generate_set
        # calls: rows and session contents must stay bit-identical.
        from repro.core.pipeline import EntropyIP

        rng = np.random.default_rng(25)
        values = [
            (0x20010DB8 << 96) | (int(s) << 64) | int(h)
            for s, h in zip(
                rng.integers(0, 8, size=1200),
                rng.integers(0, 1 << 16, size=1200),
            )
        ]
        train = AddressSet.from_ints(values)
        model = EntropyIP.fit(train).model
        serial_session = model.session(exclude=train)
        parallel_session = model.session(exclude=train)
        serial_rng = np.random.default_rng(7)
        parallel_rng = np.random.default_rng(7)
        for n in (300, 300, 200):
            serial = model.generate_set(
                n, serial_rng, state=serial_session, workers=1
            )
            parallel = model.generate_set(
                n, parallel_rng, state=parallel_session, workers=4
            )
            assert np.array_equal(serial.matrix, parallel.matrix)
        assert len(serial_session) == len(parallel_session)
        probe = serial_session.table
        assert np.array_equal(
            probe.lookup(train.packed_rows()),
            parallel_session.table.lookup(train.packed_rows()),
        )


#: Folds for the limited-insert property: the real one, and two that
#: force collisions between distinct rows.
_FOLDS = {
    "mixed": None,
    "weak": lambda words: words[:, 0] & np.uint64(3),
    "constant": lambda words: np.zeros(len(words), dtype=np.uint64),
}


class TestLimitedInsertOracle:
    """``insert_packed(words, limit=k)`` against a Python-set oracle,
    for limits from 0 to past the batch."""

    def test_exact_cut_screens_the_tail(self):
        # limit 3 of 6 rows: the head [a, a, a] admits one row, and the
        # tail is screened for the other two — a stored row and an
        # in-tail duplicate are passed over.
        a, b, c, s = ([v, v] for v in (1, 2, 3, 4))
        table = BucketTable(2)
        table.insert_packed(np.array([s], dtype=np.uint64))
        words = np.array([a, a, a, s, b, b, c, c], dtype=np.uint64)
        fresh = table.insert_packed(words[:6], limit=3)
        assert np.flatnonzero(fresh).tolist() == [0, 4]
        fresh = table.insert_packed(words, limit=4)
        assert np.flatnonzero(fresh).tolist() == [6]
        assert table.lookup(words).tolist() == [1, 1, 1, 0, 5, 5, 13, 13]

    def test_exact_cut_stops_at_the_need(self):
        # Need 2 after the head, which admitted 2 of its 4 rows, so the
        # screen reads 4 tail rows [s, c, d, e] at once (three fresh)
        # and cuts after d.
        a, b, c, d, e, s = ([v, v] for v in range(1, 7))
        table = BucketTable(2)
        table.insert_packed(np.array([s], dtype=np.uint64))
        words = np.array([a, b, a, b, s, c, d, e], dtype=np.uint64)
        fresh = table.insert_packed(words, limit=4)
        assert np.flatnonzero(fresh).tolist() == [0, 1, 5, 6]
        assert len(table) == 5
        assert table.lookup(words[7:]).tolist() == [-1]

    def test_exact_cut_reads_doubling_slices(self):
        # Need 1 after the head, which admitted 3 of its 4 rows, so the
        # screen expects one tail row to do and reads slices [s], [a]
        # (neither fresh) and [d, e], and cuts after d.
        a, b, c, d, e, s = ([v, v] for v in range(1, 7))
        table = BucketTable(2)
        table.insert_packed(np.array([s], dtype=np.uint64))
        words = np.array([a, b, c, a, s, a, d, e], dtype=np.uint64)
        fresh = table.insert_packed(words, limit=4)
        assert np.flatnonzero(fresh).tolist() == [0, 1, 2, 6]
        assert len(table) == 5
        assert table.lookup(words[6:]).tolist() == [7, -1]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        distinct=st.integers(1, 40),
        stored=st.lists(st.integers(0, 39), max_size=30),
        batch=st.lists(st.integers(0, 39), max_size=60),
        extra_limit=st.integers(0, 64),
        fold=st.sampled_from(sorted(_FOLDS)),
        capacity=st.sampled_from([0, 128]),
        explicit_ids=st.booleans(),
        shared=st.sampled_from([None, 0, 1]),
    )
    def test_against_python_set(
        self, seed, distinct, stored, batch, extra_limit, fold, capacity,
        explicit_ids, shared,
    ):
        rng = np.random.default_rng(seed)
        pool = _random_words(rng, 40)
        extra = _random_words(rng, 20)
        if shared is not None:
            # Every row, probes included, has the same word ``shared``
            # and differs in the other only: the same /64 with other
            # interface IDs (shared 0), or the other way round.
            pool[:, shared] = extra[:, shared] = pool[0, shared]
        # Fewer distinct rows, more duplicates in the batch and overlap
        # with the stored rows.
        stored = [i % distinct for i in stored]
        words = pool[[i % distinct for i in batch]]
        limit = min(extra_limit, len(batch) + 3)
        with pytest.MonkeyPatch.context() as patch:
            if _FOLDS[fold] is not None:
                patch.setattr(sets_module, "_mix_words", _FOLDS[fold])
            table = BucketTable(2, capacity=capacity)
            table.insert_packed(pool[stored])
            mark = table.rows_offered
            ids = 1000 + np.arange(len(words)) if explicit_ids else None
            fresh = table.insert_packed(words, ids=ids, limit=limit)

            seen = {tuple(row) for row in pool[stored].tolist()}
            first_fresh = []
            for i, row in enumerate(map(tuple, words.tolist())):
                if row not in seen:
                    seen.add(row)
                    first_fresh.append(i)
            admitted = np.array(first_fresh[:limit], dtype=np.int64)
            assert np.flatnonzero(fresh).tolist() == admitted.tolist()
            stream = (1000 if explicit_ids else mark) + admitted
            assert table.lookup(words[admitted]).tolist() == stream.tolist()
            assert table.rows_offered == mark + len(words)

            reference = BucketTable(2, capacity=capacity)
            reference.insert_packed(pool[stored])
            reference.insert(words[admitted], ids=stream)
            probe = np.vstack([pool, extra])
            assert np.array_equal(table.lookup(probe), reference.lookup(probe))
            assert np.array_equal(
                table.contains(probe), reference.lookup(probe) >= 0
            )
            assert len(table) == len(reference)
            assert table.state_digest() == reference.state_digest()
            # Later batches see the same table.
            assert np.array_equal(
                table.insert_packed(pool), reference.insert_packed(pool)
            )


class TestRevertInsert:
    """``revert_insert(mark)``, the table's one rollback: after it the
    table reads and behaves as one that never saw the reverted rows."""

    @pytest.mark.parametrize("fold", sorted(_FOLDS))
    def test_revert_matches_a_table_that_never_saw_the_rows(
        self, monkeypatch, fold
    ):
        if _FOLDS[fold] is not None:
            monkeypatch.setattr(sets_module, "_mix_words", _FOLDS[fold])
        rng = np.random.default_rng(26)
        base = _random_words(rng, 40)
        later = _random_words(rng, 600)
        table = BucketTable(2)  # minimum slot count
        reference = BucketTable(2)
        table.insert_packed(base)
        reference.insert_packed(base)
        mark = table.mark()
        slots_at_mark = table.slot_count
        # Several inserts, a limited one among them, and a slot-array
        # growth, all reverted at once.
        table.insert(later[:30])
        table.insert_packed(np.vstack([later[20:60], base[:5]]), limit=12)
        table.insert_packed(later[60:])
        assert table.slot_count > slots_at_mark
        table.revert_insert(mark)
        assert len(table) == len(reference)
        assert table.rows_offered == reference.rows_offered
        assert table.state_digest() == reference.state_digest()
        # The next insert admits the same rows under the same ids.
        batch = np.vstack([later[::3], base[::4], later[::3]])
        assert np.array_equal(table.insert(batch), reference.insert(batch))
        probe = np.vstack([base, later])
        assert np.array_equal(table.lookup(probe), reference.lookup(probe))

    def test_mark_with_more_rows_than_stored_raises(self):
        rng = np.random.default_rng(27)
        table = BucketTable(1)
        start = table.mark()
        table.insert(_random_words(rng, 50, k=1))
        later = table.mark()
        table.revert_insert(start)
        with pytest.raises(ValueError, match="mark holds 50 rows"):
            table.revert_insert(later)


class TestMakeBackend:
    @pytest.mark.parametrize("spec", [None, "memory"])
    def test_builds_a_presized_bucket_table(self, spec):
        table = make_backend(spec, 2, capacity=10_000)
        assert isinstance(table, BucketTable)
        assert table.word_count == 2
        slots = table.slot_count
        table.insert(_random_words(np.random.default_rng(28), 5000))
        assert table.slot_count == slots

    @pytest.mark.parametrize("spec", ["sharded64", "mmap"])
    def test_other_names_raise_naming_the_removal(self, spec):
        with pytest.raises(ValueError, match="'sharded64' store was removed"):
            make_backend(spec, 2)


class TestAgainstReferences:
    def test_match_rows_agrees_with_sorted_reference(self):
        rng = np.random.default_rng(7)
        values = [int(v) for v in rng.integers(0, 1 << 62, size=2000)]
        base = AddressSet.from_ints(values + values[:300])
        query = AddressSet.from_ints(
            values[::2] + [int(v) for v in rng.integers(0, 1 << 62, size=800)]
        )
        assert base.match_rows(query).tolist() == match_rows_reference(
            base, query
        )

    def test_prefix_width_rows(self):
        rng = np.random.default_rng(8)
        values = [int(v) for v in rng.integers(0, 1 << 60, size=500)]
        base = AddressSet.from_ints(values, width=16, already_truncated=False)
        query = AddressSet.from_ints(
            values[::3], width=16, already_truncated=False
        )
        assert (base.match_rows(query) >= 0).all()
        assert base.match_rows(query).tolist() == match_rows_reference(
            base, query
        )

    def test_table_consistent_with_pack_rows(self):
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, 16, size=(300, 32), dtype=np.uint8)
        base = AddressSet(matrix)
        table = base._membership_index()
        assert (table.lookup(pack_rows(matrix)) >= 0).all()
