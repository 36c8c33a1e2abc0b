"""Tests for the vectorized AddressSet container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ipv6.address import IPv6Address
from repro.ipv6.sets import (
    AddressSet,
    first_occurrence_positions,
    pack_rows,
    split_train_test,
    unpack_rows,
)

ADDRESS_INTS = st.integers(min_value=0, max_value=(1 << 128) - 1)


def match_rows_reference(base, query):
    """``base.match_rows(query)`` from a dict of each row's first
    position in ``base``."""
    first = {}
    for position, row in enumerate(base.matrix.tolist()):
        first.setdefault(tuple(row), position)
    return [first.get(tuple(row), -1) for row in query.matrix.tolist()]


class TestConstruction:
    def test_from_strings(self):
        s = AddressSet.from_strings(["2001:db8::1", "2001:db8::2"])
        assert len(s) == 2 and s.width == 32

    def test_from_ints_full_width(self):
        s = AddressSet.from_ints([1, 2])
        assert s.column(32).tolist() == [1, 2]

    def test_from_ints_truncating_keeps_top(self):
        value = IPv6Address("2001:db8::1").value
        s = AddressSet.from_ints([value], width=16)
        assert list(s.hex_rows()) == ["20010db800000000"]

    def test_from_ints_already_truncated(self):
        s = AddressSet.from_ints([0x20010DB8], width=8, already_truncated=True)
        assert list(s.hex_rows()) == ["20010db8"]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1 << 32], width=8, already_truncated=True)

    def test_negative_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="negative address value"):
            AddressSet.from_ints([-1])
        with pytest.raises(ValueError, match="negative address value"):
            AddressSet.from_ints([0, -7], width=8, already_truncated=True)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=0)
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=33)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            AddressSet(np.full((2, 4), 16, dtype=np.uint8))
        with pytest.raises(ValueError):
            AddressSet(np.zeros(4, dtype=np.uint8))
        # Wider than an address: addresses() and to_ints() would fail
        # or overflow 128 bits later.
        with pytest.raises(ValueError, match="40 nybbles"):
            AddressSet(np.ones((2, 40), dtype=np.uint8))
        assert AddressSet(np.ones((2, 32), dtype=np.uint8)).width == 32

    def test_empty(self):
        s = AddressSet.empty(width=16)
        assert len(s) == 0 and s.width == 16

    def test_matrix_is_read_only(self):
        s = AddressSet.from_ints([1, 2])
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5


class TestAccessors:
    def test_column_indexing(self, tiny_set):
        # Fig. 3: last character takes 'c' twice and 'f' thrice.
        last = tiny_set.column(32).tolist()
        assert last.count(0xC) == 2 and last.count(0xF) == 3

    def test_column_out_of_range(self, tiny_set):
        with pytest.raises(IndexError):
            tiny_set.column(0)
        with pytest.raises(IndexError):
            tiny_set.column(33)

    def test_segment_values_narrow(self, tiny_set):
        values = tiny_set.segment_values(12, 16)
        assert int(values[0]) == 0x11111
        assert int(values[2]) == 0x31C13

    def test_segment_values_full_width_uint64(self):
        s = AddressSet.from_ints([0xFFFFFFFFFFFFFFFF], width=16,
                                 already_truncated=True)
        values = s.segment_values(1, 16)
        assert values.dtype == np.uint64
        assert int(values[0]) == 0xFFFFFFFFFFFFFFFF

    def test_segment_values_wider_than_64_bits(self):
        s = AddressSet.from_strings(["2001:db8::1"])
        values = s.segment_values(1, 32)
        assert values.dtype == object
        assert values[0] == IPv6Address("2001:db8::1").value

    def test_segment_values_bad_range(self, tiny_set):
        with pytest.raises(IndexError):
            tiny_set.segment_values(5, 4)
        with pytest.raises(IndexError):
            tiny_set.segment_values(0, 4)

    def test_row_int_and_addresses(self):
        s = AddressSet.from_strings(["2001:db8::1"])
        assert s.row_int(0) == IPv6Address("2001:db8::1").value
        assert s.addresses() == [IPv6Address("2001:db8::1")]

    def test_addresses_pad_narrow_width(self):
        s = AddressSet.from_ints([0x20010DB8], width=8, already_truncated=True)
        assert s.addresses() == [IPv6Address("2001:db8::")]

    def test_hex_rows(self, tiny_set):
        rows = list(tiny_set.hex_rows())
        assert rows[0] == "20010db840011111000000000000111c"


class TestOperations:
    def test_unique(self, tiny_set):
        assert len(tiny_set.unique()) == 4  # one duplicate in Fig. 3

    def test_sample_without_replacement(self, tiny_set, rng):
        sample = tiny_set.sample(3, rng)
        assert len(sample) == 3

    def test_sample_too_large(self, tiny_set, rng):
        with pytest.raises(ValueError):
            tiny_set.sample(10, rng)

    def test_truncate(self, tiny_set):
        t = tiny_set.truncate(8)
        assert t.width == 8
        assert set(t.hex_rows()) == {"20010db8"}

    def test_truncate_bad_width(self, tiny_set):
        with pytest.raises(ValueError):
            tiny_set.truncate(33)

    def test_concat(self):
        a = AddressSet.from_ints([1])
        b = AddressSet.from_ints([2])
        assert len(a.concat(b)) == 2

    def test_concat_width_mismatch(self):
        a = AddressSet.from_ints([1], width=8)
        b = AddressSet.from_ints([2], width=16)
        with pytest.raises(ValueError):
            a.concat(b)

    def test_take(self, tiny_set):
        taken = tiny_set.take([0, 2])
        assert len(taken) == 2
        assert list(taken.hex_rows())[1].endswith("200c")

    def test_equality(self):
        assert AddressSet.from_ints([1, 2]) == AddressSet.from_ints([1, 2])
        assert AddressSet.from_ints([1]) != AddressSet.from_ints([2])

    def test_split_train_test(self, rng):
        s = AddressSet.from_ints(list(range(100)))
        train, test = split_train_test(s, 30, rng)
        assert len(train) == 30 and len(test) == 70
        assert set(train.to_ints()) | set(test.to_ints()) == set(range(100))

    def test_split_train_test_too_big(self, rng):
        s = AddressSet.from_ints([1, 2])
        with pytest.raises(ValueError):
            split_train_test(s, 2, rng)


class TestVectorizedEquivalence:
    """The numpy fast paths must match the obvious per-row reference."""

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30))
    def test_to_ints_matches_per_row_reference(self, values):
        s = AddressSet.from_ints(values)
        reference = []
        for row in range(len(s)):
            value = 0
            for nybble in s.matrix[row]:
                value = (value << 4) | int(nybble)
            reference.append(value)
        assert s.to_ints() == reference
        assert [s.row_int(r) for r in range(len(s))] == reference

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30))
    def test_hex_rows_matches_format_reference(self, values):
        s = AddressSet.from_ints(values)
        assert list(s.hex_rows()) == [format(v, "032x") for v in values]

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=30),
        st.lists(st.integers(0, 2**40), min_size=0, max_size=30),
        st.integers(1, 32),
    )
    def test_contains_rows_matches_set_reference(self, mine, theirs, width):
        a = AddressSet.from_ints([v % (1 << (4 * width)) for v in mine],
                                 width=width, already_truncated=True)
        b = AddressSet.from_ints([v % (1 << (4 * width)) for v in theirs],
                                 width=width, already_truncated=True)
        members = set(a.to_ints())
        expected = [v in members for v in b.to_ints()]
        assert a.contains_rows(b).tolist() == expected

    def test_contains_rows_width_mismatch(self):
        a = AddressSet.from_ints([1], width=8, already_truncated=True)
        b = AddressSet.from_ints([1], width=16, already_truncated=True)
        with pytest.raises(ValueError):
            a.contains_rows(b)

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=30), st.integers(1, 32))
    def test_pack_rows_preserves_row_identity(self, values, width):
        s = AddressSet.from_ints(values, width=width)
        words = pack_rows(s.matrix)
        assert words.shape == (len(s), (width + 15) // 16)
        # Packed equality must coincide with row equality.
        ints = s.to_ints()
        for i in range(len(s)):
            for j in range(len(s)):
                assert (ints[i] == ints[j]) == bool(
                    np.all(words[i] == words[j])
                )

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=0, max_size=30), st.integers(1, 32))
    def test_unpack_rows_inverts_pack_rows(self, values, width):
        """unpack_rows is the exact inverse of pack_rows — the fused
        generation path relies on it to materialize nybble matrices
        only for the rows it keeps."""
        s = AddressSet.from_ints(values, width=width)
        matrix = unpack_rows(pack_rows(s.matrix), width)
        assert matrix.shape == s.matrix.shape
        assert matrix.dtype == s.matrix.dtype
        assert np.array_equal(matrix, s.matrix)
        assert matrix.flags["C_CONTIGUOUS"]

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, 30), min_size=0, max_size=60),
        st.lists(st.integers(0, 30), min_size=0, max_size=10),
    )
    def test_first_occurrence_matches_python_reference(self, stream, exclude):
        seen = set(exclude)
        expected = []
        for position, value in enumerate(stream):
            if value not in seen:
                seen.add(value)
                expected.append(position)

        def one_word(values):
            return AddressSet.from_ints(values, width=4, already_truncated=True)

        def two_words(values):
            # Value v is the packed pair (v // 6, v % 6): distinct values
            # share word 0 and differ in word 1, or the other way round.
            return AddressSet.from_ints([(v // 6) << 64 | v % 6 for v in values])

        for build in (one_word, two_words):
            positions = first_occurrence_positions(
                build(stream).packed_rows(), build(exclude).packed_rows()
            )
            assert positions.tolist() == expected


class TestRoundTrips:
    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=20))
    def test_ints_round_trip(self, values):
        s = AddressSet.from_ints(values)
        assert s.to_ints() == values

    @settings(max_examples=50)
    @given(st.lists(ADDRESS_INTS, min_size=1, max_size=20))
    def test_segment_values_recompose(self, values):
        s = AddressSet.from_ints(values)
        top = s.segment_values(1, 16)
        bottom = s.segment_values(17, 32)
        for original, high, low in zip(values, top, bottom):
            assert (int(high) << 64) | int(low) == original


class TestArrayPrimitives:
    """The packed-word primitives the array-native scan layer rides on."""

    def test_from_words_round_trip(self):
        values = [0x20010DB8_0001_0000 | i for i in range(100)]
        words = np.array(values, dtype=np.uint64)
        built = AddressSet.from_words(words, width=16)
        assert built.to_ints() == values
        assert built == AddressSet.from_ints(
            values, width=16, already_truncated=True
        )

    def test_from_words_narrow_widths(self):
        built = AddressSet.from_words(np.array([0x1234, 0xF], dtype=np.uint64), 4)
        assert built.to_ints() == [0x1234, 0xF]
        assert built.width == 4

    def test_from_words_validation(self):
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([0x12345], dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([1], dtype=np.uint64), 17)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([[1]], dtype=np.uint64), 4)

    def test_from_words_empty(self):
        built = AddressSet.from_words(np.array([], dtype=np.uint64), 16)
        assert len(built) == 0 and built.width == 16

    @pytest.mark.parametrize("width", [32, 20, 16, 8])
    def test_value_words_match_row_ints(self, width):
        generator = np.random.default_rng(7)
        values = [
            int(v) >> (4 * (32 - width))
            for v in generator.integers(0, 1 << 63, size=50)
        ] + [0, (1 << (4 * width)) - 1]
        rows = AddressSet.from_ints(values, width=width, already_truncated=True)
        low, high = rows.value_words()
        rebuilt = [(int(hi) << 64) | int(lo) for lo, hi in zip(low, high)]
        assert rebuilt == [rows.row_int(i) for i in range(len(rows))]

    @pytest.mark.parametrize("width", [32, 24, 16])
    def test_prefixes64_matches_scalar_reference(self, width):
        generator = np.random.default_rng(13)
        values = [
            int(v) >> (4 * (32 - width))
            for v in generator.integers(0, 1 << 62, size=200)
        ]
        rows = AddressSet.from_ints(values, width=width, already_truncated=True)
        shift = 4 * (width - 16)
        reference = sorted({v >> shift for v in values})
        assert [int(p) for p in rows.prefixes64()] == reference

    def test_prefixes64_rejects_narrow(self):
        with pytest.raises(ValueError):
            AddressSet.from_ints([1], width=8, already_truncated=True).prefixes64()

    def test_prefixes64_empty(self):
        assert AddressSet.empty(32).prefixes64().tolist() == []

    def test_contains_rows_repeated_queries_use_cache(self):
        base = AddressSet.from_ints([10, 20, 30])
        hits = base.contains_rows(AddressSet.from_ints([20, 99]))
        assert hits.tolist() == [True, False]
        # Second query hits the cached bucket table; results unchanged.
        again = base.contains_rows(AddressSet.from_ints([10, 30, 40]))
        assert again.tolist() == [True, True, False]


class TestMatchRows:
    def test_positions_point_at_equal_rows(self):
        base = AddressSet.from_ints([(7 << 64) | i for i in (5, 9, 2, 5)])
        query = AddressSet.from_ints(
            [(7 << 64) | 2, (7 << 64) | 5, 123, (7 << 64) | 9]
        )
        positions = base.match_rows(query)
        assert positions[2] == -1
        for q, p in zip(range(len(query)), positions):
            if p >= 0:
                assert base.matrix[p].tolist() == query.matrix[q].tolist()
        # Duplicate rows in base: the first occurrence wins.
        assert positions[1] == 0

    def test_empty_sides(self):
        base = AddressSet.from_ints([1, 2])
        assert base.match_rows(AddressSet.empty(32)).tolist() == []
        assert AddressSet.empty(32).match_rows(base).tolist() == [-1, -1]

    def test_agrees_with_first_occurrence_dict(self):
        generator = np.random.default_rng(21)
        values = [int(v) for v in generator.integers(0, 1 << 60, size=300)]
        base = AddressSet.from_ints(values + values[:50])
        query = AddressSet.from_ints(
            values[::3] + [int(v) for v in generator.integers(0, 1 << 60, size=100)]
        )
        positions = base.match_rows(query)
        assert positions.tolist() == match_rows_reference(base, query)
        assert base.contains_rows(query).tolist() == (positions >= 0).tolist()

    def test_single_word_rows(self):
        base = AddressSet.from_ints(
            [3, 9, 27, 81, 9], width=16, already_truncated=True
        )
        query = AddressSet.from_ints(
            [9, 4, 81], width=16, already_truncated=True
        )
        assert base.match_rows(query).tolist() == [1, -1, 3]

    def test_from_words_rejects_negative_and_float(self):
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([-1], dtype=np.int64), 16)
        with pytest.raises(ValueError):
            AddressSet.from_words(np.array([1.5]), 16)
        # Signed but non-negative is fine.
        built = AddressSet.from_words(np.array([7, 9], dtype=np.int64), 4)
        assert built.to_ints() == [7, 9]
