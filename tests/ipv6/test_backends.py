"""The exclusion store that :func:`~repro.ipv6.backends.make_backend`
builds, against a first-occurrence Python-set oracle.

Over mixed batch schedules (empty, single-row, large) the store must
report the oracle's fresh masks, keep exactly the oracle's rows, count
every offered row, and answer lookups with stream positions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ipv6.backends import make_backend


def rows_from_values(values, word_count=2):
    """Packed rows whose identity is the scalar value: word 0 mimics a
    /64 prefix (clustered), the other words the IID."""
    values = np.asarray(values, dtype=np.uint64)
    words = np.empty((len(values), word_count), dtype=np.uint64)
    words[:, 0] = np.uint64(0x20010DB8 << 32) + (values >> np.uint64(3))
    for column in range(1, word_count):
        words[:, column] = values
    return words


def stored_row_set(table):
    return {tuple(map(int, row)) for row in table.stored_words()}


class TestPythonSetOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 120), min_size=0, max_size=40),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 3),
    )
    def test_fresh_masks_match_oracle(self, batches, word_count):
        table = make_backend("memory", word_count)
        seen = set()
        offered = 0
        for batch in batches:
            words = rows_from_values(batch, word_count)
            expected = []
            for row in map(tuple, words.tolist()):
                expected.append(row not in seen)
                seen.add(row)
            assert table.insert(words).tolist() == expected
            offered += len(batch)
        assert len(table) == len(seen)
        assert table.rows_offered == offered
        assert stored_row_set(table) == seen

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 120), min_size=1, max_size=80),
        st.lists(st.integers(0, 160), min_size=1, max_size=40),
    )
    def test_lookup_ids_are_stream_positions(self, stream, probes):
        table = make_backend("memory", 2)
        table.insert(rows_from_values(stream))
        first_seen = {}
        for position, value in enumerate(stream):
            first_seen.setdefault(int(value), position)
        expected = [first_seen.get(int(v), -1) for v in probes]
        assert table.lookup(rows_from_values(probes)).tolist() == expected
