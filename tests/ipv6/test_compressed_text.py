"""The vectorized RFC 5952 writer against per-address oracles.

``IPv6Address.compressed()`` is the reference for every line; stdlib
:mod:`ipaddress` is a second one outside ``::ffff:0:0/96``, whose text
changed in Python 3.13 (dotted-quad IPv4-mapped suffixes).
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ipv6.sets import TEXT_CHUNK_ROWS, AddressSet, compressed_text


@st.composite
def zero_heavy_rows(draw, width):
    """An ``(n, width)`` nybble matrix dense in zero runs of all lengths:
    half the nybbles are 0, and each hextet is zeroed whole half the
    time, from 40 drawn bytes a row."""
    n = draw(st.integers(0, 24))
    raw = np.frombuffer(draw(st.binary(min_size=40 * n, max_size=40 * n)),
                        dtype=np.uint8).reshape(n, 40)
    nybbles = raw[:, :32] & 0x1F
    nybbles = np.where(nybbles < 16, 0, nybbles - 16).astype(np.uint8)
    nybbles[np.repeat(raw[:, 32:] & 1, 4, axis=1) == 1] = 0
    return nybbles[:, :width]


def per_address_text(rows: AddressSet) -> str:
    return "".join(a.compressed() + "\n" for a in rows.addresses())


def text_of(*addresses: str, width: int = 32) -> str:
    rows = AddressSet.from_strings(list(addresses)).truncate(width)
    return compressed_text(rows.matrix)


@pytest.mark.parametrize("width", range(1, 33))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_line_matches_the_oracles(width, data):
    rows = AddressSet(data.draw(zero_heavy_rows(width)))
    text = compressed_text(rows.matrix)
    assert text == per_address_text(rows)
    lines = text.splitlines()
    assert len(lines) == len(rows)
    for line, address in zip(lines, rows.addresses()):
        if address.value >> 32 != 0xFFFF:
            assert line == str(ipaddress.IPv6Address(address.value))


def test_chunks_join_to_the_whole_text():
    raw = np.random.default_rng(3).integers(0, 32, (2 * TEXT_CHUNK_ROWS + 5, 32))
    rows = AddressSet(np.where(raw < 16, 0, raw - 16))
    chunks = list(rows.compressed_chunks())
    assert [len(c.splitlines()) for c in chunks] == [
        TEXT_CHUNK_ROWS, TEXT_CHUNK_ROWS, 5
    ]
    assert "".join(chunks) == per_address_text(rows)


class TestNamedCases:
    def test_empty_set_writes_nothing(self):
        assert list(AddressSet.empty().compressed_chunks()) == []
        assert compressed_text(np.zeros((0, 32), dtype=np.uint8)) == ""

    @pytest.mark.parametrize("address", ["::", "::1", "1::"])
    def test_edges_of_the_address(self, address):
        assert text_of(address) == address + "\n"

    def test_lone_zero_hextet_is_not_compressed(self):
        assert text_of("1:0:1:1:1:1:1:1") == "1:0:1:1:1:1:1:1\n"

    def test_leftmost_of_equal_longest_runs_wins(self):
        assert text_of("1:0:0:1:0:0:1:1") == "1::1:0:0:1:1\n"

    def test_run_ending_at_the_last_hextet(self):
        assert text_of("2001:db8:1:0:0:0:0:0") == "2001:db8:1::\n"
        assert text_of("1:2:3:4:5:6:0:0") == "1:2:3:4:5:6::\n"

    def test_longest_run_wins_over_an_earlier_one(self):
        assert text_of("1:0:0:1:0:0:0:1") == "1:0:0:1::1\n"

    def test_leading_zero_digits_dropped(self):
        assert text_of("2001:0db8:00a0:000b:1:2:3:4") == "2001:db8:a0:b:1:2:3:4\n"

    def test_width_16_rows_are_padded_on_the_right(self):
        text = text_of("2001:db8:1:2::9", "2001:db8::1:0:0:0:0", width=16)
        assert text == "2001:db8:1:2::\n2001:db8:0:1::\n"

    def test_rows_wider_than_an_address_rejected(self):
        with pytest.raises(ValueError):
            compressed_text(np.zeros((1, 33), dtype=np.uint8))
