"""Unit + property tests for IPv6 address parsing and formatting."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.ipv6.address import (
    AddressParseError,
    IPv6Address,
    NYBBLES_PER_ADDRESS,
    addresses_from_text,
    parse_hex32,
    parse_ipv6,
)

ADDRESS_INTS = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestParsing:
    def test_full_form(self):
        addr = IPv6Address("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert addr.value == 0x20010DB8000000000000000000000001

    def test_compressed_form(self):
        assert IPv6Address("2001:db8::1").value == (0x20010DB8 << 96) | 1

    def test_all_zeros(self):
        assert IPv6Address("::").value == 0

    def test_loopback(self):
        assert IPv6Address("::1").value == 1

    def test_trailing_compression(self):
        assert IPv6Address("fe80::").value == 0xFE80 << 112

    def test_ipv4_suffix(self):
        addr = IPv6Address("::ffff:192.0.2.1")
        assert addr.value == (0xFFFF << 32) | (192 << 24) | (2 << 8) | 1

    def test_hex32_form(self):
        addr = IPv6Address("20010db8000000000000000000000001")
        assert addr == IPv6Address("2001:db8::1")

    def test_uppercase(self):
        assert IPv6Address("2001:DB8::A") == IPv6Address("2001:db8::a")

    def test_zone_index_stripped(self):
        assert IPv6Address("fe80::1%eth0") == IPv6Address("fe80::1")

    def test_from_int(self):
        assert IPv6Address(1).compressed() == "::1"

    def test_from_address(self):
        original = IPv6Address("2001:db8::1")
        assert IPv6Address(original) == original

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ":::",
            "2001:db8",
            "2001:db8::1::2",
            "g001:db8::1",
            "2001:db8:1:2:3:4:5:6:7",
            "12345::1",
            "1.2.3.4",
            "::1.2.3.4.5",
            "::256.1.1.1",
            "2001:db8::01.2.3.4:5",
            # non-ASCII digits pass str.isdigit(); stdlib rejects them
            "::ffff:\u0661.2.3.4",
            "::ffff:\uff11.2.3.4",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressParseError):
            parse_ipv6(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(AddressParseError):
            IPv6Address(1 << 128)
        with pytest.raises(AddressParseError):
            IPv6Address(-1)

    def test_rejects_wrong_type(self):
        with pytest.raises(AddressParseError):
            IPv6Address(3.14)

    def test_hex32_rejects_wrong_length(self):
        with pytest.raises(AddressParseError):
            parse_hex32("20010db8")

    def test_hex32_rejects_non_hex(self):
        with pytest.raises(AddressParseError):
            parse_hex32("z" * 32)


class TestFormatting:
    def test_hex32_fixed_width(self):
        assert IPv6Address("::1").hex32() == "0" * 31 + "1"
        assert len(IPv6Address("2001:db8::").hex32()) == NYBBLES_PER_ADDRESS

    def test_exploded(self):
        assert (
            IPv6Address("2001:db8::1").exploded()
            == "2001:0db8:0000:0000:0000:0000:0000:0001"
        )

    def test_compressed_longest_run(self):
        # RFC 5952: compress the longest zero run.
        assert IPv6Address("2001:0:0:1:0:0:0:1").compressed() == "2001:0:0:1::1"

    def test_compressed_never_single_group(self):
        # RFC 5952: a lone zero group is not compressed.
        assert IPv6Address("2001:db8:0:1:1:1:1:1").compressed() == (
            "2001:db8:0:1:1:1:1:1"
        )

    def test_compressed_all_zero(self):
        assert IPv6Address(0).compressed() == "::"

    def test_str_and_repr(self):
        addr = IPv6Address("2001:db8::1")
        assert str(addr) == "2001:db8::1"
        assert "2001:db8::1" in repr(addr)


class TestAccessors:
    def test_nybble_positions(self):
        addr = IPv6Address("20010db840011111000000000000111c")
        assert addr.nybble(1) == 0x2
        assert addr.nybble(8) == 0x8
        assert addr.nybble(32) == 0xC

    def test_nybble_out_of_range(self):
        with pytest.raises(IndexError):
            IPv6Address(0).nybble(0)
        with pytest.raises(IndexError):
            IPv6Address(0).nybble(33)

    def test_nybbles_tuple(self):
        nybbles = IPv6Address("2001:db8::1").nybbles()
        assert len(nybbles) == 32
        assert nybbles[0] == 2 and nybbles[-1] == 1

    def test_bits(self):
        addr = IPv6Address("2001:db8::1")
        assert addr.bits(0, 16) == 0x2001
        assert addr.bits(16, 32) == 0x0DB8
        assert addr.bits(127, 128) == 1

    def test_bits_bad_range(self):
        with pytest.raises(IndexError):
            IPv6Address(0).bits(8, 8)
        with pytest.raises(IndexError):
            IPv6Address(0).bits(0, 129)

    def test_network_and_interface_identifier(self):
        addr = IPv6Address("2001:db8::dead:beef")
        assert addr.network_identifier() == 0x20010DB800000000
        assert addr.interface_identifier() == 0xDEADBEEF

    def test_truncate(self):
        addr = IPv6Address("2001:db8:ffff::1")
        assert addr.truncate(32) == IPv6Address("2001:db8::")
        assert addr.truncate(0) == IPv6Address(0)
        assert addr.truncate(128) == addr

    def test_replace_bits(self):
        addr = IPv6Address(0).replace_bits(0, 16, 0x2001)
        assert addr.nybble(1) == 2
        with pytest.raises(ValueError):
            IPv6Address(0).replace_bits(0, 4, 16)

    def test_ordering_and_hash(self):
        a, b = IPv6Address(1), IPv6Address(2)
        assert a < b and a <= b
        assert len({IPv6Address(1), IPv6Address(1)}) == 1
        assert IPv6Address(5) == 5


class TestTextIngestion:
    def test_skips_blank_and_comments(self):
        lines = ["# comment", "", "2001:db8::1", "  2001:db8::2  "]
        parsed = list(addresses_from_text(lines))
        assert parsed == [IPv6Address("2001:db8::1"), IPv6Address("2001:db8::2")]


class TestAgainstStdlib:
    """Cross-validate the from-scratch parser against ipaddress."""

    @given(ADDRESS_INTS)
    def test_exploded_matches_stdlib(self, value):
        ours = IPv6Address(value).exploded()
        theirs = ipaddress.IPv6Address(value).exploded
        assert ours == theirs

    @given(ADDRESS_INTS)
    def test_compressed_matches_stdlib(self, value):
        ours = IPv6Address(value).compressed()
        theirs = ipaddress.IPv6Address(value).compressed
        assert ours == theirs

    @given(ADDRESS_INTS)
    def test_parse_of_stdlib_forms(self, value):
        stdlib = ipaddress.IPv6Address(value)
        assert IPv6Address(stdlib.compressed).value == value
        assert IPv6Address(stdlib.exploded).value == value


class TestRoundTrips:
    @given(ADDRESS_INTS)
    def test_hex32_round_trip(self, value):
        assert IPv6Address(IPv6Address(value).hex32()).value == value

    @given(ADDRESS_INTS)
    def test_compressed_round_trip(self, value):
        assert IPv6Address(IPv6Address(value).compressed()).value == value

    @given(ADDRESS_INTS)
    def test_nybbles_recompose(self, value):
        addr = IPv6Address(value)
        recomposed = 0
        for nybble in addr.nybbles():
            recomposed = (recomposed << 4) | nybble
        assert recomposed == value
