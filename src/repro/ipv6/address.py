"""IPv6 address parsing and formatting.

Entropy/IP (Section 4.1) treats an IPv6 address as a fixed-width string of
32 hexadecimal characters ("nybbles"), e.g.::

    20010db840011111000000000000111c

This module implements a self-contained :class:`IPv6Address` value type
that converts between

- the RFC 4291 presentation forms (full, compressed with ``::``, and with
  an embedded dotted-quad IPv4 suffix),
- the 128-bit integer form, and
- the paper's fixed-width 32-nybble form (Fig. 3).

The implementation is written from scratch (no :mod:`ipaddress` import) so
the repository is a complete substrate; the test-suite cross-validates it
against the standard library.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

#: Number of 4-bit nybbles (hex characters) in an IPv6 address.
NYBBLES_PER_ADDRESS = 32

#: Number of bits in an IPv6 address.
BITS_PER_ADDRESS = 128

_HEX_DIGITS = frozenset("0123456789abcdef")

_MAX_VALUE = (1 << BITS_PER_ADDRESS) - 1


class AddressParseError(ValueError):
    """Raised when a string cannot be parsed as an IPv6 address."""


def _parse_ipv4_suffix(text: str) -> Tuple[int, int]:
    """Parse a dotted-quad IPv4 suffix into two 16-bit hextet values.

    RFC 4291 allows the last 32 bits of an IPv6 address to be written in
    IPv4 dotted-quad notation, e.g. ``::ffff:192.0.2.1``.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressParseError(f"invalid IPv4 suffix: {text!r}")
    octets = []
    for part in parts:
        # ``str.isdigit`` alone also passes non-ASCII (e.g. fullwidth) digits.
        if not (part.isascii() and part.isdigit()) or (
            len(part) > 1 and part[0] == "0"
        ):
            raise AddressParseError(f"invalid IPv4 octet: {part!r}")
        value = int(part)
        if value > 255:
            raise AddressParseError(f"IPv4 octet out of range: {part!r}")
        octets.append(value)
    return (octets[0] << 8) | octets[1], (octets[2] << 8) | octets[3]


def _parse_hextet(text: str) -> int:
    """Parse one 16-bit colon-separated group."""
    if not 1 <= len(text) <= 4:
        raise AddressParseError(f"invalid hextet: {text!r}")
    lowered = text.lower()
    if not set(lowered) <= _HEX_DIGITS:
        raise AddressParseError(f"invalid hextet: {text!r}")
    return int(lowered, 16)


def parse_ipv6(text: str) -> int:
    """Parse an RFC 4291 presentation-form IPv6 address into an integer.

    Supports the full form, ``::`` compression, and an embedded IPv4
    dotted-quad suffix.  Raises :class:`AddressParseError` on malformed
    input.
    """
    if not isinstance(text, str):
        raise AddressParseError(f"expected str, got {type(text).__name__}")
    text = text.strip()
    if "%" in text:  # strip zone index, e.g. fe80::1%eth0
        text = text.split("%", 1)[0]
    if not text:
        raise AddressParseError("empty address")
    if text.count("::") > 1:
        raise AddressParseError(f"multiple '::' in {text!r}")

    if "::" in text:
        head_text, tail_text = text.split("::", 1)
        head_parts = head_text.split(":") if head_text else []
        tail_parts = tail_text.split(":") if tail_text else []
    else:
        head_parts = text.split(":")
        tail_parts = None

    def expand(parts: List[str]) -> List[int]:
        hextets: List[int] = []
        for index, part in enumerate(parts):
            if "." in part:
                if index != len(parts) - 1:
                    raise AddressParseError(
                        f"IPv4 suffix not in last position: {text!r}"
                    )
                hextets.extend(_parse_ipv4_suffix(part))
            else:
                hextets.append(_parse_hextet(part))
        return hextets

    head = expand(head_parts)
    if tail_parts is None:
        if len(head) != 8:
            raise AddressParseError(f"expected 8 groups in {text!r}")
        hextets = head
    else:
        tail = expand(tail_parts)
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise AddressParseError(f"'::' expands to nothing in {text!r}")
        hextets = head + [0] * missing + tail

    value = 0
    for hextet in hextets:
        value = (value << 16) | hextet
    return value


def parse_hex32(text: str) -> int:
    """Parse the paper's fixed-width 32-hex-character form (Fig. 3)."""
    if len(text) != NYBBLES_PER_ADDRESS:
        raise AddressParseError(
            f"expected {NYBBLES_PER_ADDRESS} hex chars, got {len(text)}"
        )
    lowered = text.lower()
    if not set(lowered) <= _HEX_DIGITS:
        raise AddressParseError(f"invalid hex string: {text!r}")
    return int(lowered, 16)


class IPv6Address:
    """An immutable 128-bit IPv6 address.

    Internally stored as a Python integer; cheap to hash, compare, and
    slice into nybbles.

    >>> addr = IPv6Address("2001:db8::1")
    >>> addr.hex32()
    '20010db8000000000000000000000001'
    >>> addr.nybble(1), addr.nybble(32)
    (2, 1)
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[int, str, "IPv6Address"]):
        if isinstance(value, IPv6Address):
            self._value = value._value
            return
        if isinstance(value, int):
            if not 0 <= value <= _MAX_VALUE:
                raise AddressParseError(f"integer out of range: {value}")
            self._value = value
            return
        if isinstance(value, str):
            stripped = value.strip().lower()
            if ":" in stripped:
                self._value = parse_ipv6(stripped)
            elif len(stripped) == NYBBLES_PER_ADDRESS:
                self._value = parse_hex32(stripped)
            else:
                raise AddressParseError(f"unrecognized address form: {value!r}")
            return
        raise AddressParseError(f"cannot build address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as a 128-bit integer."""
        return self._value

    def hex32(self) -> str:
        """The fixed-width 32-nybble form used throughout the paper."""
        return format(self._value, "032x")

    def nybble(self, position: int) -> int:
        """Value of the 1-indexed nybble ``position`` (1..32), as in §4.1."""
        if not 1 <= position <= NYBBLES_PER_ADDRESS:
            raise IndexError(f"nybble position out of range: {position}")
        shift = 4 * (NYBBLES_PER_ADDRESS - position)
        return (self._value >> shift) & 0xF

    def nybbles(self) -> Tuple[int, ...]:
        """All 32 nybble values, most significant first."""
        return tuple(
            (self._value >> (4 * (NYBBLES_PER_ADDRESS - 1 - i))) & 0xF
            for i in range(NYBBLES_PER_ADDRESS)
        )

    def bits(self, start: int, stop: int) -> int:
        """Integer value of bit positions ``start`` (inclusive, 0-based,
        MSB-first) through ``stop`` (exclusive)."""
        if not 0 <= start < stop <= BITS_PER_ADDRESS:
            raise IndexError(f"bit range out of bounds: [{start}, {stop})")
        width = stop - start
        shift = BITS_PER_ADDRESS - stop
        return (self._value >> shift) & ((1 << width) - 1)

    def hextets(self) -> Tuple[int, ...]:
        """The eight 16-bit groups, most significant first."""
        return tuple((self._value >> (16 * (7 - i))) & 0xFFFF for i in range(8))

    def exploded(self) -> str:
        """Full presentation form, e.g. ``2001:0db8:0000:...:0001``."""
        return ":".join(format(h, "04x") for h in self.hextets())

    def compressed(self) -> str:
        """RFC 5952 canonical compressed form (longest zero run → ``::``)."""
        hextets = self.hextets()
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, hextet in enumerate(hextets):
            if hextet == 0:
                if run_start < 0:
                    run_start, run_len = i, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        parts = [format(h, "x") for h in hextets]
        if best_len < 2:  # RFC 5952: never compress a single zero group
            return ":".join(parts)
        head = ":".join(parts[:best_start])
        tail = ":".join(parts[best_start + best_len:])
        return f"{head}::{tail}"

    def interface_identifier(self) -> int:
        """The bottom 64 bits (the ostensible IID, RFC 4291)."""
        return self._value & ((1 << 64) - 1)

    def network_identifier(self) -> int:
        """The top 64 bits."""
        return self._value >> 64

    def truncate(self, prefix_bits: int) -> "IPv6Address":
        """Zero all bits past ``prefix_bits`` (keep the network part)."""
        if not 0 <= prefix_bits <= BITS_PER_ADDRESS:
            raise IndexError(f"prefix length out of range: {prefix_bits}")
        if prefix_bits == 0:
            return IPv6Address(0)
        mask = ((1 << prefix_bits) - 1) << (BITS_PER_ADDRESS - prefix_bits)
        return IPv6Address(self._value & mask)

    def replace_bits(self, start: int, stop: int, value: int) -> "IPv6Address":
        """Return a copy with bits [start, stop) replaced by ``value``."""
        if not 0 <= start < stop <= BITS_PER_ADDRESS:
            raise IndexError(f"bit range out of bounds: [{start}, {stop})")
        width = stop - start
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        shift = BITS_PER_ADDRESS - stop
        mask = ((1 << width) - 1) << shift
        return IPv6Address((self._value & ~mask) | (value << shift))

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv6Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other: "IPv6Address") -> bool:
        if isinstance(other, IPv6Address):
            return self._value < other._value
        return NotImplemented

    def __le__(self, other: "IPv6Address") -> bool:
        if isinstance(other, IPv6Address):
            return self._value <= other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"IPv6Address({self.compressed()!r})"

    def __str__(self) -> str:
        return self.compressed()


def addresses_from_text(lines: Iterable[str]) -> Iterator[IPv6Address]:
    """Parse addresses from an iterable of text lines.

    Blank lines and ``#`` comments are skipped; each remaining line must be
    one address in any supported form.
    """
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield IPv6Address(stripped)
