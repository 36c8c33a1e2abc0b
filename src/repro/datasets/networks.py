"""Synthetic models of the paper's 15 evaluated networks (+ Fig. 1's).

Each builder returns a :class:`SyntheticNetwork` whose address scheme
reproduces the structural phenomena the paper reports for that dataset:

========  ==========================================================
S1        web hoster: two /32s (64/36%), four addressing variants
          selected by bits 32-40, pseudo-random IIDs for the main
          variant, embedded IPv4 for the 07/05 variant (§5.2, Table 3)
S2        CDN using DNS + unicast: many distributed prefixes (§5.2)
S3        CDN using anycast: one /96 worldwide, dense host space
          (§5.2 — the 43% scanning success case)
S4        cloud provider: structure in bits 32-48, hosts discriminated
          only by the last 32 bits (§5.2)
S5        large web company: service type in the last 2-4 nybbles,
          deployed across many /64s (§5.2)
R1        carrier: prefixes discriminate in bits 28-64, IIDs are
          zeros ending in ::1 / ::2 (point-to-point links, §5.3)
R2        carrier: same ::1/::2 pattern, different prefix plan (§5.3)
R3        carrier: predictable zero-dominated pattern in bits 48-116,
          last 12 bits pseudo-random (§5.3)
R4        carrier: IID encodes a literal IPv4 address in base-10
          octets across 16-bit words (§5.3)
R5        carrier: discrimination mostly in bits 52-64 (§5.3)
C1        mobile ISP: 47% of IIDs follow the "Android" pattern
          (D = 00000, F = 01, statistically dependent; §5.4, Fig. 10)
C2-C5     wired/mobile ISPs: structured /64s + pseudo-random privacy
          IIDs; /64 predictability ranges ~1% to 20% (§5.6, Table 6)
JP        the Fig. 1 Japanese telco client set (one /40, segment J
          equal to zeros at 60%, dependent on C and H)
========  ==========================================================

The absolute hit rates of Tables 4-6 depend on population densities we
cannot observe; the densities below are tuned so the *ordering* of the
paper's results is preserved (S3 easiest, S1 hopeless, routers produce
new /64s, C5 most predictable prefixes, ...).  EXPERIMENTS.md records
paper-vs-measured numbers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.datasets import parts
from repro.datasets.schema import AddressScheme, Field
from repro.ipv6.sets import AddressSet


@dataclass(frozen=True)
class SyntheticNetwork:
    """A named synthetic network: scheme + population + responder rates."""

    name: str
    category: str  # "server" | "router" | "client"
    description: str
    scheme: AddressScheme
    population_size: int
    #: Fraction of the population answering ICMPv6 echo (simulated).
    ping_rate: float = 0.8
    #: Fraction of the population with reverse-DNS records (simulated).
    rdns_rate: float = 0.3

    def population(self, seed: int = 0) -> AddressSet:
        """The network's deployed addresses (deterministic per seed).

        The per-network key must come from a *stable* string hash:
        built-in ``hash()`` on strings is randomized per process
        (PYTHONHASHSEED), which silently made every population — and
        thus every downstream scan count — differ between runs of the
        "same" seed.
        """
        name_key = zlib.crc32(self.name.encode("utf-8")) & 0xFFFF
        rng = np.random.default_rng(name_key ^ seed)
        return self.scheme.generate_set(self.population_size, rng, unique=True)

    def sample(self, n: int, seed: int = 0) -> AddressSet:
        """An n-address observation sample (what a CDN/DNS would glean)."""
        population = self.population(seed)
        rng = np.random.default_rng(seed + 1)
        return population.sample(min(n, len(population)), rng)


# ----------------------------------------------------------------------
# servers
# ----------------------------------------------------------------------


def build_s1(population_size: int = 60_000) -> SyntheticNetwork:
    """S1: web hoster, two /32s, four addressing variants (§5.2)."""
    variant = "s1_variant"
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.weighted(
                [0x2A011450, 0x2A03C0F0], [0.635, 0.365]
            )),
            # B (bits 32-40) selects one of four addressing variants.
            Field("B", 2, parts.select(variant, [
                (0.778, "v1", parts.constant(0x10)),
                (0.1542, "v2", parts.constant(0x08)),
                (0.0505, "v2", parts.constant(0x09)),
                (0.0070, "v3", parts.constant(0x07)),
                (0.0047, "v3", parts.constant(0x05)),
                (0.0055, "v4", parts.constant(0x00)),
            ])),
            # C (bits 40-48): popular points plus dense ranges (Fig. 4).
            Field("C", 2, parts.mixture([
                (0.67, parts.constant(0x00)),
                (0.11, parts.constant(0x01)),
                (0.012, parts.weighted([0xC2, 0xFE, 0xFF], [1, 1, 1])),
                (0.12, parts.uniform_range(0x02, 0x5B)),
                (0.088, parts.uniform_range(0x5C, 0xFD)),
            ])),
            Field("D", 1, parts.weighted(
                list(range(16)),
                [10.1, 8.9, 9.05, 5, 9.11, 9.24, 5, 5, 5, 5, 5, 5, 5, 5, 4, 4.6],
            )),
            Field("E", 1, parts.weighted(
                list(range(16)),
                [69.7, 5.4, 4.7, 3.8, 1.5, 2.2, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.3, 1.1, 1.1, 1.2],
            )),
            Field("F", 2, parts.mixture([
                (0.142, parts.constant(0x00)),
                (0.0065, parts.constant(0x53)),
                (0.8515, parts.uniform_range(0x01, 0xFF)),
            ])),
            # G (bits 56-116): the variant-dependent heart of S1.
            Field("G", 13, parts.switch(variant, {
                # v1: essentially pseudo-random (the reason S1 resists
                # scanning, §5.5).
                "v1": parts.uniform(13),
                # v2: structured, low-entropy values.
                "v2": parts.mixture([
                    (0.35, parts.constant(0)),
                    (0.65, parts.pool(40, 13, seed=11, high=0xFFFF)),
                ]),
                # v3: literal IPv4 in base-10 digits (Table 3's G2-G10).
                "v3": _s1_ipv4_digits_sampler(),
                # v4: a small static pool.
                "v4": parts.pool(12, 13, seed=13, high=0xFFF),
            })),
            Field("H", 1, parts.weighted(
                [0, 8] + list(range(1, 8)) + list(range(9, 16)),
                [49.5, 37.3] + [0.94] * 14,
            )),
            Field("I", 1, parts.weighted(
                list(range(16)),
                [51.6, 19.9, 9.6, 4.5, 2.4] + [1.09] * 11,
            )),
            Field("J", 1, parts.weighted(
                list(range(16)),
                [16.4, 8.2, 7.7, 6.9, 6.5] + [4.93] * 11,
            )),
        ]
    )
    return SyntheticNetwork(
        name="S1",
        category="server",
        description="web hosting company: two /32s, four variants, "
        "pseudo-random IIDs dominate",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.7,
        rdns_rate=0.5,
    )


def _s1_ipv4_digits_sampler():
    """IPv4 written as decimal digits inside the 13-nybble G segment."""

    def sample(rng: np.random.Generator, context: Dict) -> int:
        octets = (
            # What rng.choice([10, 100, 127]) draws, on the same stream,
            # without its per-call validation.
            (10, 100, 127)[int(rng.integers(0, 3))],
            int(rng.integers(0, 256)),
            int(rng.integers(0, 256)),
            int(rng.integers(0, 200)),
        )
        digits = "0{:03d}{:03d}{:03d}{:03d}".format(*octets)
        return int(digits, 16)

    return sample


def build_s2(population_size: int = 50_000) -> SyntheticNetwork:
    """S2: CDN with DNS + IP unicast: many distributed prefixes (§5.2)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A02E180)),
            # Many globally distributed /48s with heavy hitters.
            Field("site", 4, parts.zipf_pool(800, 4, seed=21, exponent=1.15)),
            Field("zero", 4, parts.constant(0)),
            Field("mid", 8, parts.constant(0)),
            # Dense but partially-occupied host space.
            Field("host", 8, parts.mixture([
                (0.65, parts.uniform_range(0x0001, 0x03FF)),
                (0.35, parts.uniform_range(0x1000, 0x2FFF)),
            ])),
        ]
    )
    return SyntheticNetwork(
        name="S2",
        category="server",
        description="CDN (DNS + unicast): many distributed prefixes",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.85,
        rdns_rate=0.1,
    )


def build_s3(population_size: int = 150_000) -> SyntheticNetwork:
    """S3: anycast CDN: one /96 worldwide, dense hosts (§5.2)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A04F280)),
            Field("net96", 16, parts.constant(0x0000000000000001)),
            # Hosts dense in a 19-bit space → high scanning success.
            Field("host", 8, parts.uniform_range(0x00000, 0x7FFFF)),
        ]
    )
    return SyntheticNetwork(
        name="S3",
        category="server",
        description="CDN (anycast): a single /96, dense host space",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.95,
        rdns_rate=0.0,
    )


def build_s4(population_size: int = 30_000) -> SyntheticNetwork:
    """S4: cloud provider: simple structure in 32-48, last 32 bits (§5.2)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A05D010)),
            Field("region", 4, parts.zipf_pool(24, 4, seed=41)),
            Field("zero", 12, parts.constant(0)),
            Field("host", 8, parts.sequential_low(1 << 22)),
        ]
    )
    return SyntheticNetwork(
        name="S4",
        category="server",
        description="cloud provider: only the last 32 bits discriminate",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.6,
        rdns_rate=0.05,
    )


def build_s5(population_size: int = 60_000) -> SyntheticNetwork:
    """S5: large web company: service type in last nybbles (§5.2)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A00B4C0)),
            # Many /64s drawn from a dense-ish block.
            Field("subnet", 8, parts.mixture([
                (0.7, parts.uniform_range(0x10000000, 0x1000FFFF)),
                (0.3, parts.uniform_range(0x20000000, 0x20007FFF)),
            ])),
            Field("zero", 12, parts.constant(0)),
            # The last 2-4 nybbles identify the service / content type.
            Field("service", 4, parts.zipf_pool(24, 4, seed=51, exponent=1.1)),
        ]
    )
    return SyntheticNetwork(
        name="S5",
        category="server",
        description="web company: service type encoded in last nybbles "
        "across many /64s",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.9,
        rdns_rate=0.6,
    )


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------


def build_r1(population_size: int = 30_000) -> SyntheticNetwork:
    """R1: carrier, prefixes in bits 28-64, IIDs ::1/::2 (§5.3)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A010C80)),
            Field("pop", 4, parts.zipf_pool(150, 4, seed=61, exponent=1.05)),
            Field("link", 4, parts.uniform_range(0x000, 0xFFF)),
            Field("zero", 15, parts.constant(0)),
            Field("iid", 1, parts.point_to_point_iid((1, 2), (0.55, 0.45))),
        ]
    )
    return SyntheticNetwork(
        name="R1",
        category="router",
        description="global carrier: point-to-point ::1/::2 IIDs",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.9,
        rdns_rate=0.7,
    )


def build_r2(population_size: int = 20_000) -> SyntheticNetwork:
    """R2: carrier with the R1 pattern but a sparser prefix plan (§5.3)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A02A9E0)),
            Field("pop", 6, parts.zipf_pool(300, 6, seed=71, exponent=0.9)),
            Field("link", 2, parts.uniform_range(0x00, 0x7F)),
            Field("zero", 15, parts.constant(0)),
            Field("iid", 1, parts.point_to_point_iid((1, 2), (0.6, 0.4))),
        ]
    )
    return SyntheticNetwork(
        name="R2",
        category="router",
        description="carrier: ::1/::2 IIDs, sparser prefix plan",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.85,
        rdns_rate=0.2,
    )


def build_r3(population_size: int = 20_000) -> SyntheticNetwork:
    """R3: zero-dominated bits 48-116, last 12 bits pseudo-random (§5.3)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A0301F0)),
            Field("pop", 4, parts.zipf_pool(600, 4, seed=81, exponent=1.0)),
            Field("zero", 17, parts.constant(0)),
            Field("tail", 3, parts.uniform(3)),
        ]
    )
    return SyntheticNetwork(
        name="R3",
        category="router",
        description="carrier: zero-dominated pattern, 12 random tail bits",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.8,
        rdns_rate=0.8,
    )


def build_r4(population_size: int = 15_000) -> SyntheticNetwork:
    """R4: IID encodes literal IPv4 in base-10 words (§5.3)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A058F00)),
            Field("pop", 4, parts.pool(40, 4, seed=91, high=0x3FF)),
            Field("zero", 4, parts.constant(0)),
            Field("iid", 16, parts.ipv4_decimal_words_iid(
                (10,), second_max=0, third_max=31,
            )),
        ]
    )
    return SyntheticNetwork(
        name="R4",
        category="router",
        description="carrier: IPv4 literals as base-10 octets in the IID",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.9,
        rdns_rate=0.6,
    )


def build_r5(population_size: int = 3_000) -> SyntheticNetwork:
    """R5: discrimination mostly in bits 52-64 (§5.3)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A07B600)),
            Field("zero", 5, parts.constant(0)),
            Field("area", 3, parts.uniform_range(0x000, 0xDFF)),
            Field("zero2", 14, parts.constant(0)),
            Field("iid", 2, parts.mixture([
                (0.35, parts.point_to_point_iid((1, 2), (0.5, 0.5))),
                (0.65, parts.uniform_range(0x00, 0xFE)),
            ])),
        ]
    )
    return SyntheticNetwork(
        name="R5",
        category="router",
        description="carrier: discriminates in bits 52-64, predictable "
        "bottom bits",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.75,
        rdns_rate=0.3,
    )


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------


def _privacy_iid_high(nybbles: int, clear_bit: Optional[int] = None):
    """Uniform field with one optional forced-zero bit (u-bit handling)."""
    cardinality = 16 ** nybbles

    def sample(rng: np.random.Generator, context: Dict) -> int:
        value = int(rng.integers(0, cardinality))
        if clear_bit is not None:
            value &= ~(1 << clear_bit)
        return value

    return sample


def build_c1(population_size: int = 120_000) -> SyntheticNetwork:
    """C1: mobile ISP with the Android IID pattern (§5.4, Fig. 10).

    47% of addresses: D (bits 64-84) = 00000, E's first nybble = 0,
    F (bits 120-128) = 01 — all jointly, so D, E and F are statistically
    dependent exactly as the BN in Fig. 10(b) discovers.  The remaining
    53% use pseudo-random privacy IIDs.
    """
    pattern = "c1_android"
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A009E40)),
            # B and C (bits 32-64) discriminate prefixes from dense
            # gateway pools; B takes only lower values (§5.4).  The
            # pool sizes set the /64 density that Table 6's C1 row
            # (5.4% prediction success) depends on.
            Field("B", 4, parts.uniform_range(0x0000, 0x08FF)),
            Field("C", 4, parts.uniform_range(0x0000, 0x03FF)),
            # D (bits 64-84, 5 nybbles, contains the u-bit at bit 70 =
            # D's bit 13).
            Field("D", 5, parts.select(pattern, [
                (0.47, "android", parts.constant(0x00000)),
                (0.53, "privacy", _privacy_iid_high(5, clear_bit=13)),
            ])),
            # E (bits 84-120): android → first nybble 0; privacy → random.
            Field("E", 9, parts.switch(pattern, {
                "android": parts.uniform_range(0, 16 ** 8 - 1),
                "privacy": parts.uniform(9),
            })),
            # F (bits 120-128): android → the 01 suffix.
            Field("F", 2, parts.switch(pattern, {
                "android": parts.constant(0x01),
                "privacy": parts.uniform(2),
            })),
        ]
    )
    return SyntheticNetwork(
        name="C1",
        category="client",
        description="mobile ISP: 47% Android ...01 IID pattern, rest "
        "privacy addresses",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,  # clients do not answer unsolicited pings
        rdns_rate=0.0,
    )


def build_c2(population_size: int = 80_000) -> SyntheticNetwork:
    """C2: mobile ISP, sparse /64 plan (hard to predict, Table 6: 1.1%)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A02F7C0)),
            Field("net", 8, parts.pool(40_000, 8, seed=102, high=0x00FFFFFF)),
            # No SLAAC u-bit dip: mobile gateways hand out full-random
            # IIDs (the paper notes C2 lacks the 68-72 dip).
            Field("iid", 16, parts.uniform(16)),
        ]
    )
    return SyntheticNetwork(
        name="C2",
        category="client",
        description="mobile ISP: sparse /64 plan, full-random IIDs",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,
        rdns_rate=0.0,
    )


def build_c3(population_size: int = 80_000) -> SyntheticNetwork:
    """C3: wired ISP, very sparse static /64 plan (Table 6: 0.83%)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A0005C0)),
            Field("net", 8, parts.pool(60_000, 8, seed=103, high=0x0FFFFFFF)),
            Field("iid", 16, parts.privacy_iid()),
        ]
    )
    return SyntheticNetwork(
        name="C3",
        category="client",
        description="wired ISP: sparse static /64s, privacy IIDs",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,
        rdns_rate=0.0,
    )


def build_c4(population_size: int = 100_000) -> SyntheticNetwork:
    """C4: wired ISP, moderately dense /64 pools (Table 6: 12%)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A028840)),
            Field("net", 8, parts.mixture([
                (0.7, parts.uniform_range(0x00100000, 0x0017FFFF)),
                (0.3, parts.uniform_range(0x01000000, 0x0103FFFF)),
            ])),
            Field("iid", 16, parts.privacy_iid()),
        ]
    )
    return SyntheticNetwork(
        name="C4",
        category="client",
        description="wired ISP: dynamic /64 pools with dense blocks",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,
        rdns_rate=0.0,
    )


def build_c5(population_size: int = 120_000) -> SyntheticNetwork:
    """C5: wired ISP, dense /64 blocks (Table 6: 20%, the easiest)."""
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x2A01E340)),
            Field("net", 8, parts.uniform_range(0x00040000, 0x0008FFFF)),
            Field("iid", 16, parts.privacy_iid()),
        ]
    )
    return SyntheticNetwork(
        name="C5",
        category="client",
        description="wired ISP: dense dynamic /64 blocks",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,
        rdns_rate=0.0,
    )


def build_japanese_telco(population_size: int = 24_000) -> SyntheticNetwork:
    """The Fig. 1 running example: a Japanese telco's client /40.

    Segment J (bits ~64-108) equals a string of zeros for 60% of the
    addresses; that choice is correlated with segment C (= 10) and H
    (= 0), which is exactly the dependency structure Fig. 2 / Table 2
    analyze.
    """
    plan = "jp_plan"
    scheme = AddressScheme(
        [
            Field("plen32", 8, parts.constant(0x24047A00)),
            Field("B", 2, parts.constant(0x00)),
            Field("C", 2, parts.select(plan, [
                (0.60, "static", parts.constant(0x10)),
                (0.40, "dynamic", parts.weighted(
                    [0x22, 0x20, 0x21], [0.4, 0.35, 0.25]
                )),
            ])),
            Field("D", 1, parts.weighted(
                [0, 1, 3, 2, 4, 5, 7, 0xD], [25, 20, 15, 12, 10, 8, 6, 4]
            )),
            Field("E", 1, parts.weighted(
                [0, 1, 6, 2, 5, 3, 0xD], [30, 20, 14, 12, 10, 8, 6]
            )),
            Field("F", 1, parts.switch(plan, {
                "static": parts.weighted([3, 5, 4, 8, 0, 0xF], [30, 25, 20, 12, 8, 5]),
                "dynamic": parts.weighted([0, 1, 0xD, 9, 5, 2, 0xF], [25, 20, 15, 12, 10, 10, 8]),
            })),
            Field("G", 1, parts.weighted(
                [0, 8, 1, 5, 9, 2, 0xF], [30, 20, 15, 12, 10, 8, 5]
            )),
            Field("H", 1, parts.switch(plan, {
                "static": parts.constant(0),
                "dynamic": parts.weighted([8, 1, 5, 9, 2, 0xF], [40, 15, 15, 12, 10, 8]),
            })),
            Field("I", 1, parts.switch(plan, {
                "static": parts.constant(0),
                "dynamic": parts.uniform(1),
            })),
            Field("J", 11, parts.switch(plan, {
                "static": parts.constant(0),
                "dynamic": parts.uniform(11),
            })),
            # K renders as the flat 000-fff range of Fig. 1(b).
            Field("K", 3, parts.uniform_range(0x000, 0xFFF)),
        ]
    )
    return SyntheticNetwork(
        name="JP",
        category="client",
        description="Japanese telco /40 (Fig. 1): J=zeros at 60%, "
        "dependent on C and H",
        scheme=scheme,
        population_size=population_size,
        ping_rate=0.0,
        rdns_rate=0.0,
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[], SyntheticNetwork]] = {
    "S1": build_s1,
    "S2": build_s2,
    "S3": build_s3,
    "S4": build_s4,
    "S5": build_s5,
    "R1": build_r1,
    "R2": build_r2,
    "R3": build_r3,
    "R4": build_r4,
    "R5": build_r5,
    "C1": build_c1,
    "C2": build_c2,
    "C3": build_c3,
    "C4": build_c4,
    "C5": build_c5,
    "JP": build_japanese_telco,
}


def build_network(name: str) -> SyntheticNetwork:
    """Build a named network model (S1-S5, R1-R5, C1-C5, JP)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown network {name!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[name]()


def all_networks() -> List[SyntheticNetwork]:
    """All 16 network models."""
    return [build_network(name) for name in _BUILDERS]


def server_networks() -> List[SyntheticNetwork]:
    """S1-S5."""
    return [build_network(f"S{i}") for i in range(1, 6)]


def router_networks() -> List[SyntheticNetwork]:
    """R1-R5."""
    return [build_network(f"R{i}") for i in range(1, 6)]


def client_networks() -> List[SyntheticNetwork]:
    """C1-C5."""
    return [build_network(f"C{i}") for i in range(1, 6)]
