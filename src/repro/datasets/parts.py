"""Sampler building blocks for synthetic address schemes.

Each helper returns a :data:`repro.datasets.schema.Sampler` — a callable
``(rng, context) -> int`` — covering the addressing practices the paper
observes in the wild: constants, weighted pools, dense ranges, sequential
low-byte assignment, Modified EUI-64 from vendor MAC pools, RFC 4941
privacy IIDs, and the two styles of embedded IPv4 (§5.2, §5.3).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.datasets.schema import Sampler
from repro.ipv6.eui64 import U_BIT, iid_from_ipv4_decimal_words, iid_from_mac


def _cdf(weights) -> np.ndarray:
    """The normalized CDF ``Generator.choice(p=)`` rebuilds on every call.

    ``cdf.searchsorted(rng.random(), side="right")`` then draws the
    same index from the same single uniform as
    ``rng.choice(len(weights), p=weights / weights.sum())``, minus the
    per-call validation, which runs here once: populations stay
    byte-identical (``test_population_pinned`` in tests/datasets).
    """
    probabilities = np.asarray(weights, dtype=np.float64)
    if not (
        len(probabilities)
        and np.isfinite(probabilities).all()
        and (probabilities >= 0).all()
        and probabilities.sum() > 0
    ):
        raise ValueError("weights must be finite, non-negative, not all 0")
    probabilities = probabilities / probabilities.sum()
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def constant(value: int) -> Sampler:
    """Always the same value (zero-entropy field)."""

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return value

    return sample


def uniform(nybbles: int) -> Sampler:
    """Uniformly random over the field's full range."""
    bits = 4 * nybbles

    def sample(rng: np.random.Generator, context: Dict) -> int:
        # Compose from 32-bit halves: 16-nybble fields need the full
        # 64-bit range, which overflows numpy's int64 bounds check.
        value = 0
        remaining = bits
        while remaining > 0:
            chunk = min(32, remaining)
            value = (value << chunk) | int(rng.integers(0, 1 << chunk))
            remaining -= chunk
        return value

    return sample


def uniform_range(low: int, high: int) -> Sampler:
    """Uniform over the closed range [low, high] (a dense block)."""
    if low > high:
        raise ValueError("low must be <= high")

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(rng.integers(low, high, endpoint=True))

    return sample


def weighted(values: Sequence[int], weights: Sequence[float]) -> Sampler:
    """Weighted choice from a fixed pool (popular values, Table 3 style)."""
    array = np.asarray(values, dtype=np.uint64)
    if len(array) != len(weights):
        raise ValueError("values and weights must have equal length")
    cdf = _cdf(weights)

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(array[cdf.searchsorted(rng.random(), side="right")])

    return sample


def pool(size: int, nybbles: int, seed: int, low: int = 0, high: int = None) -> Sampler:
    """Uniform choice from a *fixed random pool* of ``size`` values.

    Models operators that deployed a finite, arbitrary set of
    discriminators (subnets, service ids).  The pool itself is derived
    deterministically from ``seed`` so populations are reproducible.
    """
    cardinality = 16 ** nybbles
    if high is None:
        high = cardinality - 1
    pool_rng = np.random.default_rng(seed)
    values = pool_rng.integers(low, high, size=size, endpoint=True, dtype=np.uint64)

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(values[rng.integers(0, len(values))])

    return sample


def zipf_pool(size: int, nybbles: int, seed: int, exponent: float = 1.3) -> Sampler:
    """Fixed pool with Zipf-distributed popularity (heavy-hitter values)."""
    cardinality = 16 ** nybbles
    pool_rng = np.random.default_rng(seed)
    values = pool_rng.integers(0, cardinality, size=size, dtype=np.uint64)
    cdf = _cdf(np.arange(1, size + 1, dtype=np.float64) ** (-exponent))

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(values[cdf.searchsorted(rng.random(), side="right")])

    return sample


def sequential_low(limit: int) -> Sampler:
    """Low assignment counter: mostly-small values (static server IDs).

    Draws geometric-ish small integers below ``limit``, reproducing the
    "steady increase in entropy from bit 80 to 128" of server addressing
    (Fig. 6): low-order nybbles vary, high-order ones rarely do.
    """

    def sample(rng: np.random.Generator, context: Dict) -> int:
        # Mixture of scales: most values tiny, a tail up to limit.
        magnitude = rng.random()
        if magnitude < 0.5:
            bound = min(16, limit)
        elif magnitude < 0.85:
            bound = min(256, limit)
        else:
            bound = limit
        return int(rng.integers(0, bound))

    return sample


def select(key: str, options: Sequence[Tuple[float, object, Sampler]]) -> Sampler:
    """Draw a variant tag AND this field's value.

    ``options`` are (weight, tag, sampler) triples; the drawn tag lands
    in ``context[key]`` so later fields can :func:`switch` on it.
    """
    cdf = _cdf([w for w, _, _ in options])
    tags = [t for _, t, _ in options]
    samplers = [s for _, _, s in options]

    def sample(rng: np.random.Generator, context: Dict) -> int:
        index = int(cdf.searchsorted(rng.random(), side="right"))
        context[key] = tags[index]
        return int(samplers[index](rng, context))

    return sample


def switch(key: str, cases: Dict[object, Sampler]) -> Sampler:
    """Dispatch on a tag previously stored by :func:`select`."""

    def sample(rng: np.random.Generator, context: Dict) -> int:
        tag_value = context.get(key)
        if tag_value not in cases:
            raise KeyError(
                f"context[{key!r}] = {tag_value!r} has no case"
            )
        return int(cases[tag_value](rng, context))

    return sample


def mixture(options: Sequence[Tuple[float, Sampler]]) -> Sampler:
    """Weighted mixture of samplers (no tag recorded)."""
    cdf = _cdf([w for w, _ in options])
    samplers = [s for _, s in options]

    def sample(rng: np.random.Generator, context: Dict) -> int:
        index = int(cdf.searchsorted(rng.random(), side="right"))
        return int(samplers[index](rng, context))

    return sample


def copy_field(name: str) -> Sampler:
    """Repeat the value another field already drew."""

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(context[name])  # type: ignore[arg-type]

    return sample


# ----------------------------------------------------------------------
# 64-bit interface-identifier samplers (16-nybble fields)
# ----------------------------------------------------------------------


def privacy_iid() -> Sampler:
    """RFC 4941 temporary IID: 64 random bits with the u-bit forced to 0.

    The fixed u-bit is what causes the entropy ~0.75 (not 1.0) of address
    bits 68-72 that Fig. 6 discusses.
    """

    mask = ~U_BIT & 0xFFFFFFFFFFFFFFFF

    def sample(rng: np.random.Generator, context: Dict) -> int:
        value = (int(rng.integers(0, 1 << 32)) << 32) | int(rng.integers(0, 1 << 32))
        return value & mask

    return sample


def eui64_iid(oui_pool: Sequence[int] = None, seed: int = 0) -> Sampler:
    """Modified EUI-64 IID from a vendor OUI pool + random NIC suffix.

    Reproduces the ``ff:fe`` filler at address bits 88-104 and the
    u-bit=1 dip at bits 68-72 (Fig. 6 routers / BitTorrent clients).
    """
    if oui_pool is None:
        pool_rng = np.random.default_rng(seed)
        oui_pool = [int(v) for v in pool_rng.integers(0, 1 << 24, size=12)]
        # Clear the u/l and group bits so these look like real vendor OUIs.
        oui_pool = [v & ~0x030000 for v in oui_pool]
    ouis = list(oui_pool)

    def sample(rng: np.random.Generator, context: Dict) -> int:
        oui = ouis[int(rng.integers(0, len(ouis)))]
        nic = int(rng.integers(0, 1 << 24))
        return iid_from_mac((oui << 24) | nic)

    return sample


def point_to_point_iid(values: Sequence[int] = (1, 2), weights: Sequence[float] = None) -> Sampler:
    """Router point-to-point IIDs: a string of zeros ending in 1 or 2 (§5.3)."""
    return weighted(list(values), weights or [1.0] * len(values))


def ipv4_decimal_words_iid(
    first_octet_pool: Sequence[int] = (10, 172, 192),
    second_max: int = 255,
    third_max: int = 255,
    fourth_max: int = 255,
) -> Sampler:
    """R4-style IID: literal IPv4 written as base-10 octets per word.

    ``second_max``/``fourth_max`` bound the inner octets, modeling the
    dense internal numbering real router estates use (without it the
    IPv4 space is so sparse that no generator could rediscover it).
    """
    firsts = list(first_octet_pool)

    def sample(rng: np.random.Generator, context: Dict) -> int:
        first = firsts[int(rng.integers(0, len(firsts)))]
        second = int(rng.integers(0, second_max + 1))
        third = int(rng.integers(0, third_max + 1))
        fourth = int(rng.integers(0, fourth_max + 1))
        value = (first << 24) | (second << 16) | (third << 8) | fourth
        return iid_from_ipv4_decimal_words(value)

    return sample


def ipv4_hex_low32() -> Sampler:
    """S1-style embedded IPv4: hex octets in the low 32 bits of an 8-nybble
    field (pair with structured upper fields)."""

    def sample(rng: np.random.Generator, context: Dict) -> int:
        return int(rng.integers(0, 1 << 32))

    return sample
