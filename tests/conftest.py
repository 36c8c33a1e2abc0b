"""Shared fixtures: small, deterministic address sets and networks."""

import numpy as np
import pytest

import repro.exec.engine
from repro.datasets.networks import (
    build_japanese_telco,
    build_r1,
    build_s1,
    build_s3,
)
from repro.ipv6.sets import AddressSet


@pytest.fixture
def threaded_shards(monkeypatch):
    """Pin the engine's dispatch gate open: every shard batch, however
    small, runs on pool threads.  ``workers=N`` ≡ ``workers=1`` tests
    use it so they compare threaded shards with inline ones; at the
    real ``MIN_ROWS_PER_SHARD`` their small draws would run inline on
    both sides."""
    monkeypatch.setattr(repro.exec.engine, "MIN_ROWS_PER_SHARD", 1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_set():
    """The five Fig. 3 example addresses."""
    return AddressSet.from_strings(
        [
            "20010db840011111000000000000111c",
            "20010db840011111000000000000111f",
            "20010db840031c13000000000000200c",
            "20010db8400a2f2a000000000000200f",
            "20010db840011111000000000000111f",
        ]
    )


@pytest.fixture(scope="session")
def structured_set():
    """2K addresses with clear segment structure and a dependency.

    Layout: fixed /32 | subnet nybble s | zeros | IID: with probability
    0.6 the IID is exactly ``s`` (dependent!), else random 16 bits.
    """
    generator = np.random.default_rng(42)
    values = []
    for _ in range(2000):
        subnet = int(generator.integers(0, 8))
        if generator.random() < 0.6:
            iid = subnet
        else:
            iid = int(generator.integers(0x100, 0x10000))
        values.append((0x20010DB8 << 96) | (subnet << 64) | iid)
    return AddressSet.from_ints(values)


@pytest.fixture(scope="session")
def jp_small():
    """Japanese telco model with a small population (fast fits)."""
    return build_japanese_telco(population_size=6000)


@pytest.fixture(scope="session")
def s1_small():
    return build_s1(population_size=8000)


@pytest.fixture(scope="session")
def s3_small():
    return build_s3(population_size=20000)


@pytest.fixture(scope="session")
def r1_small():
    return build_r1(population_size=8000)
