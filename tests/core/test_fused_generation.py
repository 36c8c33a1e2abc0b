"""Bit-identity tests for the fused sample→packed generation path.

:func:`repro.bayes.sampling.sample_packed` draws BN states straight
into the packed-uint64 row layout that
:meth:`AddressEncoder.fused_plan` derives from the encoder's
``_word_plan`` — skipping the ``(n, num_vars)`` code matrix, the
``(n, width)`` nybble matrix, and the whole ``decode_to_set`` pass.
The two-step ``sample_codes`` → ``decode_to_set`` pipeline survives as
the reference, and the fusion's hard contract is bit-identity with it:
the fused path must consume the RNG stream in exactly the reference's
order (ancestral draws, then ranged-offset draws per segment) and emit
exactly :func:`~repro.ipv6.sets.pack_rows` of the rows the reference
would have built.  These tests pin that contract on the benchmark
golden models (field by field and as packed-word digests), across the
serial/sharded ``generate_set`` routes, and — via hypothesis — on
random CPD/segment layouts, including word-straddling segments where
``fused_plan()`` is None and the fused route must fall back to the
reference with identical output.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayes.cpd import CPD
from repro.bayes.network import BayesianNetwork
from repro.bayes.sampling import sample_packed
from repro.core.encoding import AddressEncoder
from repro.core.mining import MinedSegment, SegmentValue
from repro.core.model import AddressModel
from repro.core.pipeline import EntropyIP
from repro.core.segmentation import Segment
from repro.datasets.networks import build_network
from repro.ipv6.sets import unpack_rows

TRAIN_SIZE = 1000
SEED = 0


@pytest.fixture(scope="module", params=["S1", "R1"])
def fitted(request):
    train = build_network(request.param).sample(TRAIN_SIZE, seed=SEED)
    return request.param, EntropyIP.fit(train).model


def _digest(words: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(words).tobytes()).hexdigest()


class TestGoldenModels:
    """The fused path vs the two-step reference on S1/R1 at seed 0."""

    N = 50_000

    def test_packed_rows_bit_identical(self, fitted):
        name, model = fitted
        plan = model.encoder.fused_plan()
        assert plan is not None, f"{name}: golden model lost its word plan"
        rng_ref = np.random.default_rng(7)
        rng_fused = np.random.default_rng(7)
        codes = model.sample_codes(self.N, rng_ref)
        reference = model.encoder.decode_to_set(
            codes, rng_ref, validate=False
        )
        fused = sample_packed(model.network, plan, self.N, rng_fused)
        # Packed-word digests must coincide...
        assert _digest(fused) == _digest(reference.packed_rows()), name
        # ...because the rows themselves do, field by field (the
        # unpacked nybble matrix is the per-segment field view).
        assert np.array_equal(
            unpack_rows(fused, model.encoder.width), reference.matrix
        ), name

    def test_rng_stream_position_identical(self, fitted):
        """The fused path consumes exactly the reference's draws, so a
        caller interleaving other draws on the same generator sees the
        same stream afterwards."""
        name, model = fitted
        plan = model.encoder.fused_plan()
        rng_ref = np.random.default_rng(11)
        rng_fused = np.random.default_rng(11)
        codes = model.sample_codes(self.N, rng_ref)
        model.encoder.decode_to_set(codes, rng_ref, validate=False)
        sample_packed(model.network, plan, self.N, rng_fused)
        assert (
            rng_ref.bit_generator.state == rng_fused.bit_generator.state
        ), name

    def test_generate_set_fused_matches_twostep(self, fitted):
        """The full exclusion-loop route emits identical sets whether a
        batch is drawn fused or through the retained two-step path."""
        name, model = fitted
        fused = model.generate_set(
            20_000, np.random.default_rng(3), fused=True
        )
        twostep = model.generate_set(
            20_000, np.random.default_rng(3), fused=False
        )
        assert np.array_equal(fused.matrix, twostep.matrix), name

    @pytest.mark.usefixtures("threaded_shards")
    def test_workers_invariant_through_fused_route(self, fitted):
        """workers=4 ≡ workers=1 with the fused batch draw."""
        name, model = fitted
        serial = model.generate_set(
            20_000, np.random.default_rng(5), workers=1, fused=True
        )
        parallel = model.generate_set(
            20_000, np.random.default_rng(5), workers=4, fused=True
        )
        assert np.array_equal(serial.matrix, parallel.matrix), name


def _random_layout(rng: np.random.Generator):
    """A random mined-segment layout over a random address width."""
    width = int(rng.integers(4, 33))
    mined = []
    first = 1
    index = 0
    while first <= width:
        seg_width = int(rng.integers(1, min(16, width - first + 1) + 1))
        last = first + seg_width - 1
        bound = 16**seg_width - 1  # up to 2**64 - 1: draw as uint64
        values = []
        for v in range(int(rng.integers(1, 5))):
            low = int(rng.integers(0, bound, dtype=np.uint64, endpoint=True))
            if rng.random() < 0.5:
                high = low  # point value
            else:
                high = int(
                    rng.integers(low, bound, dtype=np.uint64, endpoint=True)
                )
            values.append(
                SegmentValue(f"V{index}_{v}", low, high, 1.0, "outlier")
            )
        mined.append(
            MinedSegment(Segment(f"V{index}", first, last), tuple(values))
        )
        first = last + 1
        index += 1
    return mined


def _random_network(encoder: AddressEncoder, rng: np.random.Generator):
    """Random CPDs over the encoder's variables: roots and chains."""
    names = encoder.variable_names
    cards = encoder.cardinalities
    cpds = []
    for i, (name, card) in enumerate(zip(names, cards)):
        if i and rng.random() < 0.5:
            raw = rng.random((card, cards[i - 1])) + 0.1
            cpds.append(CPD(name, [names[i - 1]], raw / raw.sum(axis=0)))
        else:
            raw = rng.random(card) + 0.1
            cpds.append(CPD(name, [], raw / raw.sum()))
    return BayesianNetwork(names, cpds)


class TestRandomLayouts:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fused_matches_reference_or_falls_back(self, seed):
        rng = np.random.default_rng(seed)
        encoder = AddressEncoder(_random_layout(rng))
        network = _random_network(encoder, rng)
        model = AddressModel(encoder, network)
        n = 256

        rng_ref = np.random.default_rng(seed + 1)
        codes = model.sample_codes(n, rng_ref)
        reference = model.encoder.decode_to_set(
            codes, rng_ref, validate=False
        )
        plan = encoder.fused_plan()
        if plan is None:
            # A segment straddles a 16-nybble word boundary: the fused
            # plan must refuse, and the fused generate_set route must
            # fall back to the reference with identical output.
            assert encoder._word_plan is None
        else:
            rng_fused = np.random.default_rng(seed + 1)
            fused = sample_packed(network, plan, n, rng_fused)
            assert np.array_equal(fused, reference.packed_rows())
            assert np.array_equal(
                unpack_rows(fused, encoder.width), reference.matrix
            )
            assert (
                rng_ref.bit_generator.state == rng_fused.bit_generator.state
            )
        fused_set = model.generate_set(
            64, np.random.default_rng(seed + 2), fused=True
        )
        twostep_set = model.generate_set(
            64, np.random.default_rng(seed + 2), fused=False
        )
        assert np.array_equal(fused_set.matrix, twostep_set.matrix)


class TestStraddlingFallback:
    def test_straddling_segment_disables_plan(self):
        """A segment crossing nybble 16/17 has no one-word home: no
        fused plan, and the fused route falls back bit-identically."""
        mined = [
            MinedSegment(
                Segment("A", 1, 14),
                (SegmentValue("A1", 0x2001, 0x2001, 1.0, "outlier"),),
            ),
            MinedSegment(
                Segment("B", 15, 18),  # straddles words 0 and 1
                (
                    SegmentValue("B1", 0, 0xFF, 0.5, "tail"),
                    SegmentValue("B2", 0x100, 0x100, 0.5, "outlier"),
                ),
            ),
            MinedSegment(
                Segment("C", 19, 20),
                (SegmentValue("C1", 0, 0xFF, 1.0, "tail"),),
            ),
        ]
        encoder = AddressEncoder(mined)
        assert encoder._word_plan is None
        assert encoder.fused_plan() is None
        rng = np.random.default_rng(0)
        network = _random_network(encoder, rng)
        model = AddressModel(encoder, network)
        fused_set = model.generate_set(
            500, np.random.default_rng(1), fused=True
        )
        twostep_set = model.generate_set(
            500, np.random.default_rng(1), fused=False
        )
        assert np.array_equal(fused_set.matrix, twostep_set.matrix)

    def test_fused_plan_is_cached(self, fitted):
        _, model = fitted
        assert model.encoder.fused_plan() is model.encoder.fused_plan()
