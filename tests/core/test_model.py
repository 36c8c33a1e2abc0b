"""Tests for the fitted AddressModel (BN over code vectors)."""

import numpy as np
import pytest

from repro.core.encoding import AddressEncoder
from repro.core.mining import mine_segments
from repro.core.model import AddressModel
from repro.core.segmentation import segment_addresses
from repro.ipv6.sets import AddressSet


@pytest.fixture(scope="module")
def fitted(structured_set):
    segments = segment_addresses(structured_set)
    encoder = AddressEncoder(mine_segments(structured_set, segments))
    return AddressModel.fit(structured_set, encoder)


class TestFit:
    def test_variables_match_segments(self, fitted):
        assert list(fitted.network.variables) == fitted.encoder.variable_names

    def test_finds_planted_dependency(self, fitted):
        # structured_set: the IID copies the subnet nybble 60% of the
        # time — some IID-side segment must depend on the subnet segment.
        edges = fitted.network.edges()
        assert edges, "expected at least one edge"

    def test_log_likelihood_finite_on_training(self, fitted, structured_set):
        assert np.isfinite(fitted.log_likelihood(structured_set))


class TestEvidence:
    def test_normalize_by_code_string(self, fitted):
        label = fitted.encoder.variable_names[0]
        resolved = fitted.normalize_evidence({label: f"{label}1"})
        assert resolved == {label: 0}

    def test_normalize_by_index(self, fitted):
        label = fitted.encoder.variable_names[0]
        assert fitted.normalize_evidence({label: 0}) == {label: 0}

    def test_unknown_code_rejected(self, fitted):
        label = fitted.encoder.variable_names[0]
        with pytest.raises(KeyError):
            fitted.normalize_evidence({label: f"{label}99"})

    def test_unknown_label_rejected(self, fitted):
        with pytest.raises(KeyError):
            fitted.normalize_evidence({"ZZ": 0})

    def test_out_of_range_index_rejected(self, fitted):
        label = fitted.encoder.variable_names[0]
        with pytest.raises(IndexError):
            fitted.normalize_evidence({label: 99})


class TestQueries:
    def test_marginals_are_distributions(self, fitted):
        for label, distribution in fitted.marginals().items():
            assert distribution.sum() == pytest.approx(1.0)
            assert np.all(distribution >= 0)

    def test_conditioning_changes_marginals(self, fitted):
        # Condition on the subnet segment's first value; the dependent
        # IID segment's distribution must change.
        child = None
        for parent, kid in fitted.network.edges():
            child = kid
            evidence_label = parent
        assert child is not None
        prior = fitted.marginals()[child]
        posterior = fitted.marginals({evidence_label: 0})[child]
        assert not np.allclose(prior, posterior)

    def test_joint_factor(self, fitted):
        labels = fitted.encoder.variable_names[:2]
        joint = fitted.joint(labels)
        assert joint.table.sum() == pytest.approx(1.0)

    def test_evidence_probability_matches_frequency(self, fitted, structured_set):
        label = fitted.encoder.variable_names[0]
        mined = fitted.encoder.mined_segments[0]
        p = fitted.evidence_probability({label: 0})
        assert p == pytest.approx(mined.values[0].frequency, abs=0.05)

    def test_conditional_probability_table(self, fitted):
        names = fitted.encoder.variable_names
        target, given = names[-1], [names[1]]
        table = fitted.conditional_probability_table(target, 0, given)
        for probability in table.values():
            assert 0 <= probability <= 1
        cards = [fitted.network.cardinality(g) for g in given]
        assert len(table) == int(np.prod(cards))


class TestGeneration:
    def test_generate_distinct(self, fitted, rng):
        values = fitted.generate(200, rng)
        assert len(values) == len(set(values)) == 200

    def test_generate_excludes(self, fitted, rng, structured_set):
        training = set(structured_set.to_ints())
        values = fitted.generate(200, rng, exclude=training)
        assert not (set(values) & training)

    def test_generate_zero(self, fitted, rng):
        assert fitted.generate(0, rng) == []

    def test_generate_negative_rejected(self, fitted, rng):
        with pytest.raises(ValueError):
            fitted.generate(-1, rng)

    def test_generate_set_width(self, fitted, rng):
        generated = fitted.generate_set(50, rng)
        assert generated.width == fitted.encoder.width
        assert len(generated) == 50

    def test_generation_respects_evidence(self, fitted, rng):
        label = fitted.encoder.variable_names[0]
        mined = fitted.encoder.mined_segments[0]
        target = mined.values[0]
        generated = fitted.generate_set(100, rng, evidence={label: 0})
        seg = mined.segment
        for value in generated.segment_values(seg.first_nybble, seg.last_nybble):
            assert target.contains(int(value))

    def test_small_support_returns_partial(self, structured_set, rng):
        # A model whose support is tiny cannot produce 10^6 distinct
        # values; generate() must return what exists rather than hang.
        constant = AddressSet.from_ints([42] * 50)
        segments = segment_addresses(constant)
        encoder = AddressEncoder(mine_segments(constant, segments))
        model = AddressModel.fit(constant, encoder)
        values = model.generate(1000, rng, max_batches=3)
        assert len(values) < 1000

    def test_generate_matches_generate_set(self, fitted):
        # The int form is a thin wrapper: same rng → same candidates.
        values = fitted.generate(300, np.random.default_rng(11))
        rows = fitted.generate_set(300, np.random.default_rng(11))
        assert rows.to_ints() == values

    def test_generate_set_deterministic(self, fitted):
        a = fitted.generate_set(500, np.random.default_rng(3))
        b = fitted.generate_set(500, np.random.default_rng(3))
        assert a == b

    def test_generate_set_excludes_and_dedups(self, fitted, structured_set, rng):
        training = structured_set.to_ints()
        generated = fitted.generate_set(400, rng, exclude=training)
        values = generated.to_ints()
        assert len(values) == len(set(values)) == 400
        assert not (set(values) & set(training))
        # Vectorized cross-check: no generated row is a training row.
        assert not structured_set.contains_rows(generated).any()

    def test_generate_exclude_ignores_out_of_range_values(self, fitted, rng):
        # Negative or too-wide exclude entries can never be generated;
        # they must be ignored, not crash the vectorized path.
        values = fitted.generate(50, rng, exclude=[-1, 1 << 200])
        assert len(values) == 50

    def test_samples_follow_training_distribution(self, fitted, structured_set):
        # The /32 prefix is constant in training → all candidates share it.
        rng = np.random.default_rng(5)
        generated = fitted.generate_set(100, rng)
        assert set(generated.segment_values(1, 8)) == {0x20010DB8}


class TestAddressSetExclude:
    """`exclude` accepts an AddressSet and matches the int-iterable path."""

    def test_address_set_exclude_equals_int_exclude(self, fitted, structured_set):
        by_set = fitted.generate_set(
            200, np.random.default_rng(4), exclude=structured_set
        )
        by_ints = fitted.generate_set(
            200,
            np.random.default_rng(4),
            exclude=set(structured_set.to_ints()),
        )
        assert by_set == by_ints
        assert not structured_set.contains_rows(by_set).any()

    def test_width_mismatch_rejected(self, fitted):
        narrow = AddressSet.from_ints([1], width=16, already_truncated=True)
        with pytest.raises(ValueError):
            fitted.generate_set(10, np.random.default_rng(0), exclude=narrow)

    def test_plain_integer_ndarray_exclude(self, fitted, structured_set):
        # 1-D integer ndarrays take the iterable path, like any ints.
        values = structured_set.to_ints()
        flat = np.array([v & 0xFFFF for v in values[:200]], dtype=np.int64)
        result = fitted.generate_set(50, np.random.default_rng(9), exclude=flat)
        reference = fitted.generate_set(
            50, np.random.default_rng(9), exclude=[int(v) for v in flat]
        )
        assert result == reference

    def test_packed_exclude_matches_address_set_exclude(self, fitted, structured_set):
        packed = structured_set.packed_rows()
        by_packed = fitted.generate_set(
            100, np.random.default_rng(5), exclude=packed
        )
        by_set = fitted.generate_set(
            100, np.random.default_rng(5), exclude=structured_set
        )
        assert by_packed == by_set
        with pytest.raises(ValueError):
            fitted.generate_set(
                10,
                np.random.default_rng(0),
                exclude=np.zeros((3, 5), dtype=np.uint64),
            )


class TestGenerationSession:
    """The persistent cross-call exclusion/dedup state of §5.5 loops."""

    def test_session_matches_grow_and_repass_exclude(
        self, fitted, structured_set
    ):
        # The compat contract: a sequence of session-backed calls is
        # bit-identical to the legacy pattern of re-passing an
        # ever-growing packed exclude matrix to each call.
        session = fitted.session(exclude=structured_set)
        session_rng = np.random.default_rng(31)
        legacy_rng = np.random.default_rng(31)
        probed = structured_set.packed_rows()
        for n in (150, 200, 120):
            by_session = fitted.generate_set(n, session_rng, state=session)
            by_exclude = fitted.generate_set(n, legacy_rng, exclude=probed)
            assert np.array_equal(by_session.matrix, by_exclude.matrix)
            probed = np.vstack([probed, by_exclude.packed_rows()])

    def test_session_rows_never_repeat_across_calls(self, fitted):
        session = fitted.session()
        rng = np.random.default_rng(32)
        seen = set()
        for n in (100, 100, 100):
            generated = fitted.generate_set(n, rng, state=session)
            values = generated.to_ints()
            assert len(values) == n
            assert not (set(values) & seen)
            seen.update(values)
        assert session.generated_rows == 300

    def test_session_survives_refit(self, fitted, structured_set):
        # The adaptive-campaign pattern: refit a model (only the BN
        # changes) and keep generating on the same session.
        from repro.core.encoding import AddressEncoder
        from repro.core.mining import mine_segments
        from repro.core.segmentation import segment_addresses

        session = fitted.session(exclude=structured_set)
        rng = np.random.default_rng(33)
        first = fitted.generate_set(200, rng, state=session)
        grown = structured_set.concat(first)
        segments = segment_addresses(grown)
        encoder = AddressEncoder(mine_segments(grown, segments))
        refitted = AddressModel.fit(grown, encoder)
        second = refitted.generate_set(200, rng, state=session)
        overlap = set(second.to_ints()) & (
            set(first.to_ints()) | set(structured_set.to_ints())
        )
        assert not overlap

    def test_session_excludes_seed_rows(self, fitted, structured_set):
        session = fitted.session(exclude=structured_set)
        rng = np.random.default_rng(34)
        generated = fitted.generate_set(250, rng, state=session)
        assert not structured_set.contains_rows(generated).any()
        assert session.excluded_rows == len(structured_set.unique())

    def test_observe_folds_in_new_exclusions(self, fitted):
        session = fitted.session()
        extra = fitted.generate_set(
            50, np.random.default_rng(35), state=fitted.session()
        )
        assert session.observe(extra) == 50
        assert session.observe(extra) == 0  # idempotent
        generated = fitted.generate_set(
            100, np.random.default_rng(36), state=session
        )
        assert not (set(generated.to_ints()) & set(extra.to_ints()))

    def test_state_and_exclude_are_mutually_exclusive(self, fitted):
        session = fitted.session()
        with pytest.raises(ValueError):
            fitted.generate_set(
                10, np.random.default_rng(0), exclude=[1], state=session
            )

    def test_width_mismatch_rejected(self, fitted):
        from repro.core.model import GenerationSession

        narrow = GenerationSession(16)
        with pytest.raises(ValueError):
            fitted.generate_set(10, np.random.default_rng(0), state=narrow)

    def test_overshoot_never_pollutes_session(self, fitted):
        # A generation round oversamples; the overshoot beyond n must
        # stay generatable by later calls — the session holds exactly
        # seed + returned rows.
        session = fitted.session()
        rng = np.random.default_rng(37)
        first = fitted.generate_set(101, rng, state=session)
        assert len(session) == len(first) == 101
        assert session.generated_rows == 101


class TestSessionCapacity:
    """capacity= is an enforceable cap (PR 7), not just a sizing hint."""

    def test_uncapped_by_default(self, fitted):
        session = fitted.session()
        assert session.capacity == 0
        assert session.remaining_capacity is None

    def test_remaining_capacity_tracks_growth(self, fitted):
        session = fitted.session(capacity=300)
        assert session.remaining_capacity == 300
        fitted.generate_set(120, np.random.default_rng(40), state=session)
        assert session.remaining_capacity == 180

    def test_generate_past_cap_raises_before_drawing(self, fitted):
        from repro.core.model import SessionCapacityError

        session = fitted.session(capacity=100)
        rng = np.random.default_rng(41)
        fitted.generate_set(100, rng, state=session)
        state_before = rng.bit_generator.state
        with pytest.raises(SessionCapacityError):
            fitted.generate_set(1, rng, state=session)
        # The check is a precondition: no draw was consumed, no state
        # mutated — the caller can roll the session over and retry.
        assert rng.bit_generator.state == state_before
        assert len(session) == 100

    def test_cap_enforced_under_sharded_engine(self, fitted):
        from repro.core.model import SessionCapacityError

        session = fitted.session(capacity=100)
        rng = np.random.default_rng(42)
        fitted.generate_set(100, rng, state=session, workers=2)
        with pytest.raises(SessionCapacityError):
            fitted.generate_set(1, rng, state=session, workers=2)

    def test_capped_output_identical_to_uncapped(self, fitted, structured_set):
        # The cap never changes emitted rows — only whether a call is
        # admitted at all.
        capped = fitted.session(
            exclude=structured_set, capacity=len(structured_set) + 400
        )
        uncapped = fitted.session(exclude=structured_set)
        rng_a = np.random.default_rng(43)
        rng_b = np.random.default_rng(43)
        for n in (250, 150):
            a = fitted.generate_set(n, rng_a, state=capped)
            b = fitted.generate_set(n, rng_b, state=uncapped)
            assert np.array_equal(a.matrix, b.matrix)

    def test_seed_exclusions_over_cap_raise(self, fitted, structured_set):
        from repro.core.model import SessionCapacityError

        with pytest.raises(SessionCapacityError):
            fitted.session(exclude=structured_set, capacity=10)

    def test_observe_over_cap_rolls_back_exactly(self, fitted):
        from repro.core.model import SessionCapacityError

        donor = fitted.generate_set(
            80, np.random.default_rng(44), state=fitted.session()
        )
        session = fitted.session(capacity=50)
        before = len(session)
        with pytest.raises(SessionCapacityError):
            session.observe(donor)
        assert len(session) == before  # nothing partially inserted
        assert not session.table.contains(donor.packed_rows()).any()
        # An under-cap batch still lands normally afterwards.
        assert session.observe(donor.take(np.arange(50))) == 50

    def test_observe_over_cap_into_empty_session(self, fitted):
        from repro.core.model import SessionCapacityError

        donor = fitted.generate_set(
            30, np.random.default_rng(45), state=fitted.session()
        )
        session = fitted.session(capacity=20)
        with pytest.raises(SessionCapacityError):
            session.observe(donor)
        assert len(session) == 0

    def test_negative_capacity_rejected(self, fitted):
        with pytest.raises(ValueError):
            fitted.session(capacity=-1)
