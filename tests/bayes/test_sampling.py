"""Tests for forward and likelihood-weighted sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayes.cpd import CPD
from repro.bayes.inference import VariableElimination
from repro.bayes.network import BayesianNetwork
from repro.bayes.sampling import (
    _draw_states,
    _guided_search,
    forward_sample,
    likelihood_weighted_sample,
    sample_assignments,
)

#: The largest value ``Generator.random()`` returns.
TOP_U = 1 - 2**-53


@pytest.fixture
def coupled():
    """x ~ Bern(0.3); y = x with probability 0.9."""
    x = CPD("x", (), np.array([0.7, 0.3]))
    y = CPD("y", ("x",), np.array([[0.9, 0.1], [0.1, 0.9]]))
    return BayesianNetwork(["x", "y"], [x, y])


class TestForwardSampling:
    def test_shape_and_range(self, coupled, rng):
        samples = forward_sample(coupled, 500, rng)
        assert samples.shape == (500, 2)
        assert samples.min() >= 0 and samples.max() <= 1

    def test_marginal_frequencies(self, coupled):
        rng = np.random.default_rng(0)
        samples = forward_sample(coupled, 20000, rng)
        assert samples[:, 0].mean() == pytest.approx(0.3, abs=0.02)

    def test_conditional_frequencies(self, coupled):
        rng = np.random.default_rng(1)
        samples = forward_sample(coupled, 20000, rng)
        x, y = samples[:, 0], samples[:, 1]
        agree = (x == y).mean()
        assert agree == pytest.approx(0.9, abs=0.02)

    def test_zero_samples(self, coupled, rng):
        assert forward_sample(coupled, 0, rng).shape == (0, 2)

    def test_negative_rejected(self, coupled, rng):
        with pytest.raises(ValueError):
            forward_sample(coupled, -1, rng)

    def test_deterministic_given_seed(self, coupled):
        a = forward_sample(coupled, 50, np.random.default_rng(7))
        b = forward_sample(coupled, 50, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestLikelihoodWeighting:
    def test_matches_exact_posterior(self, coupled):
        rng = np.random.default_rng(2)
        samples = likelihood_weighted_sample(
            coupled, 20000, rng, evidence={"y": 1}
        )
        exact = VariableElimination(coupled).marginal("x", {"y": 1})
        empirical = samples[:, 0].mean()
        assert empirical == pytest.approx(exact[1], abs=0.02)

    def test_evidence_clamped(self, coupled, rng):
        samples = likelihood_weighted_sample(coupled, 100, rng, {"y": 0})
        assert np.all(samples[:, 1] == 0)

    def test_no_evidence_falls_back_to_forward(self, coupled, rng):
        samples = likelihood_weighted_sample(coupled, 50, rng, {})
        assert samples.shape == (50, 2)

    def test_unknown_evidence_variable(self, coupled, rng):
        with pytest.raises(KeyError):
            likelihood_weighted_sample(coupled, 10, rng, {"zz": 0})

    def test_impossible_evidence(self):
        x = CPD("x", (), np.array([1.0, 0.0]))
        y = CPD("y", ("x",), np.array([[1.0, 0.0], [0.0, 1.0]]))
        network = BayesianNetwork(["x", "y"], [x, y])
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            likelihood_weighted_sample(network, 10, rng, {"y": 1})


class TestInverseCdfEquivalence:
    """The vectorized inverse-CDF draw must reproduce the CPD tables."""

    def test_matches_reference_distribution(self):
        # Three-state child over two parents: empirical conditional
        # frequencies must match the table, exactly as the seed-era
        # per-configuration rng.choice implementation did.
        rng = np.random.default_rng(0)
        x = CPD("x", (), np.array([0.2, 0.5, 0.3]))
        table = np.array(
            [[0.1, 0.6, 0.3], [0.2, 0.3, 0.5], [0.7, 0.1, 0.2]]
        )
        y = CPD("y", ("x",), table)
        network = BayesianNetwork(["x", "y"], [x, y])
        samples = forward_sample(network, 60000, rng)
        for parent_state in range(3):
            rows = samples[samples[:, 0] == parent_state]
            for child_state in range(3):
                empirical = (rows[:, 1] == child_state).mean()
                assert empirical == pytest.approx(
                    table[child_state, parent_state], abs=0.02
                )

    def test_zero_probability_states_never_drawn(self):
        rng = np.random.default_rng(1)
        x = CPD("x", (), np.array([0.0, 1.0, 0.0]))
        y = CPD("y", ("x",), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        network = BayesianNetwork(["x", "y"], [x, y])
        samples = forward_sample(network, 5000, rng)
        assert np.all(samples[:, 0] == 1)
        assert np.all(samples[:, 1] == 1)

    def test_sampling_cdf_layout(self):
        table = np.array([[0.25, 0.5], [0.75, 0.5]])
        cpd = CPD("y", ("x",), table)
        cdf = cpd.sampling_cdf()
        # Config c occupies [c, c+1] and tops out at exactly c + 1.
        assert cdf.tolist() == [0.25, 1.0, 1.5, 2.0]
        assert cdf is cpd.sampling_cdf()  # cached
        assert cpd.sampling_guide() is cpd.sampling_guide()

    def test_large_sample_deterministic_and_in_range(self, coupled):
        a = forward_sample(coupled, 200_000, np.random.default_rng(9))
        b = forward_sample(coupled, 200_000, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 1


class TestInverseCdfEdges:
    """Faults at the edges of the inverse-CDF tables, each one a case
    the parent code got wrong."""

    def test_non_monotone_cdf(self):
        # 6/30 + 23/30 + 1/30 sums to 1 + 2**-52: the cumsum passed the
        # pinned top of 1.0, leaving the searched table unsorted.
        cpd = CPD("x", (), np.array([6, 23, 1, 0]) / 30)
        assert np.cumsum(cpd.table)[2] > 1.0
        cdf = cpd.sampling_cdf()
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[2:].tolist() == [1.0, 1.0]
        counts = np.array([[6, 1], [23, 1], [1, 1], [0, 1]])
        child = CPD("y", ("x",), counts / counts.sum(axis=0))
        assert np.all(np.diff(child.sampling_cdf()) >= 0)
        assert child.sampling_cdf_matrix()[0, 2:].tolist() == [1.0, 1.0]

    def test_state_out_of_range(self):
        # Configuration 1 at the top uniform: 1 + TOP_U rounds to 2.0,
        # which searched past the configuration to state 3 of 3.
        cpd = CPD("X", ["P"], [[0.5, 0.2], [0.5, 0.3], [0.0, 0.5]])
        u = np.array([TOP_U, TOP_U, 0.0])
        flat_config = np.array([1, 0, 1])
        assert _draw_states(cpd, flat_config, u).tolist() == [2, 1, 0]
        # The unclamped search is what went wrong.
        assert np.searchsorted(cpd.sampling_cdf(), 1 + TOP_U, side="right") == 6

    def test_zero_probability_state_drawn(self):
        # The cumsum at the last positive state (3) is TOP_U itself, so
        # the top uniform fell through to the trailing zero state 5.
        table = np.array([0, 8922, 101, 1016, 0, 0]) / 10039
        assert np.cumsum(table)[3] == TOP_U
        root = CPD("x", (), table)
        states = _draw_states(root, None, np.array([TOP_U, 0.0]))
        assert states.tolist() == [3, 1]
        child = CPD("y", ("x",), np.stack([table, table[::-1]], axis=1))
        states = _draw_states(child, np.array([0, 1]), np.array([TOP_U, 0.0]))
        assert states.tolist() == [3, 2]


def _random_cpd(seed: int, card: int, configs: int) -> CPD:
    """A CPD with zero cells and rounding-prone probabilities; a root
    variable when it has one configuration."""
    rng = np.random.default_rng(seed)
    raw = rng.random((card, configs)) * (rng.random((card, configs)) < 0.6)
    raw[rng.integers(0, card, size=configs), np.arange(configs)] += 0.1
    table = raw / raw.sum(axis=0)
    if configs == 1:
        return CPD("y", (), table[:, 0])
    return CPD("y", ("x",), table)


def _edge_keys(cpd: CPD) -> np.ndarray:
    """Keys at every CDF entry and every guide bucket edge, each
    +-2 ulp, plus the ends of every configuration's key range."""
    cdf = cpd.sampling_cdf()
    guide = cpd.sampling_guide()
    configs = len(cdf) // cpd.child_cardinality
    edges = np.arange(len(guide.guide)) / guide.scale
    base = np.concatenate([cdf, edges, np.arange(configs + 1.0)])
    keys = [base]
    for direction in (-np.inf, np.inf):
        step = base
        for _ in range(2):
            step = np.nextafter(step, direction)
            keys.append(step)
    keys = np.concatenate(keys)
    return keys[(keys >= 0) & (keys <= configs)]


class TestGuideTable:
    """The guide-table draw is ``searchsorted(side="right")`` exactly,
    clamped to each configuration's range."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 20)
    )
    def test_guided_search_equals_searchsorted(self, seed, card, configs):
        cpd = _random_cpd(seed, card, configs)
        keys = _edge_keys(cpd)
        expected = np.searchsorted(cpd.sampling_cdf(), keys, side="right")
        assert np.array_equal(_guided_search(cpd.sampling_guide(), keys),
                              expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 20)
    )
    def test_draw_equals_clamped_searchsorted(self, seed, card, configs):
        cpd = _random_cpd(seed, card, configs)
        keys = _edge_keys(cpd)
        flat_config = np.minimum(np.floor(keys), configs - 1).astype(np.int64)
        u = np.clip(keys - flat_config, 0.0, TOP_U)
        u = np.concatenate([u, np.zeros(configs), np.full(configs, TOP_U)])
        flat_config = np.concatenate(
            [flat_config, np.arange(configs), np.arange(configs)]
        )
        cdf = cpd.sampling_cdf()
        found = np.searchsorted(cdf, flat_config + u, side="right")
        top = np.searchsorted(cdf, flat_config + 1.0, side="left")
        expected = np.minimum(found, top) - flat_config * card
        if configs == 1:
            states = _draw_states(cpd, None, u)
        else:
            states = _draw_states(cpd, flat_config, u)
        assert np.array_equal(states, expected)
        assert np.all(cpd.table.reshape(card, -1)[states, flat_config] > 0)


class TestGroupedDraws:
    """The grouped per-configuration path must agree with the flat path."""

    def _big_cpd(self):
        # 64 configurations x 64 states = 4096 flat entries, above the
        # grouped threshold.  Probabilities are multiples of 1/64, so
        # both code paths compare the exact same float values and must
        # pick identical states.
        rng = np.random.default_rng(3)
        raw = rng.integers(1, 8, size=(64, 64)).astype(np.float64)
        table = raw / raw.sum(axis=0)
        return CPD("y", ("x",), table)

    def test_grouped_matches_flat(self):
        from repro.bayes import sampling as sampling_module
        from repro.bayes.sampling import _draw_states, _draw_states_grouped

        cpd = self._big_cpd()
        assert len(cpd.sampling_cdf()) > sampling_module.GROUPED_CDF_THRESHOLD
        rng = np.random.default_rng(4)
        flat_config = rng.integers(0, 64, size=20_000).astype(np.int64)
        u = rng.random(20_000)
        grouped = _draw_states_grouped(cpd, flat_config, u)
        flat = (
            np.searchsorted(cpd.sampling_cdf(), flat_config + u, side="right")
            - flat_config * cpd.child_cardinality
        )
        assert np.array_equal(grouped, flat)
        # And the dispatcher actually routes to the grouped path for a
        # table this large.
        assert np.array_equal(_draw_states(cpd, flat_config, u), grouped)

    def test_grouped_path_empty_batch(self):
        # n=0 must stay legal for any CPD size (regression: the group
        # loop indexed into a zero-length configuration array).
        from repro.bayes.sampling import _draw_states_grouped

        cpd = self._big_cpd()
        empty = _draw_states_grouped(
            cpd, np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert empty.shape == (0,)

    def test_cdf_matrix_matches_flat_cdf(self):
        table = np.array([[0.25, 0.5], [0.75, 0.5]])
        cpd = CPD("y", ("x",), table)
        matrix = cpd.sampling_cdf_matrix()
        assert matrix.shape == (2, 2)
        assert matrix.tolist() == [[0.25, 1.0], [0.5, 1.0]]
        assert matrix is cpd.sampling_cdf_matrix()  # cached

    def test_degenerate_variables_skip_draws(self):
        # A cardinality-1 variable must consume no randomness: the
        # stream position after sampling equals a run without it.
        x = CPD("x", (), np.array([1.0]))
        y = CPD("y", ("x",), np.array([[0.5], [0.5]]))
        network = BayesianNetwork(["x", "y"], [x, y])
        rng = np.random.default_rng(6)
        samples = forward_sample(network, 1000, rng)
        assert np.all(samples[:, 0] == 0)
        reference = np.random.default_rng(6)
        expected = np.searchsorted(
            y.sampling_cdf(), reference.random(1000), side="right"
        )
        assert np.array_equal(samples[:, 1], expected)


class TestAssignments:
    def test_dict_form(self, coupled, rng):
        assignments = sample_assignments(coupled, 5, rng)
        assert len(assignments) == 5
        assert set(assignments[0]) == {"x", "y"}

    def test_with_evidence(self, coupled, rng):
        assignments = sample_assignments(coupled, 5, rng, evidence={"y": 1})
        assert all(a["y"] == 1 for a in assignments)
