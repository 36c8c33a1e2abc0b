"""Cross-cutting property-based tests on the full pipeline."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bayes.scores import FamilyStats, family_score
from repro.cluster.dbscan import (
    _MAX_BANDED_DIMS,
    _banded_is_exact,
    _dbscan_banded,
    _dbscan_grid,
)
from repro.core.pipeline import EntropyIP
from repro.ipv6.sets import AddressSet
from repro.stats.entropy import (
    _nybble_entropies_scalar,
    empirical_entropy,
    entropy_of_count_rows,
    nybble_contingency,
    nybble_entropies,
)
from repro.stats.mutual_information import _mi_matrix_pairwise, mi_matrix

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_structured_values(seed, n):
    """Random but structured sets: prefix pool + mixed IID styles."""
    generator = np.random.default_rng(seed)
    prefixes = [0x20010DB8, 0x2A001450, 0x2A03C0F0][: 1 + seed % 3]
    values = []
    for _ in range(n):
        prefix = prefixes[generator.integers(0, len(prefixes))]
        subnet = int(generator.integers(0, 1 << 16))
        style = generator.integers(0, 3)
        if style == 0:
            iid = int(generator.integers(1, 4))
        elif style == 1:
            iid = int(generator.integers(0, 1 << 32))
        else:
            iid = 0
        values.append((prefix << 96) | (subnet << 64) | iid)
    return values


class TestPipelineProperties:
    @SLOW
    @given(st.integers(0, 10_000))
    def test_fit_never_crashes_on_structured_sets(self, seed):
        values = random_structured_values(seed, 300)
        analysis = EntropyIP.fit(values)
        assert analysis.segments
        assert analysis.encoder.cardinalities

    @SLOW
    @given(st.integers(0, 10_000))
    def test_segments_partition_width(self, seed):
        values = random_structured_values(seed, 200)
        analysis = EntropyIP.fit(values)
        covered = sum(s.nybble_count for s in analysis.segments)
        assert covered == 32

    @SLOW
    @given(st.integers(0, 10_000))
    def test_mined_frequencies_sum_to_one(self, seed):
        values = random_structured_values(seed, 200)
        analysis = EntropyIP.fit(values)
        for mined in analysis.encoder.mined_segments:
            total = sum(v.frequency for v in mined.values)
            assert total == pytest.approx(1.0, abs=1e-6)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_marginals_are_distributions(self, seed):
        values = random_structured_values(seed, 200)
        analysis = EntropyIP.fit(values)
        for distribution in analysis.model.marginals().values():
            assert distribution.sum() == pytest.approx(1.0)
            assert np.all(distribution >= -1e-12)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_generated_addresses_match_learned_support(self, seed):
        values = random_structured_values(seed, 300)
        analysis = EntropyIP.fit(values)
        generated = analysis.generate(
            50, np.random.default_rng(0), exclude_training=False
        )
        # Every generated value must decode from some mined element:
        # re-encoding it yields valid code indices.
        codes = analysis.encoder.encode_set(generated)
        for column, mined in enumerate(analysis.encoder.mined_segments):
            assert codes[:, column].max() < mined.cardinality

    @SLOW
    @given(st.integers(0, 10_000))
    def test_entropy_invariant_under_permutation(self, seed):
        values = random_structured_values(seed, 100)
        base = nybble_entropies(AddressSet.from_ints(values))
        generator = np.random.default_rng(seed)
        shuffled = list(values)
        generator.shuffle(shuffled)
        permuted = nybble_entropies(AddressSet.from_ints(shuffled))
        assert np.allclose(base, permuted)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_total_entropy_vs_duplication(self, seed):
        # Duplicating every row changes nothing information-theoretically.
        values = random_structured_values(seed, 100)
        once = nybble_entropies(AddressSet.from_ints(values))
        twice = nybble_entropies(AddressSet.from_ints(values * 2))
        assert np.allclose(once, twice)


def random_nybble_matrix(seed, max_rows=300, max_width=12):
    """A random nybble matrix with injected column dependencies."""
    generator = np.random.default_rng(seed)
    n = int(generator.integers(1, max_rows))
    width = int(generator.integers(1, max_width))
    matrix = generator.integers(0, 16, size=(n, width)).astype(np.uint8)
    if width >= 3 and generator.random() < 0.5:
        matrix[:, 2] = matrix[:, 0]  # a deterministic dependency
    if width >= 2 and generator.random() < 0.3:
        matrix[:, 1] = 7  # a constant column
    return matrix


class TestContingencyProperties:
    """The shared contingency pass against the scalar definitions."""

    @SLOW
    @given(st.integers(0, 10_000))
    def test_contingency_entropies_equal_scalar_empirical_entropy(self, seed):
        matrix = random_nybble_matrix(seed)
        address_set = AddressSet(matrix)
        joint = nybble_contingency(address_set)
        width = matrix.shape[1]
        marginal_entropies = entropy_of_count_rows(
            joint[np.arange(width), np.arange(width)].reshape(width, 256)
        )
        for column in range(width):
            assert marginal_entropies[column] == pytest.approx(
                empirical_entropy(matrix[:, column].tolist()), abs=1e-12
            )

    @SLOW
    @given(st.integers(0, 10_000))
    def test_vectorized_nybble_entropies_equal_scalar(self, seed):
        address_set = AddressSet(random_nybble_matrix(seed))
        vectorized = nybble_entropies(address_set)
        scalar = _nybble_entropies_scalar(address_set)
        assert np.allclose(vectorized, scalar, rtol=0, atol=1e-12)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_contingency_row_sums_are_column_marginals(self, seed):
        matrix = random_nybble_matrix(seed)
        joint = nybble_contingency(AddressSet(matrix))
        for column in range(matrix.shape[1]):
            expected = np.bincount(matrix[:, column], minlength=16)
            assert np.array_equal(joint[column, 0].sum(axis=1), expected)
            assert np.array_equal(np.diag(joint[column, column]), expected)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_mi_matrix_symmetric_with_unit_diagonal(self, seed):
        matrix = random_nybble_matrix(seed)
        address_set = AddressSet(matrix)
        nmi = mi_matrix(address_set, normalized=True)
        assert np.array_equal(nmi, nmi.T)
        constant = np.asarray(
            [len(np.unique(matrix[:, i])) <= 1 for i in range(matrix.shape[1])]
        )
        diagonal = nmi[np.diag_indices_from(nmi)]
        # H(X,X) re-sums H(X)'s counts through a 256-cell table, so the
        # self-NMI can sit one ulp under 1 — for the scalar definition
        # just as much as for the contingency pass.
        assert np.allclose(diagonal[~constant], 1.0, rtol=0, atol=1e-12)
        assert np.all(diagonal[constant] == 0.0)
        assert np.all(nmi >= 0.0) and np.all(nmi <= 1.0)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_mi_matrix_equals_pairwise_reference(self, seed):
        address_set = AddressSet(random_nybble_matrix(seed))
        for normalized in (True, False):
            fast = mi_matrix(address_set, normalized=normalized)
            reference = _mi_matrix_pairwise(address_set, normalized=normalized)
            assert np.allclose(fast, reference, rtol=0, atol=1e-12)


class TestFamilyStatsProperties:
    """Cached sufficient-statistics scores against the direct reference."""

    @SLOW
    @given(st.integers(0, 10_000))
    def test_cached_scores_equal_reference_family_score(self, seed):
        generator = np.random.default_rng(seed)
        num_vars = int(generator.integers(2, 6))
        cardinalities = [int(generator.integers(1, 6)) for _ in range(num_vars)]
        n = int(generator.integers(1, 200))
        data = np.column_stack(
            [generator.integers(0, c, size=n) for c in cardinalities]
        )
        stats = FamilyStats(data, cardinalities)
        ess = float(generator.choice([0.5, 1.0, 4.0]))
        for child in range(num_vars):
            candidates = [()] + [
                (p,) for p in range(child)
            ] + [
                (p, q)
                for p in range(child)
                for q in range(p + 1, child)
            ]
            for parents in candidates:
                for method in ("bdeu", "bic"):
                    cached = stats.score(
                        child, parents, method=method, equivalent_sample_size=ess
                    )
                    reference = family_score(
                        data,
                        child,
                        parents,
                        cardinalities,
                        method=method,
                        equivalent_sample_size=ess,
                    )
                    assert cached == pytest.approx(reference, rel=1e-12, abs=1e-12)

    @SLOW
    @given(st.integers(0, 10_000))
    def test_tier_batched_scores_equal_per_family_scores(self, seed):
        """Tier-vs-family equality: FamilyStats.score_tier (fused
        multi-family bincount + one gammaln pass per chunk) must be
        *bitwise* equal to per-family scoring — the near-tie contract
        of the structure search — and to the uncached reference."""
        from itertools import combinations

        generator = np.random.default_rng(seed)
        num_vars = int(generator.integers(2, 7))
        cardinalities = [int(generator.integers(1, 6)) for _ in range(num_vars)]
        n = int(generator.integers(1, 150))
        data = np.column_stack(
            [generator.integers(0, c, size=n) for c in cardinalities]
        )
        ess = float(generator.choice([0.5, 1.0, 4.0]))
        child = int(generator.integers(1, num_vars))
        tier = [()] + [
            subset
            for size in (1, 2, 3)
            for subset in combinations(range(child), size)
        ]
        batched = FamilyStats(data, cardinalities)
        scores = batched.score_tier(
            child, tier, equivalent_sample_size=ess
        )
        # Fresh stats per comparison so the per-family path cannot be
        # served from the batch's memo.
        single = FamilyStats(data, cardinalities)
        for parents, score in zip(tier, scores):
            assert score == single.score(
                child, parents, equivalent_sample_size=ess
            ), (child, parents)
            assert score == family_score(
                data, child, parents, cardinalities,
                equivalent_sample_size=ess,
            ), (child, parents)
        # Repeating the tier serves every score from the memo.
        assert batched.score_tier(
            child, tier, equivalent_sample_size=ess
        ) == scores

    @SLOW
    @given(st.integers(0, 10_000))
    def test_cached_counts_match_count_family(self, seed):
        from repro.bayes.cpd import count_family

        generator = np.random.default_rng(seed)
        cardinalities = [int(generator.integers(1, 7)) for _ in range(4)]
        n = int(generator.integers(1, 150))
        data = np.column_stack(
            [generator.integers(0, c, size=n) for c in cardinalities]
        )
        stats = FamilyStats(data, cardinalities)
        for child, parents in [(3, (0, 2)), (2, (1,)), (1, ()), (3, (1, 2))]:
            assert np.array_equal(
                stats.counts(child, parents),
                count_family(data, child, parents, cardinalities),
            )


class TestDBSCANEngineParity:
    """Banded vectorized DBSCAN against the grid-scan reference."""

    @SLOW
    @given(st.integers(0, 10_000))
    def test_banded_labels_identical_to_grid(self, seed):
        generator = np.random.default_rng(seed)
        n = int(generator.integers(1, 120))
        dims = int(generator.integers(1, 3))
        if generator.random() < 0.5:
            points = generator.integers(0, 4096, size=(n, dims)).astype(
                np.float64
            )
            eps = float(generator.choice([1.0, 16.0, 256.0]))
        else:
            points = np.round(generator.random((n, dims)) * 10, 3)
            eps = float(generator.choice([0.05, 0.3, 1.0]))
        weights = (
            generator.integers(1, 40, size=n).astype(np.float64)
            if generator.random() < 0.5
            else np.ones(n)
        )
        min_samples = float(generator.integers(1, 50))
        assert _banded_is_exact(points, weights, eps)
        grid = _dbscan_grid(points, weights, eps, min_samples)
        banded = _dbscan_banded(points, weights, eps, min_samples)
        assert np.array_equal(grid, banded)

    def test_column_sums_are_row_sums_below_the_dims_bound(self):
        # The banded engine adds squared terms column by column, left to
        # right; the grid scan calls sum(axis=1).  They agree bit for bit
        # only below _MAX_BANDED_DIMS columns, and wider points go to the
        # grid scan.
        generator = np.random.default_rng(0)
        for dims in range(1, _MAX_BANDED_DIMS):
            deltas = generator.standard_normal((20_000, dims)) * 1e6
            squares = deltas * deltas
            by_column = squares[:, 0]
            for column in range(1, dims):
                by_column = by_column + squares[:, column]
            assert np.array_equal(by_column, squares.sum(axis=1))
        wide = np.zeros((3, _MAX_BANDED_DIMS))
        assert not _banded_is_exact(wide, np.ones(3), 1.0)
