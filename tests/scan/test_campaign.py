"""Tests for budgeted scanning campaigns."""

import numpy as np
import pytest

from repro.scan.campaign import CampaignResult, ScanCampaign, run_campaign
from repro.scan.responder import SimulatedResponder


@pytest.fixture(scope="module")
def setup(r1_small):
    population = r1_small.population(0)
    responder = SimulatedResponder(population, ping_rate=0.9, seed=0)
    training = population.sample(600, np.random.default_rng(1))
    return population, responder, training


class TestCampaign:
    def test_zero_workers_rejected_before_any_fit(self, setup, monkeypatch):
        from repro.core.pipeline import EntropyIP

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before workers=0 was rejected")

        monkeypatch.setattr(EntropyIP, "fit", no_fit)
        _, responder, training = setup
        with pytest.raises(ValueError, match="workers must be nonzero"):
            ScanCampaign(training, responder, workers=0)
        with pytest.raises(ValueError, match="workers must be nonzero"):
            run_campaign(training, responder, workers=0)

    def test_budget_respected(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=5000,
                              round_size=2000)
        assert result.total_probes <= 5000
        assert len(result.rounds) >= 2

    def test_partial_final_round(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=5000,
                              round_size=2000)
        assert result.rounds[-1].probes_sent == 1000  # 5000 - 2*2000

    def test_cumulative_bookkeeping(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=6000,
                              round_size=3000)
        running_probes = 0
        running_hits = 0
        for round_ in result.rounds:
            running_probes += round_.probes_sent
            running_hits += round_.hits
            assert round_.cumulative_probes == running_probes
            assert round_.cumulative_hits == running_hits
        assert result.total_hits == running_hits

    def test_discovery_curve_monotone(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=8000,
                              round_size=2000)
        curve = result.discovery_curve()
        assert curve == sorted(curve)
        assert curve[-1] > 0  # R1 is scannable

    def test_hits_are_real(self, setup):
        population, responder, training = setup
        result = run_campaign(training, responder, probe_budget=4000,
                              round_size=2000)
        members = set(population.to_ints())
        assert all(v in members for v in result.discovered)

    def test_no_probe_repeats_training(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=4000,
                              round_size=2000)
        training_values = set(training.to_ints())
        assert not (set(result.discovered) & training_values)

    def test_new_prefixes_tracked(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=8000,
                              round_size=4000)
        assert result.rounds[-1].new_prefixes64 == len(
            result.discovered_prefixes64
        )
        assert result.discovered_prefixes64  # R1 yields unseen /64s

    def test_adaptive_refits(self, setup):
        _, responder, training = setup
        adaptive = run_campaign(training, responder, probe_budget=8000,
                                round_size=2000, adaptive=True, seed=3)
        static = run_campaign(training, responder, probe_budget=8000,
                              round_size=2000, adaptive=False, seed=3)
        # Both complete within budget and find targets; the adaptive
        # variant must never probe duplicates despite refitting.
        assert adaptive.total_probes <= 8000
        assert len(set(adaptive.discovered)) == len(adaptive.discovered)
        assert adaptive.total_hits > 0 and static.total_hits > 0

    def test_exhausted_support_stops_early(self):
        # A constant network: the model can generate only one candidate.
        from repro.ipv6.sets import AddressSet

        population = AddressSet.from_ints([42, 43])
        responder = SimulatedResponder(population, ping_rate=1.0)
        training = AddressSet.from_ints([42] * 20)
        result = run_campaign(training, responder, probe_budget=1000,
                              round_size=100)
        assert result.total_probes < 1000

    def test_validation(self, setup):
        _, responder, training = setup
        with pytest.raises(ValueError):
            ScanCampaign(training, responder, probe_budget=0)
        with pytest.raises(ValueError):
            ScanCampaign(training, responder, round_size=0)

    def test_result_type(self, setup):
        _, responder, training = setup
        result = run_campaign(training, responder, probe_budget=2000,
                              round_size=1000)
        assert isinstance(result, CampaignResult)
        assert all(0 <= r.hit_rate <= 1 for r in result.rounds)


def _prefix_population(n=3000):
    """A width-16 (/64-identifier) population with learnable structure."""
    rng = np.random.default_rng(5)
    subnets = rng.integers(0, 8, size=n)
    hosts = rng.integers(0, 1 << 12, size=n)
    values = [
        0x20010DB8_0000_0000 | (int(s) << 16) | int(h)
        for s, h in zip(subnets, hosts)
    ]
    from repro.ipv6.sets import AddressSet

    return AddressSet.from_ints(values, width=16, already_truncated=True)


class TestWidth16Campaign:
    """Regression: "New /64s" must use the training set's width.

    The seed code hardcoded ``prefixes64(discovered, 32)`` against a
    ``train.width`` prefix set, so width-16 (§5.6 prefix mode) campaigns
    shifted one side by 64 bits and reported garbage.
    """

    def test_new_prefixes_are_the_discovered_values(self):
        population = _prefix_population()
        responder = SimulatedResponder(population, ping_rate=1.0, seed=0)
        training = population.sample(400, np.random.default_rng(2))
        result = run_campaign(training, responder, probe_budget=3000,
                              round_size=1000, seed=1)
        assert result.total_hits > 0
        # Width 16: a row *is* its /64 identifier, and candidates never
        # repeat training, so every discovered prefix is new.
        assert result.discovered_prefixes64 == set(result.discovered)
        assert result.rounds[-1].new_prefixes64 == len(set(result.discovered))

    def test_per_round_counts_monotone(self):
        population = _prefix_population()
        responder = SimulatedResponder(population, ping_rate=1.0, seed=0)
        training = population.sample(400, np.random.default_rng(2))
        result = run_campaign(training, responder, probe_budget=4000,
                              round_size=1000, seed=3)
        counts = [r.new_prefixes64 for r in result.rounds]
        assert counts == sorted(counts)


class TestExhaustedSupportAccounting:
    """A partial round must charge ``spent`` once and terminate."""

    def _tiny_support(self):
        from repro.ipv6.sets import AddressSet

        # Only the subnet nybble varies: model support is 32 rows.
        values = [(0x20010DB8 << 96) | (s << 64) | 1 for s in range(32)]
        population = AddressSet.from_ints(values)
        training = population.sample(16, np.random.default_rng(0))
        return population, training

    def test_partial_round_charged_and_terminates(self):
        population, training = self._tiny_support()
        responder = SimulatedResponder(population, ping_rate=1.0)
        result = run_campaign(training, responder, probe_budget=10_000,
                              round_size=5_000)
        # Support (≤ 32 rows) cannot fill one 5K round: the campaign
        # must stop after that partial round, not loop on a dry model.
        assert len(result.rounds) == 1
        only = result.rounds[0]
        assert 0 < only.probes_sent < 5_000
        assert result.total_probes == only.probes_sent == only.cumulative_probes
        assert result.total_probes < 10_000
        # Every probe was a distinct, never-before-probed candidate.
        assert len(set(result.discovered)) == len(result.discovered)
        assert only.hits == len(result.discovered) <= only.probes_sent

    def test_adaptive_partial_round_terminates(self):
        population, training = self._tiny_support()
        responder = SimulatedResponder(population, ping_rate=1.0)
        result = run_campaign(training, responder, probe_budget=10_000,
                              round_size=5_000, adaptive=True)
        assert len(result.rounds) == 1
        assert result.total_probes < 10_000


class TestIncrementalAccounting:
    """The steady-state engine vs the retained re-seeding reference.

    ``ScanCampaign.run`` now keeps one persistent generation session
    and incremental /64 accounting; ``_run_reseed_reference`` is the
    old loop (vstack'd probed history, per-round ``prefixes64()`` +
    ``setdiff1d``).  Every observable outcome must be identical, round
    for round — in particular the regression this PR fixes: per-round
    ``new_prefixes64`` values from the running sorted-unique merge
    must equal the from-scratch recomputation.
    """

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rounds_identical_to_reseed_reference(self, setup, adaptive):
        _, responder, training = setup
        session = ScanCampaign(
            training, responder, probe_budget=8000, round_size=2000,
            adaptive=adaptive, seed=11,
        ).run()
        reseed = ScanCampaign(
            training, responder, probe_budget=8000, round_size=2000,
            adaptive=adaptive, seed=11,
        )._run_reseed_reference()
        assert len(session.rounds) >= 3  # actually multi-round
        assert [
            (r.index, r.probes_sent, r.hits, r.cumulative_probes,
             r.cumulative_hits, r.new_prefixes64)
            for r in session.rounds
        ] == [
            (r.index, r.probes_sent, r.hits, r.cumulative_probes,
             r.cumulative_hits, r.new_prefixes64)
            for r in reseed.rounds
        ]
        assert session.discovered == reseed.discovered
        assert session.discovered_prefixes64 == reseed.discovered_prefixes64

    def test_width16_prefix_mode_identical_to_reference(self):
        population = _prefix_population()
        responder = SimulatedResponder(population, ping_rate=1.0, seed=0)
        training = population.sample(400, np.random.default_rng(2))
        session = ScanCampaign(
            training, responder, probe_budget=4000, round_size=1000, seed=3
        ).run()
        reseed = ScanCampaign(
            training, responder, probe_budget=4000, round_size=1000, seed=3
        )._run_reseed_reference()
        assert [r.new_prefixes64 for r in session.rounds] == [
            r.new_prefixes64 for r in reseed.rounds
        ]
        assert session.discovered == reseed.discovered

    def test_no_per_round_reseeding(self, setup):
        """The O(total-probed) per-round copy is gone: however many
        rounds run, the campaign builds exactly one dedup table (the
        session's), while the reference builds one per round."""
        from repro.ipv6.sets import BucketTable

        _, responder, training = setup
        responder.oracle_masks(training)  # pre-warm the cached indexes

        real_init = BucketTable.__init__

        class Spy:
            def __init__(self):
                self.constructions = 0

            def __enter__(self):
                spy = self

                def counting_init(table, *args, **kwargs):
                    spy.constructions += 1
                    return real_init(table, *args, **kwargs)

                BucketTable.__init__ = counting_init
                return spy

            def __exit__(self, *exc):
                BucketTable.__init__ = real_init

        counts = {}
        for budget, rounds_label in ((4000, "short"), (8000, "long")):
            with Spy() as spy:
                result = ScanCampaign(
                    training, responder, probe_budget=budget,
                    round_size=2000, seed=5,
                ).run()
            assert len(result.rounds) == budget // 2000
            counts[rounds_label] = spy.constructions
        # Table constructions do not scale with the round count...
        assert counts["short"] == counts["long"] == 1
        # ...while the reference pays one re-seeded table per round.
        with Spy() as spy:
            ScanCampaign(
                training, responder, probe_budget=8000,
                round_size=2000, seed=5,
            )._run_reseed_reference()
        assert spy.constructions == 4

    def test_offered_rows_scale_with_probes_not_history(self, setup):
        """Rows offered to dedup tables stay linear in the drawn
        batches on the session path: the probed history is never
        re-fed, while the reference re-offers it every round."""
        from repro.ipv6.sets import BucketTable

        _, responder, training = setup
        responder.oracle_masks(training)  # pre-warm the cached indexes
        real = BucketTable.insert_packed
        offered = [0]

        def counting(table, words, *args, **kwargs):
            offered[0] += len(words)
            return real(table, words, *args, **kwargs)

        BucketTable.insert_packed = counting
        try:
            offered[0] = 0
            ScanCampaign(
                training, responder, probe_budget=8000,
                round_size=2000, seed=9,
            ).run()
            session_offered = offered[0]
            offered[0] = 0
            ScanCampaign(
                training, responder, probe_budget=8000,
                round_size=2000, seed=9,
            )._run_reseed_reference()
            reseed_offered = offered[0]
        finally:
            BucketTable.insert_packed = real
        # Session: the 600-row training seed once, plus each oversampled
        # batch once — a loose linear ceiling of 4x the budget.
        assert session_offered < 4 * 8000 + len(training)
        # The reference re-feeds the growing history every round.
        assert reseed_offered > session_offered + 2 * len(training)


class TestDeterminism:
    def test_same_seed_same_curve(self, setup):
        _, responder, training = setup
        runs = [
            run_campaign(training, responder, probe_budget=6000,
                         round_size=2000, seed=7)
            for _ in range(2)
        ]
        assert runs[0].discovery_curve() == runs[1].discovery_curve()
        assert runs[0].discovered == runs[1].discovered
        assert runs[0].discovered_prefixes64 == runs[1].discovered_prefixes64

    def test_same_seed_same_curve_adaptive(self, setup):
        _, responder, training = setup
        runs = [
            run_campaign(training, responder, probe_budget=6000,
                         round_size=2000, adaptive=True, seed=8)
            for _ in range(2)
        ]
        assert runs[0].discovery_curve() == runs[1].discovery_curve()
        assert runs[0].discovered == runs[1].discovered
