"""Determinism and correctness tests for the sharded execution engine.

The engine's contract: the shard decomposition (sizes, RNG streams) is
a pure function of the caller's seed and the ``shards`` count, and the
worker count only decides how many shards run concurrently.
Everything here pins that — ``workers=4`` must be bit-identical to
``workers=1`` across generation, scan experiments and whole campaigns.
These draws are small, so the worker-count tests pin the dispatch gate
open (the ``threaded_shards`` fixture) to keep their shards on pool
threads; ``TestDispatchGate`` checks the real gate on both sides.
"""

import os

import numpy as np
import pytest

import repro.exec.engine as engine
from repro.core.pipeline import EntropyIP
from repro.datasets.networks import build_network
from repro.exec import (
    DEFAULT_SHARDS,
    WorkerPool,
    available_cpus,
    derive_seed_sequence,
    resolve_workers,
    shard_bounds,
    shard_sizes,
    sharded_map_rows,
)
from repro.exec.sharding import spawn_generators
from repro.faults import FaultPlan
from repro.scan.campaign import run_campaign
from repro.scan.evaluate import scan_experiment
from repro.scan.responder import SimulatedResponder


@pytest.fixture(scope="module")
def s1_model():
    network = build_network("S1")
    train = network.sample(600, seed=3)
    return EntropyIP.fit(train).model, train


@pytest.fixture(scope="module")
def r1_model():
    network = build_network("R1")
    train = network.sample(600, seed=3)
    return EntropyIP.fit(train).model, train


class TestSharding:
    def test_shard_sizes_sum_and_balance(self):
        for total in (0, 1, 7, 8, 9, 1000, 12345):
            for shards in (1, 2, 8, 13):
                sizes = shard_sizes(total, shards)
                assert sizes.sum() == total
                assert len(sizes) == shards
                assert sizes.max() - sizes.min() <= 1

    def test_shard_sizes_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_sizes(-1, 4)
        with pytest.raises(ValueError):
            shard_sizes(10, 0)

    def test_shard_bounds_cover_range(self):
        bounds = shard_bounds(103, 8)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 103
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_derived_sequence_is_deterministic(self):
        a = derive_seed_sequence(np.random.default_rng(11))
        b = derive_seed_sequence(np.random.default_rng(11))
        c = derive_seed_sequence(np.random.default_rng(12))
        assert a.entropy == b.entropy
        assert a.entropy != c.entropy

    def test_spawned_generators_are_independent_and_reproducible(self):
        first = spawn_generators(derive_seed_sequence(np.random.default_rng(5)), 4)
        second = spawn_generators(derive_seed_sequence(np.random.default_rng(5)), 4)
        draws_first = [g.random(8).tolist() for g in first]
        draws_second = [g.random(8).tolist() for g in second]
        assert draws_first == draws_second
        # Distinct shards see distinct streams.
        assert draws_first[0] != draws_first[1]

    def test_spawn_advances_across_rounds(self):
        sequence = derive_seed_sequence(np.random.default_rng(5))
        round1 = [np.random.default_rng(c).random(4).tolist() for c in sequence.spawn(3)]
        round2 = [np.random.default_rng(c).random(4).tolist() for c in sequence.spawn(3)]
        assert round1 != round2


class TestWorkerPool:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_negative_workers_respect_affinity_mask(self, monkeypatch):
        """Regression: ``resolve_workers(-1)`` must size by the
        scheduling-affinity mask, not ``os.cpu_count()`` — a cgroup-
        restricted container pinned to 2 of 64 cores gets 2 workers."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
            )
            assert available_cpus() == 2
            assert resolve_workers(-1) == 2
            assert resolve_workers(-4) == 2
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpus() == 64

    def test_negative_workers_fall_back_to_cpu_count(self, monkeypatch):
        """Platforms without sched_getaffinity use os.cpu_count()."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        assert resolve_workers(-1) == 6

    def test_map_preserves_order(self):
        pool = WorkerPool(4)
        assert pool.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_map_serial_when_one_worker(self):
        pool = WorkerPool(1)
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_map_propagates_exceptions(self):
        pool = WorkerPool(4)

        def boom(x):
            if x == 3:
                raise RuntimeError("shard failed")
            return x

        with pytest.raises(RuntimeError):
            pool.map(boom, range(6))


class TestPoolLifetime:
    def test_executor_is_long_lived_and_reused(self):
        pool = WorkerPool(2)
        assert pool.closed  # lazy: nothing spawned yet
        pool.map(lambda x: x, range(8))
        assert not pool.closed
        first = pool._executor
        pool.map(lambda x: x, range(8))
        assert pool._executor is first  # reused, not rebuilt per map
        pool.close()
        assert pool.closed

    def test_close_is_idempotent_and_pool_recreates(self):
        pool = WorkerPool(2)
        pool.map(lambda x: x, range(4))
        pool.close()
        pool.close()
        # A closed pool transparently comes back on the next map.
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        pool.close()

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            pool.map(lambda x: x, range(4))
            assert not pool.closed
        assert pool.closed

    def test_serial_pool_never_spawns_executor(self):
        pool = WorkerPool(1)
        pool.map(lambda x: x, range(8))
        assert pool._executor is None

    @pytest.mark.usefixtures("threaded_shards")
    def test_session_reuses_one_pool_and_closes_it(self, s1_model):
        model, train = s1_model
        session = model.session(exclude=train)
        rng = np.random.default_rng(7)
        model.generate_set(2000, rng, state=session, workers=2)
        pool = session.get_pool(2)
        assert not pool.closed
        model.generate_set(2000, rng, state=session, workers=2)
        assert session.get_pool(2) is pool  # same pool, same executor
        session.close()
        assert pool.closed

    @pytest.mark.usefixtures("threaded_shards")
    def test_session_context_manager_closes_pools(self, s1_model):
        model, train = s1_model
        with model.session(exclude=train) as session:
            model.generate_set(
                1000, np.random.default_rng(7), state=session, workers=2
            )
            pool = session.get_pool(2)
        assert pool.closed


class TestDispatchGate:
    """At the real ``MIN_ROWS_PER_SHARD``: a batch whose largest shard
    is below it runs inline and never starts the session's executor;
    one at or above it runs on the pool.  Both equal ``workers=1``."""

    @pytest.mark.parametrize(
        "n,threaded",
        [(2000, False), (2 * engine.MIN_ROWS_PER_SHARD, True)],
        ids=["below", "at-or-above"],
    )
    def test_gate_decides_dispatch_not_rows(self, s1_model, n, threaded):
        model, train = s1_model
        # Two shards: the first batch (n + n // 8 + 64 rows at an
        # assumed yield of 1) splits into halves of >= n / 2 rows.
        outputs = []
        for workers in (1, 2):
            with model.session(exclude=train) as session:
                out = model.generate_set(
                    n, np.random.default_rng(7), state=session,
                    workers=workers, shards=2,
                )
                assert session.get_pool(2).closed is not (
                    threaded and workers == 2
                )
            outputs.append(out.matrix)
        assert len(outputs[0]) == n
        assert np.array_equal(outputs[0], outputs[1])


class TestShardFault:
    """A fault inside a shard task reaches the caller, inline or on a
    pool thread: there is no recovery path, and the pool stays usable
    for the next map."""

    @pytest.mark.parametrize("threaded", [False, True],
                             ids=["inline", "threaded"])
    def test_shard_fault_propagates_and_pool_maps_again(
        self, s1_model, threaded, request
    ):
        if threaded:
            request.getfixturevalue("threaded_shards")
        model, train = s1_model
        with model.session(exclude=train) as session:
            plan = FaultPlan.parse("pool.shard@0.1:raise=RuntimeError")
            with plan.armed():
                with pytest.raises(RuntimeError, match="injected fault"):
                    model.generate_set(
                        2000, np.random.default_rng(7), state=session,
                        workers=2,
                    )
            assert plan.fired() == 1
            pool = session.get_pool(2)
            assert pool.closed is not threaded
            assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    @pytest.mark.parametrize("threaded", [False, True],
                             ids=["inline", "threaded"])
    def test_unmatched_plan_leaves_rows_unchanged(
        self, s1_model, threaded, request
    ):
        """An armed plan whose rule never matches is consulted in every
        shard task and changes no row."""
        if threaded:
            request.getfixturevalue("threaded_shards")
        model, train = s1_model

        def draw():
            return model.generate_set(
                2000, np.random.default_rng(7), exclude=train, workers=2
            ).matrix

        disarmed = draw()
        plan = FaultPlan.parse("pool.shard@999999999:raise=RuntimeError")
        with plan.armed():
            armed = draw()
        assert plan.fired() == 0
        assert plan.hits("pool.shard") >= DEFAULT_SHARDS
        assert np.array_equal(armed, disarmed)

    def test_faulted_session_draw_keeps_no_rows(self, r1_model):
        # The second batch's first shard raises after the first batch's
        # rows went into the session.  The call returns no rows, so the
        # session keeps none, and a retry from the same RNG state
        # returns the rows of an unfaulted call.
        model, train = r1_model
        n = 50_000
        with model.session(exclude=train) as session:
            table = session.table
            before = (len(session), table.rows_offered, table.state_digest())
            rng = np.random.default_rng(11)
            saved = rng.bit_generator.state
            plan = FaultPlan.parse("pool.shard@1.0:raise=RuntimeError")
            with plan.armed():
                with pytest.raises(RuntimeError, match="injected fault"):
                    model.generate_set(n, rng, state=session, workers=2)
            assert plan.fired() == 1
            after = (len(session), table.rows_offered, table.state_digest())
            assert after == before
            rng.bit_generator.state = saved
            retried = model.generate_set(n, rng, state=session, workers=2)
        with model.session(exclude=train) as clean:
            expected = model.generate_set(
                n, np.random.default_rng(11), state=clean, workers=2
            )
        assert len(retried) == n
        assert np.array_equal(retried.matrix, expected.matrix)
        assert table.rows_offered == clean.table.rows_offered
        assert table.state_digest() == clean.table.state_digest()


@pytest.mark.usefixtures("threaded_shards")
class TestEmptyShards:
    """A batch smaller than ``shards`` produces zero-size shards; they
    must never reach a sampler (size=0 draws are skipped entirely)."""

    @pytest.mark.parametrize("fused", [None, False])
    def test_n_smaller_than_shards(self, s1_model, fused):
        model, train = s1_model
        out = model.generate_set(
            10,
            np.random.default_rng(9),
            exclude=train,
            workers=2,
            shards=5000,  # far beyond the 4096-row batch floor
            fused=fused,
        )
        assert len(out) == 10
        uniques = {tuple(row) for row in out.matrix.tolist()}
        assert len(uniques) == 10
        assert not train.contains_rows(out).any()

    def test_n_zero(self, s1_model):
        model, train = s1_model
        out = model.generate_set(
            0, np.random.default_rng(9), exclude=train, workers=2
        )
        assert len(out) == 0
        assert out.width == model.encoder.width


class TestShardedMapRows:
    @pytest.mark.usefixtures("threaded_shards")
    def test_matches_inline_result(self):
        values = np.arange(100_000, dtype=np.int64)

        def fn(start, stop):
            return values[start:stop] % 7 == 0

        serial = sharded_map_rows(fn, len(values), workers=None)
        parallel = sharded_map_rows(fn, len(values), workers=4)
        assert np.array_equal(serial, parallel)

    def test_small_inputs_run_inline(self):
        calls = []

        def fn(start, stop):
            calls.append((start, stop))
            return np.zeros(stop - start, dtype=bool)

        sharded_map_rows(fn, 100, workers=4)
        assert calls == [(0, 100)]

    def test_chunks_at_the_gate(self):
        """``n_rows >= shards * MIN_ROWS_PER_SHARD`` is chunked; one row
        fewer runs as one inline call."""
        calls = []

        def fn(start, stop):
            calls.append((start, stop))
            return np.zeros(stop - start, dtype=bool)

        gate = 2 * engine.MIN_ROWS_PER_SHARD
        assert len(sharded_map_rows(fn, gate - 1, workers=2)) == gate - 1
        assert calls == [(0, gate - 1)]
        calls.clear()
        assert len(sharded_map_rows(fn, gate, workers=2)) == gate
        half = engine.MIN_ROWS_PER_SHARD
        assert sorted(calls) == [(0, half), (half, gate)]


@pytest.mark.usefixtures("threaded_shards")
class TestGenerationDeterminism:
    """Same seed, any worker count → bit-identical generate_set output."""

    @pytest.mark.parametrize("fixture", ["s1_model", "r1_model"])
    def test_workers_bit_identical(self, fixture, request):
        model, train = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        results = [
            model.generate_set(20_000, rng, exclude=train, workers=1)
        ]
        for workers in (2, 4):
            rng = np.random.default_rng(7)
            results.append(
                model.generate_set(20_000, rng, exclude=train, workers=workers)
            )
        assert np.array_equal(results[0].matrix, results[1].matrix)
        assert np.array_equal(results[0].matrix, results[2].matrix)
        # The packed words travel with the rows and must agree too.
        assert np.array_equal(
            results[0].packed_rows(), results[2].packed_rows()
        )

    def test_changing_shards_changes_decomposition_not_contract(self, s1_model):
        model, train = s1_model
        rng = np.random.default_rng(7)
        base = model.generate_set(5000, rng, exclude=train, workers=1, shards=4)
        rng = np.random.default_rng(7)
        same = model.generate_set(5000, rng, exclude=train, workers=4, shards=4)
        assert np.array_equal(base.matrix, same.matrix)
        # Output rows are distinct and never in the exclusion set.
        assert len(base) == 5000
        assert not train.contains_rows(base).any()
        uniques = {tuple(row) for row in base.matrix.tolist()}
        assert len(uniques) == len(base)

    def test_default_shard_count_used(self, s1_model):
        model, train = s1_model
        rng = np.random.default_rng(7)
        explicit = model.generate_set(
            3000, rng, exclude=train, workers=1, shards=DEFAULT_SHARDS
        )
        rng = np.random.default_rng(7)
        implicit = model.generate_set(3000, rng, exclude=train, workers=1)
        assert np.array_equal(explicit.matrix, implicit.matrix)

    def test_two_step_path_is_worker_invariant(self, s1_model):
        model, train = s1_model
        results = [
            model.generate_set(
                4000, np.random.default_rng(5), exclude=train,
                workers=workers, fused=False,
            )
            for workers in (1, 2)
        ]
        assert np.array_equal(results[0].matrix, results[1].matrix)

    def test_evidence_path_is_worker_invariant(self, s1_model):
        model, _ = s1_model
        label = model.encoder.variable_names[0]
        results = []
        for workers in (1, 4):
            rng = np.random.default_rng(13)
            results.append(
                model.generate_set(
                    500, rng, evidence={label: 0}, workers=workers
                )
            )
        assert np.array_equal(results[0].matrix, results[1].matrix)


@pytest.mark.usefixtures("threaded_shards")
class TestScanDeterminism:
    def test_scan_experiment_workers_bit_identical(self):
        network = build_network("S1")
        counts = []
        for workers in (1, 4):
            result = scan_experiment(
                network,
                train_size=400,
                n_candidates=20_000,
                seed=1,
                workers=workers,
            )
            counts.append(
                (
                    result.found_test_set,
                    result.found_ping,
                    result.found_rdns,
                    result.found_overall,
                    result.new_prefixes64,
                )
            )
        assert counts[0] == counts[1]

    def test_campaign_workers_bit_identical(self):
        network = build_network("R1")
        train = network.sample(400, seed=2)
        responder = SimulatedResponder(
            network.population(2),
            ping_rate=network.ping_rate,
            rdns_rate=network.rdns_rate,
            seed=2,
        )
        outcomes = []
        for workers in (1, 4):
            result = run_campaign(
                train,
                responder,
                probe_budget=9000,
                round_size=3000,
                adaptive=True,
                seed=2,
                workers=workers,
            )
            outcomes.append(
                (
                    len(result.rounds),
                    tuple(result.discovery_curve()),
                    tuple(r.new_prefixes64 for r in result.rounds),
                    tuple(result.discovered),
                    tuple(sorted(result.discovered_prefixes64)),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_oracle_masks_match_serial_masks(self):
        network = build_network("S1")
        population = network.population(4)
        responder = SimulatedResponder(
            population,
            ping_rate=network.ping_rate,
            rdns_rate=network.rdns_rate,
            seed=4,
        )
        candidates = population.sample(
            min(20_000, len(population)), np.random.default_rng(0)
        )
        member, ping, rdns = responder.oracle_masks(candidates, workers=4)
        assert np.array_equal(member, responder.member_mask(candidates))
        assert np.array_equal(ping, responder.ping_mask(candidates))
        assert np.array_equal(rdns, responder.rdns_mask(candidates))
