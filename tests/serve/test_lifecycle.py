"""SessionManager/ManagedSession: warm streams, eviction, rollover."""

import numpy as np
import pytest

from repro.core.model import SessionCapacityError
from repro.core.pipeline import EntropyIP
from repro.serve.lifecycle import (
    SessionClosedError,
    SessionManager,
    SessionSpec,
    UnknownSessionError,
)
from repro.serve.registry import ModelRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def analysis(structured_set):
    return EntropyIP.fit(structured_set)


@pytest.fixture()
def registry(analysis):
    registry = ModelRegistry()
    registry.register("m", analysis)
    return registry


class TestSessionSpec:
    def test_open_matches_model_session(self, analysis):
        spec = SessionSpec(capacity=500)
        session = spec.open(analysis.model)
        assert session.width == analysis.encoder.width
        assert session.capacity == 500

    def test_spec_is_hashable_and_frozen(self):
        spec = SessionSpec(capacity=10)
        with pytest.raises(AttributeError):
            spec.capacity = 20

    def test_zero_workers_rejected_at_construction(self):
        with pytest.raises(ValueError, match="workers must be nonzero"):
            SessionSpec(workers=0)
        # None (serial) stays None: it names a different stream than 1.
        assert SessionSpec().workers is None
        assert SessionSpec(workers=-1).workers == -1


class TestManagedStream:
    def test_stream_bit_identical_to_direct_library_path(
        self, registry, analysis, structured_set
    ):
        manager = SessionManager(registry)
        managed = manager.open(
            "m", "client", seed=11, exclude_training=True
        )
        served = [managed.generate(200).matrix for _ in range(3)]

        direct_session = analysis.model.session(exclude=structured_set)
        direct_rng = np.random.default_rng(11)
        for batch in served:
            direct = analysis.model.generate_set(
                200, direct_rng, state=direct_session
            )
            assert np.array_equal(batch, direct.matrix)

    def test_exclude_training_excludes_training(
        self, registry, structured_set
    ):
        manager = SessionManager(registry)
        managed = manager.open("m", "c", exclude_training=True)
        assert bool(managed.membership(structured_set).all())

    def test_exclude_and_exclude_training_conflict(self, registry):
        manager = SessionManager(registry)
        with pytest.raises(ValueError):
            manager.open(
                "m", "c", exclude=np.empty((0, 2), np.uint64),
                exclude_training=True,
            )

    def test_membership_tracks_served_rows(self, registry):
        manager = SessionManager(registry)
        managed = manager.open("m", "c", seed=3)
        batch = managed.generate(150)
        assert bool(managed.membership(batch).all())
        assert managed.rows_served == 150
        assert managed.requests == 1

    def test_observe_folds_rows_in(self, registry, structured_set):
        manager = SessionManager(registry)
        managed = manager.open("m", "c")
        fresh = managed.observe(structured_set)
        distinct = len(np.unique(structured_set.packed_rows(), axis=0))
        assert fresh == distinct
        assert bool(managed.membership(structured_set).all())

    def test_capacity_error_surfaces(self, registry):
        manager = SessionManager(registry)
        managed = manager.open("m", "c", capacity=100)
        managed.generate(100)
        with pytest.raises(SessionCapacityError):
            managed.generate(1)

    def test_closed_session_raises(self, registry):
        manager = SessionManager(registry)
        managed = manager.open("m", "c")
        managed.close()
        with pytest.raises(SessionClosedError):
            managed.generate(10)


class TestManagerLifecycle:
    def test_open_is_get_or_create(self, registry):
        manager = SessionManager(registry)
        first = manager.open("m", "c", seed=1)
        again = manager.open("m", "c", seed=999)  # params ignored: live
        assert again is first
        assert again.seed == 1

    def test_get_unknown_raises(self, registry):
        manager = SessionManager(registry)
        with pytest.raises(UnknownSessionError):
            manager.get("m", "nobody")

    def test_close_drops_session(self, registry):
        manager = SessionManager(registry)
        manager.open("m", "c")
        assert manager.close("m", "c") is True
        assert manager.close("m", "c") is False
        with pytest.raises(UnknownSessionError):
            manager.get("m", "c")

    def test_rollover_restarts_stream_identically(self, registry):
        manager = SessionManager(registry)
        managed = manager.open("m", "c", seed=5)
        first_run = managed.generate(100)
        managed.generate(100)
        rolled = manager.rollover("m", "c")
        assert rolled is not managed
        assert managed.closed
        assert rolled.seed == 5 and rolled.spec == managed.spec
        # Fresh state + same seed => the stream restarts from the top.
        assert np.array_equal(rolled.generate(100).matrix, first_run.matrix)

    def test_rollover_unknown_raises(self, registry):
        with pytest.raises(UnknownSessionError):
            SessionManager(registry).rollover("m", "ghost")

    def test_lru_eviction_closes_session(self, registry):
        manager = SessionManager(registry, capacity=2)
        a = manager.open("m", "a")
        manager.open("m", "b")
        manager.get("m", "b")
        manager.open("m", "c")  # evicts a (LRU)
        assert a.closed
        assert manager.stats()["evictions"] == 1
        assert manager.keys() == [("m", "b"), ("m", "c")]

    def test_idle_ttl_closes_sessions(self, registry):
        clock = FakeClock()
        manager = SessionManager(registry, ttl=30.0, clock=clock)
        managed = manager.open("m", "c")
        clock.advance(29.0)
        manager.get("m", "c")  # touch
        clock.advance(29.0)
        assert len(manager) == 1
        clock.advance(31.0)
        assert manager.prune() == 1
        assert len(manager) == 0
        assert managed.closed
        assert manager.stats()["expirations"] == 1

    def test_invalid_parameters(self, registry):
        with pytest.raises(ValueError):
            SessionManager(registry, capacity=0)
        with pytest.raises(ValueError):
            SessionManager(registry, ttl=-1.0)
