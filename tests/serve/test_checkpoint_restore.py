"""Session checkpoint/restore: a resumed stream is bit-identical.

The acceptance contract of the checkpoint layer: kill a process
holding warm streams, restore from the snapshot, and every subsequent
draw is **bit-identical** to the uninterrupted run — same rows, same
order, same counters.  Digest checks make a restore against the wrong
model (or wrong bytes) fail loudly instead of silently forking the
stream.
"""

import numpy as np
import pytest

from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core.model import GenerationSession
from repro.core.pipeline import EntropyIP
from repro.errors import CheckpointError
from repro.ipv6.sets import BucketTable
from repro.serve import HitlistService, ModelRegistry, SessionManager


@pytest.fixture(scope="module")
def analysis(structured_set):
    return EntropyIP.fit(structured_set)


@pytest.fixture()
def registry(analysis):
    registry = ModelRegistry()
    registry.register("m", analysis)
    return registry


class TestGenerationSessionSnapshot:
    def test_restore_continues_bit_identically(self, analysis):
        model = analysis.model
        with model.session(exclude=analysis.address_set) as session:
            rng = np.random.default_rng(7)
            model.generate_set(150, rng, state=session)
            snap = session.snapshot()
            rng_state = rng.bit_generator.state
            after = model.generate_set(150, rng, state=session).matrix

        restored = GenerationSession.restore(snap)
        try:
            rng2 = np.random.default_rng(0)
            rng2.bit_generator.state = rng_state
            resumed = model.generate_set(150, rng2, state=restored).matrix
        finally:
            restored.close()
        assert np.array_equal(after, resumed)

    def test_restore_accepts_rows_in_any_order(self, analysis):
        """Older stores wrote a snapshot's rows in another order (a
        sharded store grouped them by shard); the rows restore with
        their own digest and the stream continues identically."""
        model = analysis.model
        with model.session(exclude=analysis.address_set) as session:
            rng = np.random.default_rng(3)
            model.generate_set(100, rng, state=session)
            snap = session.snapshot()
            rng_state = rng.bit_generator.state
            after = model.generate_set(100, rng, state=session).matrix

        order = np.random.default_rng(4).permutation(len(snap["words"]))
        snap["words"] = snap["words"][order]
        restored = GenerationSession.restore(snap)
        assert restored.table.state_digest() == snap["digest"]
        try:
            rng2 = np.random.default_rng(0)
            rng2.bit_generator.state = rng_state
            resumed = model.generate_set(100, rng2, state=restored).matrix
        finally:
            restored.close()
        assert np.array_equal(after, resumed)

    def test_corrupt_words_fail_digest_check(self, analysis):
        model = analysis.model
        with model.session(exclude=analysis.address_set) as session:
            model.generate_set(50, np.random.default_rng(1), state=session)
            snap = session.snapshot()
        snap["words"] = snap["words"].copy()
        snap["words"][0, 0] ^= np.uint64(1)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            GenerationSession.restore(snap)

    @pytest.mark.parametrize("field,value", [
        ("capacity", 3),
        ("excluded_rows", 50),
        ("excluded_rows", -1),
        ("width", 16),
    ])
    def test_restore_rejects_states_no_session_can_be_in(
        self, analysis, field, value
    ):
        """A snapshot is outside input: 10 rows over a capacity of 3,
        an exclusion split outside 0..10, or 2-word rows under a
        1-word width fail with a typed error before any row is
        restored."""
        rows = analysis.address_set.unique().take(np.arange(10))
        with analysis.model.session(exclude=rows) as session:
            snap = session.snapshot()
        assert len(snap["words"]) == snap["excluded_rows"] == 10
        snap[field] = value
        with pytest.raises(CheckpointError, match="snapshot"):
            GenerationSession.restore(snap)


class TestManagedSessionSnapshot:
    def test_round_trip_through_checkpoint_file(self, registry, tmp_path):
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5, exclude_training=True)
        session.generate(120)
        session.generate(80)
        payload = session.snapshot()
        path = str(tmp_path / "stream.ckpt")
        save_checkpoint(path, "sessions", {"sessions": [payload]})
        after = session.generate(200).matrix
        assert session.requests == 3

        fresh = SessionManager(registry)
        loaded = load_checkpoint(path, kind="sessions")["sessions"][0]
        restored = fresh.restore_session(loaded)
        assert restored.requests == 2
        assert restored.rows_served == 200
        resumed = restored.generate(200).matrix
        assert np.array_equal(after, resumed)
        manager.close_all()
        fresh.close_all()

    def test_old_executor_key_is_ignored_on_restore(self, registry,
                                                    tmp_path):
        """Checkpoints written while a process executor existed carry
        the executor name in their spec; they still restore, and the
        stream resumes bit-identically on threads."""
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5, exclude_training=True,
                               workers=2)
        session.generate(120)
        payload = session.snapshot()
        assert set(payload["spec"]) == {"capacity", "workers"}
        after = session.generate(200).matrix

        payload["spec"]["exec_backend"] = "process"
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(path, "sessions", {"sessions": [payload]})
        fresh = SessionManager(registry)
        loaded = load_checkpoint(path, kind="sessions")["sessions"][0]
        restored = fresh.restore_session(loaded)
        assert restored.spec.workers == 2
        assert np.array_equal(after, restored.generate(200).matrix)
        manager.close_all()
        fresh.close_all()

    def test_old_store_key_is_ignored_on_restore(self, registry, tmp_path):
        """Checkpoints written while a sharded store existed name it in
        their spec; they still restore, onto the one store, and the
        stream resumes bit-identically."""
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5, exclude_training=True)
        session.generate(120)
        payload = session.snapshot()
        after = session.generate(200).matrix

        payload["spec"]["backend"] = "sharded64"
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(path, "sessions", {"sessions": [payload]})
        fresh = SessionManager(registry)
        loaded = load_checkpoint(path, kind="sessions")["sessions"][0]
        restored = fresh.restore_session(loaded)
        assert np.array_equal(after, restored.generate(200).matrix)
        manager.close_all()
        fresh.close_all()

    def test_restore_builds_one_table(self, registry, monkeypatch):
        """A restored stream's table is the one the snapshot's rows are
        inserted into; no empty capacity-sized session is opened and
        thrown away first."""
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5, exclude_training=True,
                               capacity=100_000)
        session.generate(120)
        payload = session.snapshot()
        after = session.generate(200).matrix

        fresh = SessionManager(registry)
        builds = []
        real_init = BucketTable.__init__

        def counting_init(table, *args, **kwargs):
            builds.append(args)
            real_init(table, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(BucketTable, "__init__", counting_init)
            restored = fresh.restore_session(payload)
        assert len(builds) == 1, builds
        assert np.array_equal(after, restored.generate(200).matrix)
        manager.close_all()
        fresh.close_all()

    def test_restore_replaces_live_session(self, registry):
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5, exclude_training=True)
        session.generate(100)
        payload = session.snapshot()
        after = session.generate(100).matrix
        # A restarted process would have re-opened a fresh (diverged)
        # session under the same key; restore supersedes it.
        manager.close("m", "alice")
        diverged = manager.open("m", "alice", seed=5)
        assert diverged.requests == 0
        restored = manager.restore_session(payload)
        assert manager.get("m", "alice") is restored
        assert np.array_equal(after, restored.generate(100).matrix)
        manager.close_all()

    def test_wrong_model_digest_refuses_restore(self, registry,
                                                structured_set):
        manager = SessionManager(registry)
        session = manager.open("m", "alice", seed=5)
        payload = session.snapshot()
        payload["model_digest"] = "0" * 40
        with pytest.raises(CheckpointError, match="digest"):
            manager.restore_session(payload)
        manager.close_all()

    def test_service_snapshot_all_round_trip(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        with HitlistService(registry=registry) as svc:
            svc.generate("m", "a", 60, seed=1)
            svc.generate("m", "b", 60, seed=2)
            payloads = svc.sessions.snapshot_all()
            after = {
                client: svc.generate("m", client, 90).matrix
                for client in ("a", "b")
            }
        registry2 = ModelRegistry()
        registry2.register("m", analysis)
        with HitlistService(registry=registry2) as svc2:
            for payload in payloads:
                svc2.sessions.restore_session(payload)
            for client in ("a", "b"):
                resumed = svc2.generate("m", client, 90).matrix
                assert np.array_equal(after[client], resumed)
