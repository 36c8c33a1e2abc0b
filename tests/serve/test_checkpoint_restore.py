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

    def test_restore_across_storage_backends(self, analysis):
        """The snapshot is backend-neutral: state taken on the memory
        backend restores onto sharded64 and continues identically."""
        model = analysis.model
        with model.session(exclude=analysis.address_set) as session:
            rng = np.random.default_rng(3)
            model.generate_set(100, rng, state=session)
            snap = session.snapshot()
            rng_state = rng.bit_generator.state
            after = model.generate_set(100, rng, state=session).matrix

        restored = GenerationSession.restore(snap, backend="sharded64")
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
        assert set(payload["spec"]) == {"capacity", "backend", "workers"}
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
