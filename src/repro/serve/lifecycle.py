"""Session lifecycle: warm :class:`GenerationSession` streams per client.

The second runtime layer.  A served candidate stream is *stateful
twice over*: the :class:`~repro.core.model.GenerationSession` holds the
client's probed universe (every row served is retired forever), and the
RNG holds the position in the client's deterministic draw stream.  The
:class:`SessionManager` owns both per ``(model name, client)`` key, so
"next N candidates for network X excluding what I've seen" is a lookup
plus one ``generate_set`` call on warm state.

The determinism contract of every prior subsystem carries through
unchanged: a managed stream is **bit-identical** to the direct library
path — ``model.session(exclude=…)`` plus a
``numpy.random.default_rng(seed)`` fed through the same sequence of
``generate_set(n, rng, state=session, workers=…)`` calls — for the
same ``(seed, workers)``.  The manager adds only bookkeeping
(locking, idle eviction, capacity caps), never a different code path.

:class:`SessionSpec` is the one canonical recipe for opening a session
— the CLI, ``scan/evaluate.py``, ``scan/campaign.py`` and the manager
all construct sessions through it, so capacity and worker semantics
cannot drift between entry points.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.model import (
    AddressModel,
    ExcludeLike,
    GenerationSession,
)
# Defined in the consolidated hierarchy (repro.errors); re-exported
# here because this module is their historical home.
from repro.errors import (
    CheckpointError,
    SessionClosedError,
    UnknownSessionError,
)
from repro.exec.pool import resolve_workers
from repro.ipv6.sets import AddressSet
from repro.serve.registry import ModelEntry, ModelRegistry


@dataclass(frozen=True)
class SessionSpec:
    """The canonical recipe for opening a generation session.

    Every entry point — the service runtime, the CLI subcommands,
    ``scan_experiment`` and ``ScanCampaign`` — opens sessions through
    :meth:`open`, so the ``capacity``/``workers`` semantics live in
    exactly one place.  Every session stores its rows in one
    :class:`~repro.ipv6.sets.BucketTable`; there is no store to choose.

    ``capacity`` is the *enforceable* cap of
    :class:`~repro.core.model.GenerationSession` (0 = uncapped):
    exceeding it raises
    :class:`~repro.core.model.SessionCapacityError`, it never silently
    grows past the cap.  ``workers`` is part of the stream identity
    (serial and sharded draws differ by design; any sharded worker
    *count* is bit-identical to any other).
    """

    exclude: Optional[ExcludeLike] = None
    capacity: int = 0
    workers: Optional[int] = None

    def __post_init__(self):
        # Reject ``workers=0`` when the recipe is written, not at the
        # stream's first sharded draw.
        resolve_workers(self.workers)

    def open(self, model: AddressModel) -> GenerationSession:
        """Open a fresh session on ``model`` per this recipe."""
        return model.session(exclude=self.exclude, capacity=self.capacity)


class ManagedSession:
    """One client's warm candidate stream over a registered model.

    Owns the persistent :class:`GenerationSession`, the client's RNG
    stream, and a lock serializing draws — concurrent requests against
    the *same* stream execute one at a time (interleaving draws on one
    RNG would make the stream depend on scheduling), while requests
    against different sessions run fully concurrently.  ``session`` is
    the one its caller opened with ``spec`` or restored from a
    snapshot; the stream takes it over and closes it.
    """

    def __init__(
        self,
        key: Tuple[str, str],
        entry: ModelEntry,
        spec: SessionSpec,
        session: GenerationSession,
        seed: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.key = key
        self.entry = entry
        self.spec = spec
        self.seed = seed
        self.session = session
        self.rng = np.random.default_rng(seed)
        self._clock = clock
        self._lock = threading.Lock()
        self.created_at = clock()
        self.last_used = self.created_at
        self.requests = 0
        self.rows_served = 0
        self.closed = False

    @property
    def model_name(self) -> str:
        return self.key[0]

    @property
    def client(self) -> str:
        return self.key[1]

    def generate(
        self, n: int, workers: Optional[int] = None
    ) -> AddressSet:
        """Serve the next ``n`` candidates of this client's stream.

        Exactly the direct library call — ``generate_set(n, rng,
        state=session, workers=…)`` on the warm state — under the
        stream lock.  ``workers`` defaults to the spec's value; passing
        a different *sharded* worker count is output-neutral (the
        engine's invariance contract), switching between serial
        (``None``) and sharded is not, which is why the spec pins it.
        """
        with self._lock:
            if self.closed:
                raise SessionClosedError(
                    f"session {self.key} is closed"
                )
            out = self.entry.analysis.model.generate_set(
                n,
                self.rng,
                state=self.session,
                workers=self.spec.workers if workers is None else workers,
            )
            self.requests += 1
            self.rows_served += len(out)
            self.last_used = self._clock()
            return out

    def touch(self) -> None:
        """Refresh the idle clock (any manager access counts as use)."""
        self.last_used = self._clock()

    def adopt(self, entry: ModelEntry) -> None:
        """Swap this stream onto a new registry entry for its model —
        the drift-triggered roll of the streaming-ingest path.

        Only the model reference changes: the session's exclusion/dedup
        table and the client's RNG position carry over untouched, so
        every row ever served (or observed) stays retired and the
        stream continues from where it was — exactly how adaptive
        campaign refits reuse their session.  ``rollover`` remains the
        explicit full-reset escape hatch.  The new entry must generate
        the same address width as the session it inherits.
        """
        with self._lock:
            if self.closed:
                raise SessionClosedError(f"session {self.key} is closed")
            if entry.width != self.session.width:
                raise ValueError(
                    f"cannot adopt model of width {entry.width} into a "
                    f"width-{self.session.width} session"
                )
            self.entry = entry
            self.last_used = self._clock()

    def membership(self, rows: ExcludeLike) -> np.ndarray:
        """Which of ``rows`` this session has already retired (seed
        exclusions or previously served candidates)."""
        from repro.core.model import exclude_packed_words

        words = exclude_packed_words(rows, self.session.width)
        with self._lock:
            if self.closed:
                raise SessionClosedError(f"session {self.key} is closed")
            self.last_used = self._clock()
            return self.session.table.contains(words)

    def observe(self, rows: ExcludeLike) -> int:
        """Fold client-observed rows into the exclusion state."""
        with self._lock:
            if self.closed:
                raise SessionClosedError(f"session {self.key} is closed")
            fresh = self.session.observe(rows)
            self.last_used = self._clock()
            return fresh

    def snapshot(self) -> dict:
        """This stream's complete state as plain data: the generation
        session's snapshot plus the RNG's bit-generator state (the
        stream position), the opening spec, and the usage counters.

        Taken under the stream lock, so it is always a consistent
        point between draws.  The spec's ``exclude`` is deliberately
        *not* serialized — seed exclusions are already rows in the
        session table, which the snapshot carries in full.
        """
        with self._lock:
            if self.closed:
                raise SessionClosedError(f"session {self.key} is closed")
            return {
                "model": self.key[0],
                "client": self.key[1],
                "seed": self.seed,
                "model_digest": self.entry.digest,
                "spec": {
                    "capacity": self.spec.capacity,
                    "workers": self.spec.workers,
                },
                "rng_state": self.rng.bit_generator.state,
                "requests": self.requests,
                "rows_served": self.rows_served,
                "session": self.session.snapshot(),
            }

    @classmethod
    def restore(
        cls,
        entry: ModelEntry,
        payload: dict,
        clock: Callable[[], float] = time.monotonic,
    ) -> "ManagedSession":
        """Rebuild a stream from a :meth:`snapshot` against ``entry``.

        The registry entry must carry the *same model* the snapshot
        was taken under (digest-checked): resuming a stream against a
        different model would silently break the bit-identity promise
        — the whole point of a checkpoint.  The restored stream's RNG
        resumes at the exact saved position, so its subsequent draws
        are bit-identical to the uninterrupted run's.  Spec keys beyond
        the two read here (older snapshots also name the store their
        rows were kept in and the executor their shards ran on) are
        ignored: there is one store and one executor, and neither ever
        changed the stream.
        """
        if entry.digest != payload["model_digest"]:
            raise CheckpointError(
                f"checkpointed stream for model {payload['model']!r} was "
                f"taken under digest {payload['model_digest'][:12]}..., "
                f"the registry now holds {entry.digest[:12]}..."
            )
        spec_data = payload["spec"]
        spec = SessionSpec(
            exclude=None,
            capacity=int(spec_data["capacity"]),
            workers=spec_data["workers"],
        )
        managed = cls(
            (payload["model"], payload["client"]),
            entry,
            spec,
            GenerationSession.restore(payload["session"]),
            seed=int(payload["seed"]),
            clock=clock,
        )
        managed.rng.bit_generator.state = payload["rng_state"]
        managed.requests = int(payload["requests"])
        managed.rows_served = int(payload["rows_served"])
        return managed

    def close(self) -> None:
        with self._lock:
            self.closed = True
            # Release the GenerationSession's long-lived worker pools —
            # eviction/expiry must not leak executor threads.
            self.session.close()

    def __repr__(self) -> str:
        return (
            f"ManagedSession({self.key}, seed={self.seed}, "
            f"requests={self.requests}, rows={self.rows_served}, "
            f"closed={self.closed})"
        )


class SessionManager:
    """Bounded, thread-safe pool of warm sessions (LRU + idle TTL).

    ``capacity`` caps live sessions; over it, the least-recently-used
    session is closed and dropped.  ``ttl`` closes sessions idle longer
    than the given seconds.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        capacity: int = 64,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.registry = registry
        self._capacity = capacity
        self._ttl = ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[Tuple[str, str], ManagedSession]" = (
            OrderedDict()
        )
        self._evictions = 0
        self._expirations = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(
        self,
        model_name: str,
        client: str,
        seed: int = 0,
        exclude: Optional[ExcludeLike] = None,
        exclude_training: bool = False,
        capacity: int = 0,
        workers: Optional[int] = None,
    ) -> ManagedSession:
        """Get-or-create the warm session for ``(model_name, client)``.

        An existing live session is returned untouched (the open
        parameters describe only a *new* stream; they cannot mutate a
        running one — use :meth:`rollover` to restart with different
        settings).  ``exclude_training`` seeds the session with the
        model's own training set — the §5.5 default of "scan for
        addresses not yet seen".
        """
        key = (model_name, client)
        now = self._clock()
        with self._lock:
            self._expire(now)
            session = self._sessions.get(key)
            if session is not None and not session.closed:
                session.touch()
                self._sessions.move_to_end(key)
                return session
            entry = self.registry.get(model_name)
            if exclude_training:
                if exclude is not None:
                    raise ValueError(
                        "pass exclude= or exclude_training=, not both"
                    )
                exclude = entry.analysis.address_set
            spec = SessionSpec(
                exclude=exclude, capacity=capacity, workers=workers
            )
            session = ManagedSession(
                key,
                entry,
                spec,
                spec.open(entry.analysis.model),
                seed=seed,
                clock=self._clock,
            )
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            while len(self._sessions) > self._capacity:
                _, evicted = self._sessions.popitem(last=False)
                evicted.close()
                self._evictions += 1
            return session

    def get(self, model_name: str, client: str) -> ManagedSession:
        """Fetch a live session; raises :class:`UnknownSessionError`."""
        key = (model_name, client)
        with self._lock:
            self._expire(self._clock())
            session = self._sessions.get(key)
            if session is None or session.closed:
                raise UnknownSessionError(
                    f"no live session for model {model_name!r}, "
                    f"client {client!r}"
                )
            session.touch()
            self._sessions.move_to_end(key)
            return session

    def close(self, model_name: str, client: str) -> bool:
        """Close and drop a session; returns whether it was live."""
        key = (model_name, client)
        with self._lock:
            session = self._sessions.pop(key, None)
            if session is None:
                return False
            session.close()
            return True

    def close_all(self) -> int:
        """Close and drop every live session; returns how many.

        Used by an owning :class:`~repro.serve.service.HitlistService`
        on shutdown so no session leaves worker pool threads behind.
        """
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
        return len(sessions)

    def rollover(self, model_name: str, client: str) -> ManagedSession:
        """Close the client's stream and reopen it fresh.

        The new session reuses the old one's spec and seed against the
        *current* registry entry for the model — the clean way to pick
        up a refitted model (new digest) or to reset a stream whose
        capacity cap was reached: exclusion state and RNG position
        restart from zero.
        """
        key = (model_name, client)
        with self._lock:
            old = self._sessions.pop(key, None)
            if old is None:
                raise UnknownSessionError(
                    f"no live session for model {model_name!r}, "
                    f"client {client!r}"
                )
            old.close()
            entry = self.registry.get(model_name)
            session = ManagedSession(
                key,
                entry,
                old.spec,
                old.spec.open(entry.analysis.model),
                seed=old.seed,
                clock=self._clock,
            )
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            return session

    def restore_session(self, payload: dict) -> ManagedSession:
        """Install a stream restored from a
        :meth:`ManagedSession.snapshot` payload.

        The model is looked up by the snapshot's name and
        digest-checked (see :meth:`ManagedSession.restore`); an
        existing live session under the same key is closed and
        replaced — a resume supersedes whatever partial state a
        restarted process may have accumulated.
        """
        with self._lock:
            entry = self.registry.get(payload["model"])
            session = ManagedSession.restore(
                entry, payload, clock=self._clock
            )
            old = self._sessions.pop(session.key, None)
            if old is not None:
                old.close()
            self._sessions[session.key] = session
            self._sessions.move_to_end(session.key)
            while len(self._sessions) > self._capacity:
                _, evicted = self._sessions.popitem(last=False)
                evicted.close()
                self._evictions += 1
            return session

    def snapshot_all(self) -> List[dict]:
        """Snapshots of every live session (for a checkpoint sweep)."""
        with self._lock:
            sessions = [
                session
                for session in self._sessions.values()
                if not session.closed
            ]
        return [session.snapshot() for session in sessions]

    def adopt_model(self, model_name: str) -> int:
        """Roll every live session of ``model_name`` onto the model's
        *current* registry entry, preserving each stream's
        exclusion/dedup state and RNG position.

        The streaming-ingest pipeline calls this after a drift-triggered
        refit lands in the registry: clients keep their no-repeat
        guarantee across the model roll (nothing they were served or
        observed is ever re-emitted), only the distribution future
        draws come from changes.  Sessions already on the current
        digest are left untouched.  Returns how many sessions adopted
        the new entry; ``rollover`` stays the explicit way to *reset* a
        stream instead.
        """
        with self._lock:
            entry = self.registry.get(model_name)
            adopted = 0
            for key, session in self._sessions.items():
                if key[0] != model_name or session.closed:
                    continue
                if session.entry.digest == entry.digest:
                    continue
                session.adopt(entry)
                adopted += 1
            return adopted

    # ------------------------------------------------------------------
    # introspection / eviction
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            self._expire(self._clock())
            return len(self._sessions)

    def keys(self) -> List[Tuple[str, str]]:
        with self._lock:
            self._expire(self._clock())
            return list(self._sessions)

    def prune(self) -> int:
        """Close every idle-expired session; returns how many."""
        with self._lock:
            before = self._expirations
            self._expire(self._clock())
            return self._expirations - before

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "capacity": self._capacity,
                "evictions": self._evictions,
                "expirations": self._expirations,
            }

    def _expire(self, now: float) -> None:
        if self._ttl is None:
            return
        expired = [
            key
            for key, session in self._sessions.items()
            if now - session.last_used > self._ttl
        ]
        for key in expired:
            session = self._sessions.pop(key)
            session.close()
            self._expirations += 1

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SessionManager(sessions={len(self._sessions)}, "
                f"capacity={self._capacity}, ttl={self._ttl})"
            )
