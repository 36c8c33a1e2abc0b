"""The consolidated typed-error hierarchy of the whole package.

Every error the library raises deliberately — capacity caps, serving
backpressure, registry lookups, streaming-ingest drift — derives from
one :class:`ReproError` base, so callers can catch "anything this
package considers a client-actionable condition" in one clause::

    try:
        service.generate(model, client, n)
    except ReproError as exc:
        shed_or_retry(exc)

Each class additionally keeps the builtin base it historically had
(``RuntimeError``, ``KeyError``, ``ValueError``), so existing
``except`` clauses written against the old locations keep working, and
the old defining modules (:mod:`repro.core.model`,
:mod:`repro.serve.registry`, :mod:`repro.serve.lifecycle`,
:mod:`repro.serve.service`) re-export their errors from here —
``from repro.core.model import SessionCapacityError`` still resolves
to the same class object.

Message formatting is uniform: every raise site passes one
pre-formatted, lower-case, single-sentence message (``<subject>:
<detail>``), and :meth:`ReproError.__str__` renders exactly that
string — including for the ``KeyError``-derived classes, which would
otherwise ``repr()`` their argument.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every typed error raised by this package."""

    def __str__(self) -> str:
        # One formatted message per raise site; suppress KeyError's
        # repr-the-argument rendering so all errors print uniformly.
        if len(self.args) == 1:
            return str(self.args[0])
        return super().__str__()


class SessionCapacityError(ReproError, RuntimeError):
    """A capacity-capped :class:`~repro.core.model.GenerationSession`
    would exceed its cap.

    Raised *before* any state mutates: a generate call that asks for
    more rows than the session has capacity left, or an
    ``observe`` batch whose fresh rows overflow the cap (rolled back
    exactly).  The serving layer surfaces this as a clean typed error a
    client can act on (roll the session over, or raise the cap)
    instead of an opaque table growth/rehash.
    """


class ServiceOverloadedError(ReproError, RuntimeError):
    """The bounded work queue is full — shed load or retry later."""


class ServiceClosedError(ReproError, RuntimeError):
    """The service was closed; no further requests are accepted."""


class SessionClosedError(ReproError, RuntimeError):
    """The session was closed (explicitly or by idle eviction)."""


class UnknownSessionError(ReproError, KeyError):
    """No live session under the requested (model, client) key."""


class UnknownModelError(ReproError, KeyError):
    """No registered (live) model under the requested name."""


class ModelDigestMismatch(ReproError, ValueError):
    """The registered model's content digest is not the one requested —
    the model under this name was replaced since the caller last saw
    it."""


class IngestDriftError(ReproError, RuntimeError):
    """The drift signal crossed the refit threshold while automatic
    refits are disabled — the caller must run
    :meth:`~repro.ingest.pipeline.IngestPipeline.refit` explicitly (or
    accept serving a model the feed has drifted away from)."""


class StaleModelError(ReproError, RuntimeError):
    """The registry entry an ingest pipeline maintains was replaced
    behind its back (another writer registered a different digest under
    the same name), so rolling the incremental refit forward would
    silently clobber someone else's model."""


class RequestTimeoutError(ReproError, RuntimeError):
    """A queued request's deadline expired before a worker picked it
    up — the work function never ran.

    Deadlines are absolute clock readings on the service's own clock
    (``HitlistService(clock=...)``); a worker compares the deadline
    against the clock *before* executing the request and sheds expired
    entries with this error on their future, so a stalled queue cannot
    make a slow client's work even later — it fails fast instead."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file could not be read back: wrong magic, an
    unsupported format version, a payload kind mismatching what the
    caller asked to restore, or a truncated/corrupt payload.  Raised
    by :func:`repro.checkpoint.load_checkpoint` and the
    ``restore``/``resume`` entry points built on it."""


class FaultPlanError(ReproError, ValueError):
    """A fault-injection plan string that cannot be parsed (see
    :mod:`repro.faults` for the ``site@selector:action`` grammar) or
    names an exception outside the injectable allowlist."""


class DriftWindowOverflowError(ReproError, RuntimeError):
    """The drift detector's pending window would exceed its configured
    ``max_pending_rows`` cap.

    Raised *before* the batch's statistics fold in (no partial
    mutation): the caller must either refit — which rebases the window
    — or accept dropping the batch.  An uncapped detector
    (``max_pending_rows=0``) never raises this; it accumulates until a
    refit rebases it."""


__all__ = [
    "CheckpointError",
    "DriftWindowOverflowError",
    "FaultPlanError",
    "IngestDriftError",
    "ModelDigestMismatch",
    "ReproError",
    "RequestTimeoutError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SessionCapacityError",
    "SessionClosedError",
    "StaleModelError",
    "UnknownModelError",
    "UnknownSessionError",
]
