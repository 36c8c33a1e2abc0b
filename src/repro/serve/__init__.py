"""Hitlist-as-a-service runtime: registry, session lifecycle, facade.

Three layers over the core library, each usable alone:

- :mod:`repro.serve.registry` — :class:`ModelRegistry`: fitted
  :class:`~repro.core.pipeline.EntropyIP` models warm in memory, keyed
  by name + content digest, LRU/TTL bounded.
- :mod:`repro.serve.lifecycle` — :class:`SessionManager`: warm
  :class:`~repro.core.model.GenerationSession` streams per
  (model, client), with capacity caps, idle eviction, and explicit
  close/rollover.  :class:`SessionSpec` is the canonical
  session-opening recipe shared by every entry point.
- :mod:`repro.serve.service` — :class:`HitlistService`: the
  thread-safe concurrent facade with bounded-queue backpressure and
  per-request latency accounting.
"""

from repro.serve.lifecycle import (
    ManagedSession,
    SessionClosedError,
    SessionManager,
    SessionSpec,
    UnknownSessionError,
)
from repro.serve.registry import (
    ModelDigestMismatch,
    ModelEntry,
    ModelRegistry,
    UnknownModelError,
    model_digest,
)
from repro.serve.service import (
    HitlistService,
    ServiceClosedError,
    ServiceOverloadedError,
)

__all__ = [
    "HitlistService",
    "ManagedSession",
    "ModelDigestMismatch",
    "ModelEntry",
    "ModelRegistry",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SessionClosedError",
    "SessionManager",
    "SessionSpec",
    "UnknownModelError",
    "UnknownSessionError",
    "model_digest",
]
