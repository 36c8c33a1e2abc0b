"""Deterministic fault injection for the exec/serve/ingest hot paths.

The fault-tolerance layer (request requeue, deadlines,
checkpoint/restore) is only trustworthy if its failure paths can be
exercised *deterministically* — "fail shard 3 of call 2" must mean
exactly that run after run, so a recovered run can be asserted
bit-identical to the fault-free one.  This module provides that: named
**fault sites** woven into the hot paths, and a declarative
:class:`FaultPlan` that arms specific faults at specific sites.

Sites currently woven in:

========================  ====================================================
``pool.shard``            inside the sharded engine's shard task, on a
                          :class:`~repro.exec.pool.WorkerPool` thread;
                          selector = Nth hit or ``call.shard``.  Nothing
                          recovers it: the fault reaches the caller
``service.worker``        a :class:`~repro.serve.service.HitlistService`
                          worker thread, just before executing a request
``ingest.refit``          start of :meth:`IngestPipeline.refit`
``checkpoint.save``       just before a checkpoint file is committed
========================  ====================================================

Cost when disarmed is one module-global load and a pointer comparison
per site — no allocation, no locking, no string formatting — so the
sites stay in the hot paths permanently (the ``fault_overhead``
benchmark stage holds this to within noise).

Plans
-----
A plan is a semicolon-separated list of rules, each
``site@selector:raise=ExcName``:

- ``selector`` is either ``N`` (the Nth time that site fires,
  1-based) or ``C.S`` (for per-shard sites: call ``C``, shard ``S``,
  both 0-based — deterministic regardless of which thread runs the
  shard).
- ``ExcName`` comes from :data:`INJECTABLE_ERRORS`.

Each rule fires **once**.  Examples::

    pool.shard@2.3:raise=RuntimeError   # fail shard 3 of call 2
    service.worker@1:raise=RuntimeError

Arm a plan for a block of code::

    with FaultPlan.parse("pool.shard@0.1:raise=RuntimeError").armed():
        model.generate_set(n, rng, workers=4)

or for a whole run via ``REPRO_FAULT_PLAN`` in the environment, which
is read once when this module is imported.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

from repro.errors import FaultPlanError

#: Environment variable holding a plan string; parsed once at import.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exceptions a ``raise=`` action may name.  A deliberately small
#: allowlist of the error types the recovery paths are written against
#: — injecting arbitrary exceptions would test nothing real.
INJECTABLE_ERRORS: Dict[str, type] = {
    "OSError": OSError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "MemoryError": MemoryError,
    "KeyboardInterrupt": KeyboardInterrupt,
    "SystemExit": SystemExit,
}


class FaultRule:
    """One armed fault: raise ``exc_name`` at ``site`` when the
    selector matches.  Plain data plus a ``fired`` latch; matching
    lives in :meth:`FaultPlan._select`."""

    __slots__ = ("site", "exc_name", "nth", "call", "shard", "fired")

    def __init__(
        self,
        site: str,
        exc_name: str,
        nth: Optional[int] = None,
        call: Optional[int] = None,
        shard: Optional[int] = None,
    ):
        self.site = site
        self.exc_name = exc_name
        self.nth = nth
        self.call = call
        self.shard = shard
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sel = f"{self.call}.{self.shard}" if self.nth is None else f"{self.nth}"
        return f"FaultRule({self.site}@{sel}:raise={self.exc_name})"


class FaultPlan:
    """A parsed set of :class:`FaultRule`\\ s plus per-site hit
    counters.  Arm with :meth:`armed` (context manager) or by setting
    :data:`PLAN_ENV` before the process imports this module."""

    def __init__(self, rules: List[FaultRule]):
        self.rules = rules
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``site@selector:raise=ExcName[;...]`` grammar above."""
        rules: List[FaultRule] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                head, action = chunk.split(":", 1)
                site, selector = head.split("@", 1)
            except ValueError:
                raise FaultPlanError(
                    f"fault rule {chunk!r} is not site@selector:action"
                ) from None
            site = site.strip()
            action = action.strip()
            if not action.startswith("raise="):
                raise FaultPlanError(
                    f"fault rule {chunk!r} action must be 'raise=ExcName'"
                )
            exc_name = action[len("raise="):]
            if exc_name not in INJECTABLE_ERRORS:
                raise FaultPlanError(
                    f"fault rule {chunk!r} names {exc_name!r}, not one "
                    f"of {'/'.join(sorted(INJECTABLE_ERRORS))}"
                )
            selector = selector.strip()
            try:
                if "." in selector:
                    call_s, shard_s = selector.split(".", 1)
                    rule = FaultRule(
                        site, exc_name, call=int(call_s), shard=int(shard_s)
                    )
                else:
                    rule = FaultRule(site, exc_name, nth=int(selector))
            except ValueError:
                raise FaultPlanError(
                    f"fault rule {chunk!r} selector must be N or CALL.SHARD"
                ) from None
            rules.append(rule)
        if not rules:
            raise FaultPlanError(f"fault plan {text!r} contains no rules")
        return cls(rules)

    # -- matching ------------------------------------------------------

    def _select(
        self, site: str, call: Optional[int], shard: Optional[int]
    ) -> Optional[FaultRule]:
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for rule in self.rules:
                if rule.site != site or rule.fired:
                    continue
                if rule.nth is not None:
                    matched = hit == rule.nth
                else:
                    matched = (call, shard) == (rule.call, rule.shard)
                if matched:
                    rule.fired = True
                    return rule
        return None

    def hits(self, site: str) -> int:
        """How many times ``site`` has fired."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self) -> int:
        """How many rules have triggered."""
        with self._lock:
            return sum(1 for rule in self.rules if rule.fired)

    # -- arming --------------------------------------------------------

    def armed(self) -> "_ArmedPlan":
        """Context manager arming this plan process-wide."""
        return _ArmedPlan(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.rules!r})"


class _ArmedPlan:
    def __init__(self, plan: FaultPlan):
        self._plan = plan
        self._prev_plan: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _PLAN
        self._prev_plan = _PLAN
        _PLAN = self._plan
        return self._plan

    def __exit__(self, *exc_info) -> None:
        global _PLAN
        _PLAN = self._prev_plan


def _plan_from_env() -> Optional[FaultPlan]:
    text = os.environ.get(PLAN_ENV)
    if not text:
        return None
    return FaultPlan.parse(text)


#: The armed plan, or ``None`` (the common case).  Every fault site
#: reads this exactly once; ``None`` short-circuits before any other
#: work.
_PLAN: Optional[FaultPlan] = _plan_from_env()


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any (for counters/introspection)."""
    return _PLAN


def fault_point(
    site: str, call: Optional[int] = None, shard: Optional[int] = None
) -> None:
    """A named fault site.  No-op unless a plan is armed and one of its
    unfired rules matches this hit."""
    plan = _PLAN
    if plan is None:
        return
    rule = plan._select(site, call, shard)
    if rule is None:
        return
    raise INJECTABLE_ERRORS[rule.exc_name](
        f"injected fault at {site} "
        f"({'hit ' + str(rule.nth) if rule.nth is not None else f'call {rule.call} shard {rule.shard}'})"
    )


__all__ = [
    "INJECTABLE_ERRORS",
    "PLAN_ENV",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
]
