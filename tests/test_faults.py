"""The deterministic fault-injection harness: grammar, arming, latches."""

import os

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    INJECTABLE_ERRORS,
    PLAN_ENV,
    FaultPlan,
    active_plan,
    fault_point,
)


class TestParse:
    def test_nth_selector(self):
        plan = FaultPlan.parse("service.worker@5:raise=OSError")
        (rule,) = plan.rules
        assert rule.site == "service.worker"
        assert rule.nth == 5
        assert rule.exc_name == "OSError"

    def test_call_shard_selector(self):
        plan = FaultPlan.parse("pool.shard@2.3:raise=RuntimeError")
        (rule,) = plan.rules
        assert (rule.call, rule.shard) == (2, 3)
        assert rule.nth is None
        assert rule.exc_name == "RuntimeError"

    def test_multiple_rules_and_whitespace(self):
        plan = FaultPlan.parse(
            " pool.shard@0.1:raise=OSError ;"
            " service.worker@1:raise=RuntimeError ;"
        )
        assert len(plan.rules) == 2

    @pytest.mark.parametrize("text", [
        "no-selector-or-action",
        "site@1",                      # no action
        "site@1:explode",              # unknown action
        "site@1:raise=NameError",      # not in the allowlist
        "site@x:raise=OSError",        # non-integer selector
        "site@1.2.3:raise=OSError",    # malformed call.shard
        "",                            # no rules at all
        " ; ; ",
    ])
    def test_rejects_bad_grammar(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    def test_allowlist_covers_recovery_paths(self):
        assert {"OSError", "RuntimeError", "KeyboardInterrupt",
                "SystemExit"} <= set(INJECTABLE_ERRORS)


class TestArming:
    def test_disarmed_site_is_a_no_op(self):
        assert active_plan() is None
        fault_point("service.worker")
        fault_point("pool.shard", call=0, shard=0)

    def test_armed_rule_fires_exactly_once(self):
        plan = FaultPlan.parse("s@2:raise=ValueError")
        with plan.armed():
            fault_point("s")  # hit 1: no match
            with pytest.raises(ValueError, match="injected fault at s"):
                fault_point("s")  # hit 2: fires
            for _ in range(5):
                fault_point("s")  # the rule never re-fires
        assert plan.fired() == 1
        assert plan.hits("s") == 7

    def test_call_shard_rule_matches_coordinates_not_order(self):
        plan = FaultPlan.parse("s@1.2:raise=RuntimeError")
        with plan.armed():
            fault_point("s", call=0, shard=2)
            fault_point("s", call=1, shard=0)
            with pytest.raises(RuntimeError):
                fault_point("s", call=1, shard=2)
        assert plan.fired() == 1

    def test_armed_block_restores_prior_state(self):
        before_plan = active_plan()
        before_env = os.environ.get(PLAN_ENV)
        plan = FaultPlan.parse("s@1:raise=OSError")
        with plan.armed() as armed:
            assert active_plan() is armed is plan
            # Arming is in-process only: the environment is untouched.
            assert os.environ.get(PLAN_ENV) == before_env
        assert active_plan() is before_plan

    def test_nested_arming_restores_outer_plan(self):
        outer = FaultPlan.parse("a@1:raise=OSError")
        inner = FaultPlan.parse("b@1:raise=OSError")
        with outer.armed():
            with inner.armed():
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None


class TestEnvArming:
    def test_plan_round_trips_through_env(self):
        from repro.faults import _plan_from_env

        os.environ[PLAN_ENV] = (
            "pool.shard@0.1:raise=RuntimeError;s@3:raise=MemoryError"
        )
        try:
            plan = _plan_from_env()
        finally:
            del os.environ[PLAN_ENV]
        assert plan is not None
        assert len(plan.rules) == 2
        assert plan.rules[0].exc_name == "RuntimeError"

    def test_empty_env_means_no_plan(self):
        from repro.faults import _plan_from_env

        assert os.environ.get(PLAN_ENV) is None
        assert _plan_from_env() is None
