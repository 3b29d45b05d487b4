"""Unit tests for the resource-governance primitives in repro.limits."""

import pickle
import time

import pytest

from repro.limits import (
    Budget,
    BudgetExceeded,
    BudgetMeter,
    DEADLINE,
    PartialStats,
    RULE_CAP,
    STATE_CAP,
)


class TestBudget:
    def test_unbounded_by_default(self):
        assert Budget().unbounded

    def test_any_dimension_makes_it_bounded(self):
        assert not Budget(deadline_ms=100).unbounded
        assert not Budget(max_explored_states=5).unbounded
        assert not Budget(max_explored_rules=5).unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": -1},
            {"max_explored_states": -1},
            {"max_explored_rules": -7},
        ],
    )
    def test_negative_limits_rejected(self, kwargs):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Budget(**kwargs)

    def test_budget_is_picklable(self):
        budget = Budget(deadline_ms=250, max_explored_states=10)
        assert pickle.loads(pickle.dumps(budget)) == budget


class TestBudgetMeter:
    def test_state_cap_charges_then_raises(self):
        meter = Budget(max_explored_states=2).start()
        meter.charge_state()
        meter.charge_state()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.charge_state()
        assert excinfo.value.reason == STATE_CAP
        assert excinfo.value.partial.explored_states == 3

    def test_rule_cap(self):
        meter = Budget(max_explored_rules=1).start()
        meter.charge_rule()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.charge_rule()
        assert excinfo.value.reason == RULE_CAP

    def test_expired_deadline_raises_on_check(self):
        meter = Budget(deadline_ms=0).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.check_deadline()
        assert excinfo.value.reason == DEADLINE

    def test_tick_eventually_notices_expired_deadline(self):
        meter = Budget(deadline_ms=0).start()
        with pytest.raises(BudgetExceeded):
            for _ in range(10_000):
                meter.tick()

    @pytest.mark.parametrize("batch", [1, 5, 127, 128, 300])
    def test_batched_ticks_read_the_clock_at_the_same_counts(self, batch):
        meter = Budget(deadline_ms=0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as excinfo:
            for _ in range(1000):
                meter.tick(batch)
        assert excinfo.value.partial.step_attempts == 128

    def test_uncapped_dimensions_never_raise(self):
        meter = Budget(deadline_ms=60_000).start()
        for _ in range(1000):
            meter.charge_state()
            meter.charge_rule()
        assert meter.states == meter.rules == 1000

    def test_snapshot_reports_counters(self):
        meter = Budget(max_explored_states=100).start()
        meter.charge_state()
        meter.charge_rule()
        meter.tick(5)
        stats = meter.snapshot("deadline")
        assert isinstance(stats, PartialStats)
        assert stats.explored_states == 1
        assert stats.explored_rules == 1
        assert stats.step_attempts == 5
        assert "deadline" in stats.describe()

    def test_meter_from_unbounded_budget(self):
        # Budget.start works even when unbounded; nothing ever raises.
        meter = Budget().start()
        assert isinstance(meter, BudgetMeter)
        meter.charge_state()
        meter.check_deadline()


class TestBudgetExceeded:
    def test_carries_partial_stats(self):
        stats = PartialStats(
            reason=STATE_CAP, explored_states=7, explored_rules=3,
            step_attempts=11,
        )
        error = BudgetExceeded(stats)
        assert error.partial is stats
        assert error.reason == STATE_CAP
        assert "7" in str(error)
