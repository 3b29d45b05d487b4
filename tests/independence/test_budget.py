"""Budgeted runs of the criterion: UNKNOWN semantics and determinism.

Four properties pin down the degradation layer:

* **non-interference** — ``budget=None`` and a generous budget both
  reproduce the unbounded verdict exactly (the meter only observes);
* **determinism** — the state/rule caps charge at insertion-ordered
  counter points, so the same instance under the same cap yields the
  same UNKNOWN snapshot on every run (only deadline snapshots may
  vary);
* **order independence** — a budgeted matrix cell gets the same
  verdict whichever cell ran first, so a resumed, drifted or permuted
  matrix agrees with a cold one;
* **soundness routing** — an UNKNOWN result reports
  ``needs_revalidation`` and the router in
  :mod:`repro.independence.revalidate` actually takes the fallback.

The instance sampler is shared with the lazy-vs-eager equivalence suite
so budgeted behaviour is exercised on the same randomized population.
"""

import pytest

from repro.independence.criterion import (
    EAGER,
    LAZY,
    Verdict,
    check_independence,
)
from repro.independence.matrix import check_independence_matrix
from repro.independence.views import check_view_independence
from repro.limits import Budget, DEADLINE, RULE_CAP, STATE_CAP
from tests.independence.test_lazy_criterion import _random_triple
from tests.independence.test_matrix import _schema, _workload

TINY = Budget(max_explored_states=3, max_explored_rules=3)
GENEROUS = Budget(
    deadline_ms=60_000, max_explored_states=10**6, max_explored_rules=10**6
)


class TestNonInterference:
    @pytest.mark.parametrize("seed", range(25))
    def test_generous_budget_reproduces_unbounded_verdict(self, seed):
        fd, update_class, schema = _random_triple(seed)
        # pinned lazy: the exploration-stats comparison below needs the
        # lazy accounting regardless of what strategy="auto" would pick
        unbounded = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=LAZY,
        )
        bounded = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            budget=GENEROUS, strategy=LAZY,
        )
        assert bounded.verdict == unbounded.verdict
        assert bounded.decided
        assert bounded.partial is None
        assert bounded.exploration is not None
        assert (
            bounded.exploration.explored_rules
            == unbounded.exploration.explored_rules
        )

    @pytest.mark.parametrize("strategy", [LAZY, EAGER])
    def test_unbounded_budget_object_is_a_noop(self, strategy):
        fd, update_class, schema = _random_triple(7)
        plain = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=strategy,
        )
        with_budget = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=strategy, budget=Budget(),
        )
        assert with_budget.verdict == plain.verdict


class TestUnknownVerdict:
    @pytest.mark.parametrize("seed", range(25))
    def test_tiny_caps_yield_unknown_with_partial_stats(self, seed):
        fd, update_class, schema = _random_triple(seed)
        result = check_independence(
            fd, update_class, schema=schema, want_witness=False, budget=TINY
        )
        # 3 states/rules cannot complete any real product exploration
        assert result.verdict is Verdict.UNKNOWN
        assert not result.decided
        assert result.needs_revalidation
        assert result.witness is None
        assert result.partial is not None
        assert result.unknown_reason in (STATE_CAP, RULE_CAP)
        assert "budget exhausted" in result.describe()
        assert "revalidation" in result.describe()

    def test_expired_deadline_yields_unknown(self):
        fd, update_class, schema = _random_triple(1)
        result = check_independence(
            fd, update_class, schema=schema,
            budget=Budget(deadline_ms=0),
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == DEADLINE

    @pytest.mark.parametrize("strategy", [LAZY, EAGER])
    def test_both_strategies_degrade(self, strategy):
        fd, update_class, schema = _random_triple(2)
        result = check_independence(
            fd, update_class, schema=schema, strategy=strategy,
            budget=Budget(deadline_ms=0),
        )
        assert result.verdict is Verdict.UNKNOWN

    def test_view_independence_degrades_too(self):
        import random

        from repro.workload.random_patterns import (
            random_pattern,
            random_update_class,
        )

        rng = random.Random(11)
        view = random_pattern(rng, ("a", "b", "c"), node_count=3, max_length=2)
        update_class = random_update_class(
            rng, ("a", "b", "c"), node_count=2, max_length=2
        )
        result = check_view_independence(view, update_class, budget=TINY)
        assert result.verdict is Verdict.UNKNOWN
        assert result.needs_revalidation
        assert result.partial is not None


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(15))
    def test_capped_runs_stop_at_identical_snapshots(self, seed):
        fd, update_class, schema = _random_triple(seed)
        budget = Budget(max_explored_states=5, max_explored_rules=8)
        first = check_independence(
            fd, update_class, schema=schema, budget=budget
        )
        second = check_independence(
            fd, update_class, schema=schema, budget=budget
        )
        assert first.verdict == second.verdict
        if first.verdict is Verdict.UNKNOWN:
            assert first.partial == second.partial

    @pytest.mark.parametrize("seed", range(10))
    def test_raising_the_cap_monotonically_decides(self, seed):
        """Some finite cap always suffices; once decided, the verdict
        matches the unbounded one."""
        fd, update_class, schema = _random_triple(seed)
        unbounded = check_independence(
            fd, update_class, schema=schema, want_witness=False
        )
        for cap in (4, 64, 4096, 10**6):
            result = check_independence(
                fd, update_class, schema=schema, want_witness=False,
                budget=Budget(
                    max_explored_states=cap, max_explored_rules=cap
                ),
            )
            if result.decided:
                assert result.verdict == unbounded.verdict
                break
        else:
            pytest.fail("a 10^6 state/rule cap should decide any test triple")


class TestCellOrder:
    @pytest.mark.parametrize("with_schema", (False, True))
    @pytest.mark.parametrize("seed", (0, 1, 4, 7))
    def test_budgeted_matrix_equals_its_column_reversed_twin(
        self, seed, with_schema
    ):
        """A cell's budgeted verdict does not depend on which cell built
        the factors it shares: every shared build runs on a fork of its
        own, so a reversed column order meets the same caps."""
        fds, update_classes = _workload(seed, rows=3, columns=3)
        schema = _schema() if with_schema else None
        for cap in range(5, 78, 3):
            budget = Budget(max_explored_rules=cap)
            forward = check_independence_matrix(
                fds, update_classes, schema=schema, budget=budget
            )
            reversed_ = check_independence_matrix(
                fds, update_classes[::-1], schema=schema, budget=budget
            )
            assert [
                [cell.verdict for cell in row] for row in forward.cells
            ] == [
                [cell.verdict for cell in row[::-1]]
                for row in reversed_.cells
            ], cap


class TestFallbackRouting:
    def test_unknown_routes_to_revalidation(self):
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        fd, update_class, _schema = _random_triple(4)
        result = check_independence(fd, update_class, budget=TINY)
        assert result.verdict is Verdict.UNKNOWN
        document = parse_document("<a><b/></a>")
        update = Update(update_class, keep_unchanged(), name="noop")
        routed = apply_with_fallback(result, document, update)
        assert routed.revalidated
        assert routed.revalidation is not None
        # identity performer: FD satisfaction is whatever it was before
        assert routed.fd_preserved == routed.revalidation.satisfied_after

    def test_independent_skips_revalidation(self):
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        for seed in range(40):
            fd, update_class, schema = _random_triple(seed)
            if schema is not None:
                continue
            result = check_independence(fd, update_class)
            if result.independent:
                break
        else:
            pytest.fail("sampler produced no schemaless INDEPENDENT triple")
        document = parse_document("<a><b/></a>")
        update = Update(update_class, keep_unchanged(), name="noop")
        routed = apply_with_fallback(result, document, update)
        assert not routed.revalidated
        assert routed.fd_preserved
        assert routed.revalidation is None

    def test_mismatched_update_class_rejected(self):
        from repro.errors import IndependenceError
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        fd, update_class, _schema = _random_triple(4)
        _fd2, other_class, _schema2 = _random_triple(5)
        other_class.name = "a-different-class"
        result = check_independence(fd, update_class)
        update = Update(other_class, keep_unchanged(), name="stray")
        with pytest.raises(IndependenceError):
            apply_with_fallback(
                result, parse_document("<a/>"), update
            )
