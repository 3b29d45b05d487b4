"""The default strategy: auto must be invisible in the verdicts.

``strategy="auto"`` (the default) resolves to lazy.  The criterion's
*outputs* must be bit-for-bit what both fixed strategies produce — the
strategies decide the same emptiness, so the choice can only ever
change the wall time, never a verdict, a witness-emptiness bit, or the
UNKNOWN routing.  The randomized differential suite below pins that
over 200+ instances.
"""

import pytest

from repro.errors import IndependenceError
from repro.independence.criterion import (
    AUTO,
    EAGER,
    LAZY,
    check_independence,
)
from repro.independence.matrix import check_independence_matrix
from repro.independence.views import check_view_independence
from tests.independence.test_lazy_criterion import _random_triple

SEEDS = range(200)


class TestDifferentialEquivalence:
    """auto == lazy == eager on every randomized instance."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_auto_matches_both_fixed_strategies(self, seed):
        fd, update_class, schema = _random_triple(seed)
        auto = check_independence(
            fd, update_class, schema=schema, want_witness=True,
            strategy=AUTO,
        )
        lazy = check_independence(
            fd, update_class, schema=schema, want_witness=True,
            strategy=LAZY,
        )
        eager = check_independence(
            fd, update_class, schema=schema, want_witness=True,
            strategy=EAGER,
        )
        assert auto.verdict == lazy.verdict == eager.verdict
        assert (
            (auto.witness is None)
            == (lazy.witness is None)
            == (eager.witness is None)
        )
        # the result reports the *resolved* strategy, never "auto"
        assert auto.strategy == LAZY

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_auto_view_matches_both_fixed_strategies(self, seed):
        fd, update_class, schema = _random_triple(seed)
        view = fd.pattern
        results = {
            strategy: check_view_independence(
                view, update_class, schema=schema, want_witness=True,
                strategy=strategy,
            )
            for strategy in (AUTO, LAZY, EAGER)
        }
        verdicts = {r.verdict for r in results.values()}
        assert len(verdicts) == 1
        witness_bits = {r.witness is None for r in results.values()}
        assert len(witness_bits) == 1

    def test_auto_is_deterministic(self):
        fd, update_class, schema = _random_triple(11)
        first = check_independence(fd, update_class, schema=schema)
        second = check_independence(fd, update_class, schema=schema)
        assert first.verdict == second.verdict
        assert first.strategy == second.strategy
        if first.exploration is not None:
            assert (
                first.exploration.explored_rules
                == second.exploration.explored_rules
            )

    def test_matrix_auto_matches_fixed_strategies(self):
        workload = [_random_triple(seed) for seed in range(6)]
        fds = [fd for fd, _, _ in workload]
        update_classes = [uc for _, uc, _ in workload[:3]]
        grids = {
            strategy: check_independence_matrix(
                fds, update_classes, strategy=strategy
            )
            for strategy in (AUTO, LAZY, EAGER)
        }
        reference = [
            [cell.verdict for cell in row] for row in grids[LAZY].cells
        ]
        for strategy in (AUTO, EAGER):
            assert [
                [cell.verdict for cell in row]
                for row in grids[strategy].cells
            ] == reference


class TestValidation:
    def test_unknown_strategy_rejected_everywhere(self):
        fd, update_class, schema = _random_triple(3)
        with pytest.raises(IndependenceError, match="auto"):
            check_independence(fd, update_class, strategy="greedy")
        with pytest.raises(IndependenceError, match="auto"):
            check_view_independence(
                fd.pattern, update_class, strategy="greedy"
            )
        with pytest.raises(IndependenceError, match="auto"):
            check_independence_matrix(
                [fd], [update_class], strategy="greedy"
            )
