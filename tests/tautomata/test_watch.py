"""Watch sets: the symbols a horizontal language can ever step on.

The worklist engine skips every (frontier state, symbol) pair a rule's
watch set rules out.  Two properties make that invisible, checked over
the same inputs — random trace automata, the workload schemas'
automata, and the product rules built from them: Proposition 3's
flagged product ``B`` and ``A_S × B``, and the lazy pipeline's row
factor ``A_S × A_FD`` and the flagged product over its fired rules:

* soundness: a ruled-out symbol steps every horizontal state the
  frontier can reach to ``None``;
* same run: the engine matches a run in which every language reports
  "unknown" — the same firings in the same order with the same words,
  the same fired rules and step attempts, and the same partial stats
  under a state cap and an expired deadline.
"""

import random
import time

import pytest

from repro.independence.language import dangerous_factors, flagged_combines
from repro.limits import Budget, BudgetExceeded
from repro.regex.dfa import compile_regex
from repro.schema.automaton import schema_automaton
from repro.tautomata.from_pattern import trace_automaton
from repro.tautomata.hedge import Rule
from repro.tautomata.horizontal import (
    AllHorizontal,
    DFAHorizontal,
    EmptyWordHorizontal,
    FlagOnceHorizontal,
    HorizontalLanguage,
    ProductHorizontal,
    ProjectedHorizontal,
    ShuffleHorizontal,
)
from repro.tautomata.lazy import (
    RuleIndex,
    analyze_factor,
    pair_combine,
    product_factor,
)
from repro.tautomata.worklist import InhabitationEngine
from repro.workload.exams import exam_schema, paper_patterns
from repro.workload.library import (
    library_fds,
    library_schema,
    library_update_classes,
)
from repro.workload.packages import (
    package_fds,
    package_schema,
    package_update_classes,
)
from repro.workload.random_patterns import random_pattern

LABELS = ("a", "b", "c")


def _random_automaton(seed: int):
    rng = random.Random(seed)
    pattern = random_pattern(
        rng, LABELS, node_count=rng.randint(2, 5), max_length=2
    )
    return trace_automaton(
        pattern, set(LABELS), track_regions=seed % 2 == 0
    ).automaton


def _cells():
    """(schema, fd, update class) triples of the three workloads."""
    library_updates = list(library_update_classes().values())
    package_updates = list(package_update_classes().values())
    paper = paper_patterns()
    return {
        "library": [
            (library_schema(), fd, update)
            for fd in library_fds()[1:]
            for update in library_updates[:2]
        ],
        "packages": [
            (package_schema(), fd, update)
            for fd in package_fds()[:2]
            for update in package_updates[:2]
        ],
        "exams": [
            (exam_schema(), fd, paper.update_class)
            for fd in (paper.fd1, paper.fd2)
        ],
    }


CELLS = _cells()
CELL_IDS = [
    f"{name}-{index}"
    for name, cells in CELLS.items()
    for index in range(len(cells))
]
CELL_LIST = [cell for cells in CELLS.values() for cell in cells]


def _product_levels(schema, fd, update_class):
    """The rules of ``B``, ``A_S × B``, the row factor ``A_S × A_FD``
    and the flagged product over the row factor's fired rules, each
    generated as the lazy pipeline generates a product level."""
    fd_automaton, u_automaton, schema_hedge = dangerous_factors(
        fd.pattern, update_class, schema
    )
    fd_factor = analyze_factor(fd_automaton.automaton)
    u_factor = analyze_factor(u_automaton.automaton)
    schema_factor = analyze_factor(schema_hedge)

    def flagged_over(left, with_schema):
        combines = flagged_combines(fd_automaton, u_automaton, with_schema)
        return [
            rule
            for left_rule in left.fireable
            for u_rule in u_factor.index.compatible(left_rule.labels)
            for combine in combines
            for rule in combine(left_rule, u_rule)
        ]

    def pairs(left, right_index):
        return [
            rule
            for left_rule in left.fireable
            for right_rule in right_index.compatible(left_rule.labels)
            for rule in pair_combine(left_rule, right_rule)
        ]

    flagged = flagged_over(fd_factor, False)
    engine = InhabitationEngine(typed=True, track_rules=True)
    engine.add_rules(flagged)
    engine.run()
    return {
        "flagged": flagged,
        "product": pairs(schema_factor, RuleIndex(engine.fired_rules)),
        "row": pairs(schema_factor, fd_factor.index),
        "cell": flagged_over(product_factor(schema_factor, fd_factor), True),
    }


def _rule_sets():
    """Every input of both parts, by id."""
    sets = {}
    for seed in range(12):
        sets[f"trace-{seed}"] = _random_automaton(seed).rules
    for name, build in (
        ("library", library_schema),
        ("packages", package_schema),
        ("exams", exam_schema),
    ):
        sets[f"schema-{name}"] = schema_automaton(build()).rules
    for cell_id, cell in zip(CELL_IDS, CELL_LIST):
        for level, rules in _product_levels(*cell).items():
            sets[f"{level}-{cell_id}"] = rules
    return sets


RULE_SETS = _rule_sets()


class _Unknown(HorizontalLanguage):
    """Delegates everything but the watch set (the base "unknown")."""

    def __init__(self, inner: HorizontalLanguage) -> None:
        self.inner = inner

    def initial(self):
        return self.inner.initial()

    def step(self, state, symbol):
        return self.inner.step(state, symbol)

    def accepting(self, state):
        return self.inner.accepting(state)

    def size(self):
        return self.inner.size()


def _unknown(rules):
    return [
        Rule(
            state=rule.state,
            labels=rule.labels,
            horizontal=_Unknown(rule.horizontal),
        )
        for rule in rules
    ]


def _key(symbol, path):
    for index in path:
        symbol = symbol[index]
    return symbol


def _inhabited(rules):
    engine = InhabitationEngine(typed=True)
    engine.add_rules(rules)
    engine.run()
    return list(engine.firings)


class TestLeafBounds:
    def test_leaf_languages(self):
        assert EmptyWordHorizontal().watch() == ((), frozenset())
        assert AllHorizontal({"x"}).watch() == ((), frozenset({"x"}))
        shuffle = ShuffleHorizontal({"f"}, [{"r1"}, {"r2", "f"}])
        assert shuffle.watch() == ((), frozenset({"f", "r1", "r2"}))
        assert FlagOnceHorizontal(1).watch() is None

    def test_dfa_bound_is_the_live_to_live_labels(self):
        # a b* c: "d" is in the alphabet but only leads to the sink
        dfa = compile_regex("a b* c", extra_alphabet={"d"})
        assert DFAHorizontal(dfa).watch() == ((), frozenset("abc"))

    def test_dfa_with_a_live_other_edge_is_unknown(self):
        dfa = compile_regex("a ~*")
        assert dfa.live_labels() is None
        assert DFAHorizontal(dfa).watch() is None

    def test_projection_prepends_and_product_takes_the_first_bound(self):
        shuffle = ShuffleHorizontal({"f"}, [])
        inner = ProjectedHorizontal(shuffle, 1)
        product = ProductHorizontal(
            [FlagOnceHorizontal(0), ProjectedHorizontal(inner, 0)]
        )
        assert product.watch() == ((0, 1), frozenset({"f"}))
        assert ProductHorizontal([FlagOnceHorizontal(0)]).watch() is None

    def test_flattened_product_prefixes_the_leaf_path(self):
        shuffle = ShuffleHorizontal({"f"}, [])
        row = ProductHorizontal(
            [
                ProjectedHorizontal(FlagOnceHorizontal(0), 0),
                ProjectedHorizontal(shuffle, 1),
            ]
        )
        cell = ProductHorizontal(
            [ProjectedHorizontal(row, 0), FlagOnceHorizontal(0)]
        )
        assert cell.paths == [(0, 0), (0, 1), ()]
        assert cell.watch() == ((0, 1), frozenset({"f"}))


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(RULE_SETS))
    def test_ruled_out_symbols_step_to_none(self, name):
        """From every horizontal state reachable over inhabited symbols
        (every rule state, for the factor automata), a symbol outside the
        watch set steps to ``None``."""
        rules = RULE_SETS[name]
        if name.startswith(("trace", "schema")):
            symbols = list(dict.fromkeys(rule.state for rule in rules))
        else:
            symbols = _inhabited(rules)
        for rule in rules:
            horizontal = rule.horizontal
            watch = horizontal.watch()
            # every language these inputs build has a finite bound
            assert watch is not None, rule
            path, admitted = watch
            ruled_out = [s for s in symbols if _key(s, path) not in admitted]
            if not ruled_out:
                continue
            reached = {horizontal.initial()}
            pending = list(reached)
            while pending:
                h_state = pending.pop()
                for symbol in ruled_out:
                    assert horizontal.step(h_state, symbol) is None, (
                        rule,
                        h_state,
                        symbol,
                    )
                for symbol in symbols:
                    target = horizontal.step(h_state, symbol)
                    if target is not None and target not in reached:
                        reached.add(target)
                        pending.append(target)


def _outcome(rules, track_rules, budget=None, staged=False, retracted=None):
    """Everything observable about one engine run over ``rules``.

    ``staged`` feeds the rules in two halves with a run in between (how
    lazy callers add rules late); ``retracted`` names rule positions to
    retract from an incremental engine after the run.
    """
    meter = None
    if budget is not None:
        meter = budget.start()
        if budget.deadline_ms == 0:
            time.sleep(0.002)  # expired by the first clock read
    engine = InhabitationEngine(
        typed=True,
        record_parents=True,
        track_rules=track_rules,
        meter=meter,
        incremental=retracted is not None,
    )
    half = len(rules) // 2 if staged else len(rules)
    try:
        for batch in (rules[:half], rules[half:]):
            engine.add_rules(batch)
            engine.run()
        if retracted is not None:
            engine.retract_rules(rules[index] for index in retracted)
    except BudgetExceeded as exceeded:
        return exceeded.partial
    position = {id(rule): index for index, rule in enumerate(rules)}
    return (
        [
            (state, position[id(rule)], word)
            for state, (rule, word) in engine.firings.items()
        ],
        [position[id(rule)] for rule in engine.fired_rules],
        engine.step_attempts,
        engine.rounds,
        None if meter is None else meter.step_attempts,
    )


class TestSameRunAsUnknown:
    @pytest.mark.parametrize("staged", [False, True])
    @pytest.mark.parametrize("track_rules", [False, True])
    @pytest.mark.parametrize("name", sorted(RULE_SETS))
    def test_firings_words_and_attempts(self, name, track_rules, staged):
        rules = RULE_SETS[name]
        filtered = _outcome(rules, track_rules, staged=staged)
        assert filtered == _outcome(
            _unknown(rules), track_rules, staged=staged
        )
        assert filtered[0]  # the comparison saw some firings

    @pytest.mark.parametrize("name", sorted(RULE_SETS))
    def test_partial_stats_under_budgets(self, name):
        rules = RULE_SETS[name]
        states = len(_inhabited(rules))
        budgets = [Budget(deadline_ms=0)] + [
            Budget(max_explored_states=cap)
            for cap in sorted({0, states // 3, states // 2, states - 1, states})
        ]
        for budget in budgets:
            for track_rules in (False, True):
                for staged in (False, True):
                    assert _outcome(
                        rules, track_rules, budget, staged
                    ) == _outcome(
                        _unknown(rules), track_rules, budget, staged
                    ), (budget, track_rules, staged)

    def test_expired_deadline_stops_the_run(self):
        # the widest product level has more than one clock read's worth
        # of step attempts, so the deadline really cuts it short
        name = max(
            (name for name in RULE_SETS if name.startswith("product")),
            key=lambda name: len(RULE_SETS[name]),
        )
        partial = _outcome(RULE_SETS[name], False, Budget(deadline_ms=0))
        assert partial.reason == "deadline"

    @pytest.mark.parametrize("seed", range(8))
    def test_retraction_keeps_the_projected_keys_aligned(self, seed):
        rules = RULE_SETS[f"product-{CELL_IDS[seed % len(CELL_IDS)]}"]
        rng = random.Random(seed)
        retracted = [
            index for index in range(len(rules)) if rng.random() < 0.4
        ]
        budget = Budget(max_explored_states=10**6)
        for track_rules in (False, True):
            assert _outcome(
                rules, track_rules, budget, retracted=retracted
            ) == _outcome(
                _unknown(rules), track_rules, budget, retracted=retracted
            )
