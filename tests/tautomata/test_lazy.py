"""On-the-fly product exploration vs the eager product construction.

``lazy_product_is_empty`` must decide exactly the emptiness of
``product_automaton(left, right)`` — the randomized suite below samples
trace-automaton pairs and compares verdicts in both the typed and the
untyped regime, and checks the explored-vs-worst-case accounting.
"""

import random

import pytest

from repro.tautomata.emptiness import (
    automaton_is_empty,
    automaton_is_empty_typed,
)
from repro.tautomata.from_pattern import trace_automaton
from repro.tautomata.hedge import LabelSpec, Rule
from repro.tautomata.horizontal import AllHorizontal
from repro.tautomata.lazy import (
    RuleIndex,
    analyze_factor,
    cached_factor,
    lazy_product_is_empty,
)
from repro.tautomata.ops import product_automaton
from repro.workload.random_patterns import random_pattern

LABELS = ("a", "b", "c")


def _random_pair(seed: int):
    rng = random.Random(seed)
    left = random_pattern(
        rng, LABELS, node_count=rng.randint(2, 4), max_length=2
    )
    right = random_pattern(
        rng, LABELS, node_count=rng.randint(2, 4), max_length=2
    )
    alphabet = set(LABELS)
    return (
        trace_automaton(left, alphabet, track_regions=True).automaton,
        trace_automaton(right, alphabet, track_regions=False).automaton,
    )


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_typed_emptiness_matches_eager(self, seed):
        left, right = _random_pair(seed)
        eager = product_automaton(left, right)
        lazy_empty, stats = lazy_product_is_empty(left, right, typed=True)
        assert lazy_empty == automaton_is_empty_typed(eager)
        assert stats.explored_rules <= stats.worst_case_rules

    @pytest.mark.parametrize("seed", range(15))
    def test_untyped_emptiness_matches_eager(self, seed):
        left, right = _random_pair(seed + 1000)
        eager = product_automaton(left, right)
        lazy_empty, _ = lazy_product_is_empty(left, right, typed=False)
        assert lazy_empty == automaton_is_empty(eager)

    @pytest.mark.parametrize("seed", range(10))
    def test_exploration_never_exceeds_eager_size(self, seed):
        left, right = _random_pair(seed)
        eager = product_automaton(left, right)
        _, stats = lazy_product_is_empty(left, right, typed=True)
        assert stats.explored_states <= len(eager.states())
        assert stats.worst_case_rules == len(left.rules) * len(right.rules)


def _spec_from_seed(rng: random.Random) -> LabelSpec:
    labels = rng.sample(LABELS, rng.randint(0, len(LABELS)))
    if rng.random() < 0.5:
        return LabelSpec.exactly(*labels)
    return LabelSpec.excluding(labels)


class TestRuleIndex:
    @pytest.mark.parametrize("seed", range(25))
    def test_compatible_equals_brute_force(self, seed):
        """The label-partition index yields exactly the rules whose
        specification intersects the probe — no more, no fewer."""
        rng = random.Random(seed)
        rules = [
            Rule(
                state=f"q{index}",
                labels=_spec_from_seed(rng),
                horizontal=AllHorizontal(frozenset()),
            )
            for index in range(rng.randint(1, 12))
        ]
        index = RuleIndex(rules)
        for _ in range(6):
            probe = _spec_from_seed(rng)
            expected = {
                id(rule)
                for rule in rules
                if not rule.labels.intersect(probe).is_empty()
            }
            found = [id(rule) for rule in index.compatible(probe)]
            assert len(found) == len(set(found))  # no duplicates
            assert set(found) == expected
            mask = index.compatible_mask(probe)
            assert {
                id(rule)
                for position, rule in enumerate(rules)
                if (mask >> position) & 1
            } == expected


class TestCachedFactor:
    def test_cache_keys_hold_the_automaton_strongly(self):
        """Regression: the cache must key by the automaton object, not
        ``id()`` — a dict entry keyed by a freed automaton's address can
        alias a later automaton that reuses it and hand back a stale
        analysis for a different FD/view."""
        left, _ = _random_pair(0)
        cache: dict = {}
        analysis = cached_factor(left, typed=True, cache=cache)
        assert cached_factor(left, typed=True, cache=cache) is analysis
        assert all(key[0] is left for key in cache)

    def test_distinct_automata_get_distinct_entries(self):
        left, right = _random_pair(1)
        cache: dict = {}
        cached_factor(left, typed=True, cache=cache)
        cached_factor(right, typed=True, cache=cache)
        cached_factor(left, typed=False, cache=cache)
        assert len(cache) == 3


class TestFactorAnalysis:
    @pytest.mark.parametrize("seed", range(10))
    def test_fireable_rules_have_inhabited_states(self, seed):
        left, _ = _random_pair(seed)
        analysis = analyze_factor(left, typed=True)
        assert analysis.rule_count == len(left.rules)
        assert analysis.pruned_rule_count <= analysis.rule_count
        for rule in analysis.fireable:
            assert rule.state in analysis.inhabited
