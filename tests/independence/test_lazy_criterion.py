"""Randomized lazy-vs-eager equivalence of the criterion IC.

The on-the-fly exploration and the materialized Proposition 3 pipeline
must return the same verdict on every (FD, update class[, schema])
triple; when the lazy path reports UNKNOWN with a witness, that witness
must actually be accepted by the eager automaton for the dangerous
language.  Together with the product-level suites in
``tests/tautomata``, this samples well over 200 randomized instances.
"""

import random

import pytest

from repro.independence import language
from repro.independence.criterion import EAGER, LAZY, check_independence
from repro.independence.language import dangerous_language
from repro.independence.matrix import check_independence_matrix
from repro.independence.views import check_view_independence
from repro.obs.trace import InMemorySpanCollector, Tracer, installed_tracer
from repro.schema.dtd import Schema
from repro.tautomata import lazy
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_pattern,
    random_update_class,
)

LABELS = ("a", "b", "c")


def _random_schema(rng: random.Random) -> Schema:
    """A small random DTD over the shared label set plus a root."""
    rules = {}
    for label in LABELS:
        if rng.random() < 0.3:
            rules[label] = "#text"
        else:
            children = rng.sample(LABELS, rng.randint(1, 2))
            rules[label] = " ".join(
                f"{child}{rng.choice(['*', '?', ''])}" for child in children
            )
    document_element = rng.choice(LABELS)
    return Schema.from_rules(document_element, rules)


def _random_triple(seed: int):
    rng = random.Random(seed)
    # random_functional_dependency needs >= condition_count + 2 nodes
    fd = random_functional_dependency(
        rng, LABELS, node_count=rng.randint(3, 4), max_length=2
    )
    update_class = random_update_class(
        rng, LABELS, node_count=rng.randint(1, 3), max_length=2
    )
    schema = _random_schema(rng) if seed % 2 else None
    return fd, update_class, schema


class TestVerdictEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_lazy_matches_eager(self, seed):
        fd, update_class, schema = _random_triple(seed)
        lazy = check_independence(
            fd, update_class, schema=schema, want_witness=False, strategy=LAZY
        )
        eager = check_independence(
            fd, update_class, schema=schema, want_witness=False, strategy=EAGER
        )
        assert lazy.verdict == eager.verdict
        assert lazy.exploration is not None
        assert eager.exploration is None
        # the explored fragment never exceeds the worst-case bound
        assert lazy.exploration.explored_rules <= (
            lazy.exploration.worst_case_rules
        )


class TestWitnessEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_lazy_witness_is_accepted_by_eager_automaton(self, seed):
        fd, update_class, schema = _random_triple(seed)
        lazy = check_independence(
            fd, update_class, schema=schema, want_witness=True, strategy=LAZY
        )
        if lazy.independent:
            assert lazy.witness is None
            return
        assert lazy.witness is not None
        eager = check_independence(
            fd, update_class, schema=schema, want_witness=True, strategy=EAGER
        )
        assert eager.automaton.accepts(lazy.witness)
        if schema is not None:
            assert schema.is_valid(lazy.witness)


class TestDeferredFlagRules:
    """A (left rule, u rule) pair's flag 1 "via one flagged child" rule
    is built only once an inhabited flagged state is admitted by both
    rules' horizontals."""

    def _explore(self, monkeypatch, seed):
        """One lazy exploration: the via-child pairs it built, each with
        the states inhabited when it was built, and the cell product's
        factors and firings."""
        built, products, engines = [], [], []
        combines = language.flagged_combines
        explore_product = language.explore_product

        class RecordingEngine(lazy.InhabitationEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        def counting_combines(*args):
            unflagged, one_flagged = combines(*args)

            def counted(left_rule, u_rule):
                # the cell product's engine is the last one started
                built.append((left_rule, u_rule, list(engines[-1].firings)))
                yield from one_flagged(left_rule, u_rule)

            return unflagged, counted

        def recording_explore(left, right, *args, **kwargs):
            exploration = explore_product(left, right, *args, **kwargs)
            products.append((left, right, exploration.engine.firings))
            return exploration

        monkeypatch.setattr(lazy, "InhabitationEngine", RecordingEngine)
        monkeypatch.setattr(language, "flagged_combines", counting_combines)
        monkeypatch.setattr(language, "explore_product", recording_explore)
        fd, update_class, schema = _random_triple(seed)
        outcome = language.explore_dangerous_factors(
            *language.dangerous_factors(fd.pattern, update_class, schema),
            want_witness=True,
        )
        return outcome, built, products[-1]

    def test_rules_wait_for_a_designation(self, monkeypatch):
        """Each pair's rule waits for a flagged child (so for a
        designation below it) that both of its horizontals admit."""
        held = dependent = 0
        for seed in range(40):
            outcome, built, (left, right, firings) = self._explore(
                monkeypatch, seed
            )
            pairs = [(id(rule), id(u_rule)) for rule, u_rule, _ in built]
            assert len(set(pairs)) == len(pairs), seed
            for left_rule, u_rule, inhabited in built:
                assert _admitted(left_rule, u_rule, inhabited), seed
            # and the gate missed none: every compatible pair some
            # inhabited flagged state admits got its rule
            compatible = [
                (left_rule, u_rule)
                for left_rule in left.fireable
                for u_rule in right.index.compatible(left_rule.labels)
            ]
            admitted = {
                (id(left_rule), id(u_rule))
                for left_rule, u_rule in compatible
                if _admitted(left_rule, u_rule, firings)
            }
            assert set(pairs) == admitted, seed
            designated = any(state[2] == 1 for state in firings)
            held += designated and len(admitted) < len(compatible)
            if not outcome.empty:
                dependent += 1
                fd, update_class, schema = _random_triple(seed)
                eager = dangerous_language(fd, update_class, schema)
                assert eager.automaton.accepts(outcome.witness), seed
        # designated cells held pairs back, and dependent cells occurred
        assert held and dependent


def _admitted(left_rule, u_rule, states) -> bool:
    """Does an inhabited flagged child admit the pair's horizontals?"""
    return any(
        state[2] == 1
        and left_rule.horizontal.admits(state[0])
        and u_rule.horizontal.admits(state[1])
        for state in states
    )


class TestGatedLeastFixpoint:
    """The admission gate reaches the least fixpoint of adding every
    flagged rule at once: the same states, from fewer rules."""

    @pytest.mark.parametrize("with_schema", (False, True))
    @pytest.mark.parametrize("seed", range(60))
    def test_gated_cell_inhabits_what_all_rules_do(self, seed, with_schema):
        fd, update_class, schema = _random_triple(seed)
        if not with_schema:
            schema = None
        elif schema is None:
            schema = _random_schema(random.Random(seed))
        fd_automaton, update_automaton, schema_hedge = (
            language.dangerous_factors(fd.pattern, update_class, schema)
        )
        left = language.row_factor(fd_automaton, schema_hedge)
        right = lazy.cached_factor(update_automaton.automaton)
        unflagged, one_flagged = language.flagged_combines(
            fd_automaton, update_automaton, with_schema
        )
        gated = lazy.explore_product(
            left, right, combine=unflagged,
            deferred=(one_flagged, language._flagged_child),
        )
        at_once = lazy.explore_product(
            left, right,
            combine=language._all_flagged_rules(
                fd_automaton, update_automaton, with_schema
            ),
        )
        assert gated.engine.firings.keys() == at_once.engine.firings.keys()
        assert gated.stats.explored_rules <= at_once.stats.explored_rules


class TestRowFactor:
    def test_one_row_factor_per_row_of_a_traced_matrix(self):
        schema = Schema.from_rules(
            "a", {"a": "b* c?", "b": "a? c*", "c": "#text"}
        )
        triples = [_random_triple(seed) for seed in range(4)]
        fds = [fd for fd, _, _ in triples[:3]]
        update_classes = [update_class for _, update_class, _ in triples]
        collector = InMemorySpanCollector()
        with installed_tracer(Tracer(collector)):
            traced = check_independence_matrix(
                fds, update_classes, schema=schema
            )
        assert len(collector.by_name("matrix.cell")) == 12
        assert len(collector.by_name("ic.row_factor")) == 3
        assert len(collector.by_name("product.explore")) == 3 + 12
        untraced = check_independence_matrix(fds, update_classes, schema=schema)
        assert [[c.verdict for c in row] for row in traced.cells] == [
            [c.verdict for c in row] for row in untraced.cells
        ]


class TestViewStrategies:
    @pytest.mark.parametrize("seed", range(20))
    def test_view_lazy_matches_eager(self, seed):
        rng = random.Random(seed + 5000)
        view = random_pattern(
            rng, LABELS, node_count=rng.randint(2, 4), max_length=2
        )
        update_class = random_update_class(
            rng, LABELS, node_count=rng.randint(1, 3), max_length=2
        )
        schema = _random_schema(rng) if seed % 2 else None
        lazy = check_view_independence(
            view, update_class, schema=schema, want_witness=False,
            strategy=LAZY,
        )
        eager = check_view_independence(
            view, update_class, schema=schema, want_witness=False,
            strategy=EAGER,
        )
        assert lazy.verdict == eager.verdict
        assert lazy.automaton is None
        assert eager.automaton is not None


class TestWitnessGating:
    def test_no_witness_built_unless_requested(self):
        fd, update_class, schema = _random_triple(3)
        result = check_independence(
            fd, update_class, schema=schema, want_witness=False
        )
        assert result.witness is None
