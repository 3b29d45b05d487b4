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
        assert eager.language.automaton.accepts(lazy.witness)
        if schema is not None:
            assert schema.is_valid(lazy.witness)


class TestDeferredFlagRules:
    """The flag 1 "via one flagged child" rules join the cell product
    only once a designation has fired."""

    def _explore(self, monkeypatch, seed):
        """One lazy exploration, with the flag-1-via-child rules it built
        and the cell product's firings."""
        built, firings = [], []
        combines = language.flagged_combines
        explore_product = language.explore_product

        def counting_combines(*args):
            unflagged, one_flagged = combines(*args)

            def counted(left_rule, u_rule):
                for rule in one_flagged(left_rule, u_rule):
                    built.append(rule)
                    yield rule

            return unflagged, counted

        def recording_explore(*args, **kwargs):
            exploration = explore_product(*args, **kwargs)
            firings.append(exploration.engine.firings)
            return exploration

        monkeypatch.setattr(language, "flagged_combines", counting_combines)
        monkeypatch.setattr(language, "explore_product", recording_explore)
        fd, update_class, schema = _random_triple(seed)
        outcome = dangerous_language(
            fd, update_class, schema, materialize=False
        ).explore(want_witness=True)
        return outcome, built, firings[-1]

    def test_rules_wait_for_a_designation(self, monkeypatch):
        undesignated = dependent = 0
        for seed in range(40):
            outcome, built, firings = self._explore(monkeypatch, seed)
            designated = any(state[2] == 1 for state in firings)
            assert bool(built) == designated, seed
            undesignated += not designated
            if not outcome.empty:
                dependent += 1
                fd, update_class, schema = _random_triple(seed)
                eager = dangerous_language(fd, update_class, schema)
                assert eager.automaton.accepts(outcome.witness), seed
        # both branches were exercised
        assert undesignated and dependent


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
