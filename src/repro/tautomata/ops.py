"""Product constructions on hedge automata.

The product automaton runs two automata on the same document; its states
are pairs and a pair rule fires when both component rules fire on the
same label with children words accepted componentwise.  Acceptance is
configurable (conjunction by default) so the same construction serves
intersection and the final ``A = A_S × B`` of Proposition 3.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.tautomata.hedge import HedgeAutomaton, Rule
from repro.tautomata.horizontal import ProductHorizontal, ProjectedHorizontal


def pair_combine(left_rule: Rule, right_rule: Rule) -> Iterator[Rule]:
    """The product rule of one rule pair, if their labels intersect.

    Shared by :func:`product_automaton` and the lazy exploration of
    :mod:`repro.tautomata.lazy`, so both decide the same language rule
    for rule.
    """
    labels = left_rule.labels.intersect(right_rule.labels)
    if labels.is_empty():
        return
    yield Rule(
        state=(left_rule.state, right_rule.state),
        labels=labels,
        horizontal=ProductHorizontal(
            [
                ProjectedHorizontal(left_rule.horizontal, 0),
                ProjectedHorizontal(right_rule.horizontal, 1),
            ]
        ),
    )


def product_automaton(
    left: HedgeAutomaton,
    right: HedgeAutomaton,
    accept: Callable[[bool, bool], bool] | None = None,
    name: str | None = None,
) -> HedgeAutomaton:
    """The synchronous product of two hedge automata.

    With the default ``accept`` the product recognizes the intersection
    of the two languages.
    """
    rules: list[Rule] = []
    for left_rule in left.rules:
        for right_rule in right.rules:
            rules.extend(pair_combine(left_rule, right_rule))

    if accept is None:
        accepting = [
            (a, b) for a in left.accepting for b in right.accepting
        ]
    else:
        left_states = {rule.state for rule in left.rules} | set(left.accepting)
        right_states = {rule.state for rule in right.rules} | set(right.accepting)
        accepting = [
            (a, b)
            for a in left_states
            for b in right_states
            if accept(a in left.accepting, b in right.accepting)
        ]

    return HedgeAutomaton(
        rules,
        accepting,
        name=name or f"({left.name}×{right.name})",
    )
