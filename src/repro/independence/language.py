"""The dangerous-document language ``L`` (Definition 6).

``L`` contains the schema-valid documents in which some node is
*simultaneously*

* selected by a mapping of the update class ``U``, and
* inside the trace of a mapping of the FD pattern, or inside a subtree
  rooted at the image of a condition/target node of that mapping.

Proposition 2 shows ``L = ∅`` implies independence.  Following the
Proposition 3 sketch, the automaton for ``L`` is assembled from:

1. ``A_FD`` — trace automaton of the FD pattern with region tracking,
   so "state ≠ BOT" characterizes trace-or-region membership;
2. ``A_U`` — trace automaton of the update pattern, whose
   ``img(s_U, ·)`` states mark update-selected nodes;
3. the *left factor* ``F``: ``A_FD`` itself, or ``A_S × A_FD`` when a
   schema is given, with states ``(schema, fd)``;
4. the *flagged product* ``F ⊗ A_U``: states ``(f, u, flag)`` where the
   flag records that the subtree contains the designated dangerous node.
   A node may *become* designated when its U-state is a selected image
   and the FD component of its ``F``-state is not ``BOT``; otherwise
   the flag is the exactly-one-flagged-child disjunction.  It accepts
   at ``(ACC, ACC, 1)``, or at ``((s, ACC), ACC, 1)`` for each
   accepting schema state ``s``.

Proposition 3 writes the schema case as ``A_S × (A_FD ⊗ A_U)``; the
intersection reassociates, because the flag reads only the FD and U
components, so both orders accept the same documents.  Taking the
schema into the left factor lets a matrix explore ``A_S × A_FD`` once
per row and decide each cell with one product level.

The products exist in two regimes.  The *lazy* pipeline
(:func:`explore_dangerous_factors`, built on
:mod:`repro.tautomata.lazy`) generates product rules only for
label-compatible pairs of individually fireable component rules and
explores them with the worklist fixpoint; it is the decision path.  The
*eager* construction materializes every rule of Proposition 3's
``A_S × B`` with ``B = A_FD ⊗ A_U`` literally — the T2 size study
measures it, and the differential suites use it as an independent
reference.  Both build their flagged rules with
:func:`flagged_combines`.  :class:`DangerousLanguage` holds the eager
automata for the size studies; the criterion decides through
:func:`~repro.independence.criterion.decide_cell`, which builds them
only under ``strategy="eager"``.

As in the paper, the construction requires the update class to select a
leaf of its template (otherwise the "the update trace survives the
update" step of Proposition 2 fails) — violations raise
:class:`repro.errors.IndependenceError`.

One honesty note recorded in DESIGN.md: Proposition 2's case (b)
implicitly assumes the performer preserves the label of the updated
node's root (XQuery-Update-style content replacement).  The criterion is
sound for label-preserving updates; the exhaustive study T4 measures
both regimes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.errors import IndependenceError
from repro.fd.fd import FunctionalDependency
from repro.limits import BudgetMeter
from repro.obs.trace import NOOP_TRACER
from repro.pattern.template import ROOT_POSITION, RegularTreePattern
from repro.schema.automaton import schema_automaton
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import (
    build_witness_tree,
    document_from_witness,
)
from repro.tautomata.from_pattern import ACC, PatternAutomaton, trace_automaton
from repro.tautomata.hedge import (
    HedgeAutomaton,
    Rule,
    State,
    rule_structure_key,
)
from repro.tautomata.horizontal import (
    FlagOnceHorizontal,
    ProductHorizontal,
    ProjectedHorizontal,
)
from repro.tautomata.lazy import (
    Combine,
    ExplorationStats,
    FactorAnalysis,
    IncrementalProductSession,
    RuleIndex,
    analyze_factor,
    cached_factor,
    explore_product,
    memoized,
    product_factor,
)
from repro.tautomata.ops import product_automaton
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument

#: the accepting state of the flagged product without a schema
DANGEROUS_ACCEPT: State = (ACC, ACC, 1)

#: maximal flagged rules per (left rule, u rule) pair (worst-case account)
FLAGGED_RULES_PER_PAIR = 3

#: the flag coordinate of a flagged state: no flagged child, exactly one
_NO_FLAGGED_CHILD = ProjectedHorizontal(FlagOnceHorizontal(0), 2)
_ONE_FLAGGED_CHILD = ProjectedHorizontal(FlagOnceHorizontal(1), 2)


def validate_update_class(update_class: UpdateClass) -> None:
    """Reject update classes outside the Section 5 analysis."""
    if not update_class.selected_nodes_are_template_leaves():
        raise IndependenceError(
            f"update class {update_class.name} selects a non-leaf template "
            f"node; the Section 5 analysis requires updated nodes to be "
            f"leaves of T_U"
        )
    if ROOT_POSITION in update_class.selected_positions:
        raise IndependenceError(
            "an update class cannot select the document root"
        )


def _flagged_rule(
    left_rule: Rule, u_rule: Rule, labels, flag: int, flag_language
) -> Rule:
    return Rule(
        state=(left_rule.state, u_rule.state, flag),
        labels=labels,
        horizontal=ProductHorizontal(
            [
                ProjectedHorizontal(left_rule.horizontal, 0),
                ProjectedHorizontal(u_rule.horizontal, 1),
                flag_language,
            ]
        ),
    )


def flagged_combines(
    fd_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    with_schema: bool = False,
) -> tuple[Combine, Combine]:
    """The flagged product rules of a (left rule, u rule) pair, split in two.

    The first combine yields the rules that read no flagged child: flag
    0 (no designated node below) and, when the pair designates, flag 1
    by designation — the node is update-selected and on the FD trace or
    inside a selected-subtree region.  The second yields the flag 1 rule
    "via exactly one flagged child".  The left rule is an ``A_FD`` rule,
    or with ``with_schema`` an ``A_S × A_FD`` rule, whose state's FD
    component is the second coordinate.  The second combine's rule can
    only read a word with one inhabited flagged child, which is what
    lets the lazy exploration hold it until such a child is admitted.
    """
    selected_images = update_automaton.selected_image_states
    bot = fd_automaton.bot_state

    def unflagged_children(left_rule: Rule, u_rule: Rule) -> Iterator[Rule]:
        labels = left_rule.labels.intersect(u_rule.labels)
        if labels.is_empty():
            return
        yield _flagged_rule(left_rule, u_rule, labels, 0, _NO_FLAGGED_CHILD)
        fd_state = left_rule.state[1] if with_schema else left_rule.state
        if u_rule.state in selected_images and fd_state != bot:
            yield _flagged_rule(
                left_rule, u_rule, labels, 1, _NO_FLAGGED_CHILD
            )

    def one_flagged_child(left_rule: Rule, u_rule: Rule) -> Iterator[Rule]:
        labels = left_rule.labels.intersect(u_rule.labels)
        if not labels.is_empty():
            yield _flagged_rule(
                left_rule, u_rule, labels, 1, _ONE_FLAGGED_CHILD
            )

    return unflagged_children, one_flagged_child


def _all_flagged_rules(
    fd_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    with_schema: bool = False,
) -> Combine:
    first, second = flagged_combines(fd_automaton, update_automaton, with_schema)

    def combine(left_rule: Rule, u_rule: Rule) -> Iterator[Rule]:
        yield from first(left_rule, u_rule)
        yield from second(left_rule, u_rule)

    return combine


def _flagged_product(
    fd_automaton: PatternAutomaton, update_automaton: PatternAutomaton
) -> HedgeAutomaton:
    """The automaton ``B = A_FD ⊗ A_U`` of Definition 6 (eager)."""
    combine = _all_flagged_rules(fd_automaton, update_automaton)
    rules: list[Rule] = []
    for fd_rule in fd_automaton.automaton.rules:
        for u_rule in update_automaton.automaton.rules:
            rules.extend(combine(fd_rule, u_rule))
    return HedgeAutomaton(
        rules,
        accepting=[DANGEROUS_ACCEPT],
        name="B",
    )


def eager_automaton(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None = None,
) -> HedgeAutomaton:
    """Proposition 3's automaton for ``L``, materialized: ``B``, or
    ``A_S × B`` under a schema."""
    flagged = _flagged_product(pattern_automaton, update_automaton)
    if schema_hedge is None:
        return flagged
    return product_automaton(schema_hedge, flagged, name="A_S×B")


def dangerous_factors(
    pattern: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None = None,
    pattern_name: str = "A_FD",
    tracer=None,
) -> tuple[PatternAutomaton, PatternAutomaton, HedgeAutomaton | None]:
    """The three product factors over one shared global alphabet.

    Works for FD patterns and view patterns alike (the dangerous region
    of the view-independence criterion is identical).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    validate_update_class(update_class)
    alphabet = set(pattern.template.alphabet())
    alphabet |= update_class.pattern.template.alphabet()
    if schema is not None:
        alphabet |= schema.alphabet()
    with tracer.span("construct.trace_automaton") as span:
        pattern_automaton = trace_automaton(
            pattern, alphabet, track_regions=True, name=pattern_name
        )
        if span.enabled:
            span.set_attribute("automaton", pattern_name)
            span.set_attribute("rules", len(pattern_automaton.automaton.rules))
    with tracer.span("construct.trace_automaton") as span:
        update_automaton = trace_automaton(
            update_class.pattern, alphabet, track_regions=False, name="A_U"
        )
        if span.enabled:
            span.set_attribute("automaton", "A_U")
            span.set_attribute("rules", len(update_automaton.automaton.rules))
    if schema is None:
        schema_hedge = None
    else:
        with tracer.span("construct.schema_automaton") as span:
            schema_hedge = schema_automaton(schema)
            if span.enabled:
                span.set_attribute("automaton", "A_S")
                span.set_attribute("rules", len(schema_hedge.rules))
    return pattern_automaton, update_automaton, schema_hedge


@dataclasses.dataclass
class DangerousLanguage:
    """The eager automaton for ``L`` plus its ingredients, for the size
    studies (T2, T3, T9)."""

    fd: FunctionalDependency
    update_class: UpdateClass
    schema: Schema | None
    fd_automaton: PatternAutomaton
    update_automaton: PatternAutomaton
    schema_automaton: HedgeAutomaton | None
    #: the flagged product ``B``
    flagged_product: HedgeAutomaton
    #: the final ``A``: ``B``, or ``A_S × B`` under a schema
    automaton: HedgeAutomaton

    def size(self) -> int:
        """Size of the final automaton (tracked against Prop. 3)."""
        return self.automaton.size()


def dangerous_language(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
) -> DangerousLanguage:
    """Build the automaton recognizing ``L`` (Definition 6)."""
    fd_automaton, update_automaton, schema_hedge = dangerous_factors(
        fd.pattern, update_class, schema, pattern_name="A_FD"
    )
    flagged = _flagged_product(fd_automaton, update_automaton)
    return DangerousLanguage(
        fd=fd,
        update_class=update_class,
        schema=schema,
        fd_automaton=fd_automaton,
        update_automaton=update_automaton,
        schema_automaton=schema_hedge,
        flagged_product=flagged,
        automaton=(
            flagged
            if schema_hedge is None
            else product_automaton(schema_hedge, flagged, name="A_S×B")
        ),
    )


@dataclasses.dataclass
class DangerousExploration:
    """Verdict of one lazy exploration of ``L``."""

    empty: bool
    witness: XMLDocument | None
    stats: ExplorationStats


def _dangerous_accepting(schema_hedge: HedgeAutomaton | None) -> list[State]:
    """The accepting states of the flagged product (one per schema root)."""
    if schema_hedge is None:
        return [DANGEROUS_ACCEPT]
    return [
        ((schema_state, ACC), ACC, 1)
        for schema_state in sorted(schema_hedge.accepting, key=repr)
    ]


def _flagged_child(state: State) -> tuple[State, State] | None:
    """What a via-child rule's left and U horizontals read in a flagged
    child ``(l, u, 1)``; ``None`` for an unflagged state."""
    return state[:2] if state[2] == 1 else None


def row_factor(
    pattern_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None = None,
    factor_cache: dict | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> FactorAnalysis:
    """The left factor of every cell in an FD's row.

    ``A_FD``'s factor fixpoint without a schema.  Under a schema, the
    product ``A_S × A_FD`` explored with its rules tracked, so a cell
    pairs only the product rules that fired with ``A_U``.  It is cached
    in ``factor_cache`` under the two automaton objects, as
    :func:`~repro.tautomata.lazy.cached_factor` caches a factor: a hit
    charges nothing, and a build the meter stops leaves no entry.

    Like every shared build, each of its three fixpoints (the two
    factors and their product) runs on its own fork of ``meter``
    (:func:`~repro.tautomata.lazy.memoized`), so it is capped like a
    cell without charging the cell that happened to build it.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    fd_hedge = pattern_automaton.automaton
    if schema_hedge is None:
        return cached_factor(
            fd_hedge, typed=True, cache=factor_cache, meter=meter,
            tracer=tracer,
        )

    def build(fork: BudgetMeter | None) -> FactorAnalysis:
        schema_factor = cached_factor(
            schema_hedge, typed=True, cache=factor_cache, meter=meter,
            tracer=tracer,
        )
        fd_factor = cached_factor(
            fd_hedge, typed=True, cache=factor_cache, meter=meter,
            tracer=tracer,
        )
        with tracer.span("ic.row_factor") as span:
            factor = product_factor(
                schema_factor, fd_factor, meter=fork, tracer=tracer
            )
            if span.enabled:
                span.set_attribute("fireable_rules", len(factor.fireable))
                span.set_attribute("worst_case_rules", factor.rule_count)
        return factor

    return memoized(
        factor_cache, (schema_hedge, fd_hedge), build, meter, tracer
    )


def forget_row(
    factor_cache: dict,
    pattern_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None = None,
) -> None:
    """Drop what :func:`row_factor` cached for one FD automaton.

    A matrix builds each row's FD automaton afresh, so no later cell
    asks for these entries, while a pool worker reuses one factor cache
    across runs: kept, they would pile up for the worker's lifetime.
    """
    fd_hedge = pattern_automaton.automaton
    factor_cache.pop((fd_hedge, True), None)
    factor_cache.pop((schema_hedge, fd_hedge), None)


def _outcome(
    firings: dict,
    accepting: list[State],
    want_witness: bool,
    stats: ExplorationStats,
    tracer,
) -> DangerousExploration:
    inhabited = [state for state in accepting if state in firings]
    witness = None
    if want_witness and inhabited:
        with tracer.span("ic.witness"):
            witness = document_from_witness(
                build_witness_tree(firings, inhabited[0])
            )
    return DangerousExploration(
        empty=not inhabited, witness=witness, stats=stats
    )


def explore_dangerous_factors(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None = None,
    want_witness: bool = False,
    factor_cache: dict | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> DangerousExploration:
    """On-the-fly emptiness of ``L`` from its factors.

    One lazy flagged product decides the cell: the :func:`row_factor`
    (``A_FD``, or ``A_S × A_FD`` under a schema) against ``A_U``'s
    factor.  The flag 1 "via one flagged child" rule of a (left rule,
    u rule) pair is built only once an inhabited flagged state
    ``(l, u, 1)`` is admitted by both rules' horizontals — the left
    one admits ``l`` and the u one admits ``u``; a pair no inhabited
    flagged child is admitted by could never fire, so the fixpoint is
    the one of all rules at once (``deferred`` of
    :func:`~repro.tautomata.lazy.explore_product`).
    ``factor_cache`` lets batch drivers share the factor fixpoints and
    the row factor across many (FD, U) cells.  A ``meter`` counts the
    cell product only: each shared build — the ``A_FD``, ``A_U`` and
    ``A_S`` factor fixpoints and the row factor — is capped on its own
    :meth:`~repro.limits.BudgetMeter.fork`, built or not by this cell,
    so a budgeted verdict does not depend on the order cells run in;
    :class:`~repro.limits.BudgetExceeded` propagates to the caller.  A
    ``tracer`` (the no-op default when omitted) wraps each factor
    fixpoint, the row factor and the cell product in its own span.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    with_schema = schema_hedge is not None
    left = row_factor(
        pattern_automaton, schema_hedge, factor_cache, meter, tracer
    )
    u_factor = cached_factor(
        update_automaton.automaton, typed=True, cache=factor_cache,
        meter=meter, tracer=tracer,
    )
    unflagged, one_flagged = flagged_combines(
        pattern_automaton, update_automaton, with_schema
    )
    with tracer.span("ic.flagged_product") as span:
        cell = explore_product(
            left,
            u_factor,
            combine=unflagged,
            typed=True,
            want_witness=want_witness,
            rules_per_pair=FLAGGED_RULES_PER_PAIR,
            deferred=(one_flagged, _flagged_child),
            meter=meter,
            tracer=tracer,
        )
        if span.enabled:
            span.set_attribute("explored_rules", cell.stats.explored_rules)
            span.set_attribute("worst_case_rules", cell.stats.worst_case_rules)
    return _outcome(
        cell.engine.firings,
        _dangerous_accepting(schema_hedge),
        want_witness,
        cell.stats,
        tracer,
    )


def _structural_delta(
    old_rules: tuple[Rule, ...], new_rules: tuple[Rule, ...]
) -> tuple[list[Rule], list[Rule]]:
    """``(removed, added)``: old and new rules paired by structure."""
    old_groups: dict[object, list[Rule]] = {}
    for rule in old_rules:
        old_groups.setdefault(rule_structure_key(rule), []).append(rule)
    new_groups: dict[object, list[Rule]] = {}
    for rule in new_rules:
        new_groups.setdefault(rule_structure_key(rule), []).append(rule)
    removed: list[Rule] = []
    added: list[Rule] = []
    for key, old_list in old_groups.items():
        removed.extend(old_list[len(new_groups.get(key, ())):])
    for key, new_list in new_groups.items():
        added.extend(new_list[len(old_groups.get(key, ())):])
    return removed, added


class IncrementalDangerousSession:
    """Emptiness of ``L`` for one fixed (update class, schema), re-solved
    across FD-pattern edits from the surviving exploration.

    The session keeps the pipeline's product order with both levels
    alive as incremental engines: under a schema, level 1 is
    ``A_S × A_FD`` (tracked rules), and level 2 is the flagged product
    of its fired rules with ``A_U``; without one, level 2 pairs ``A_FD``
    with ``A_U`` directly.  :meth:`recheck` fixpoints only the *new* FD
    factor (cheap), pairs its rules against the old ones with
    :func:`~repro.tautomata.hedge.rule_structure_key` — a small edit
    leaves most trace-automaton rules structurally identical — and
    feeds just that FD-side delta through
    :meth:`~repro.tautomata.lazy.IncrementalProductSession.apply_delta`
    of the first level.  Level 2's delta is the identity diff of level
    1's fired product rules, which survive retraction as the same
    objects.  Level 2 adds every flagged rule up front (the cold path's
    admission gate does not survive retraction).  Verdicts are always
    identical to a cold run on the current inputs; witnesses are valid
    members of ``L`` but may differ from the cold run's choice
    (discovery order), which is why the matrix drift path recomputes
    witness-bearing cells cold and sessions serve long-lived in-process
    re-checks.
    """

    def __init__(
        self,
        pattern_automaton: PatternAutomaton,
        update_automaton: PatternAutomaton,
        schema_hedge: HedgeAutomaton | None = None,
        want_witness: bool = False,
        factor_cache: dict | None = None,
        meter: BudgetMeter | None = None,
        tracer=None,
    ) -> None:
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self.update_automaton = update_automaton
        self.schema_hedge = schema_hedge
        self.want_witness = want_witness
        self.pattern_automaton = pattern_automaton
        self._meter = meter
        self._accepting = _dangerous_accepting(schema_hedge)
        u_factor = cached_factor(
            update_automaton.automaton, typed=True, cache=factor_cache,
            meter=meter, tracer=self.tracer,
        )
        left = analyze_factor(
            pattern_automaton.automaton, typed=True, meter=meter,
            tracer=self.tracer,
        )
        self._row: IncrementalProductSession | None = None
        if schema_hedge is not None:
            self._row = IncrementalProductSession(
                cached_factor(
                    schema_hedge, typed=True, cache=factor_cache,
                    meter=meter, tracer=self.tracer,
                ),
                left,
                track_rules=True,
                meter=meter,
                tracer=self.tracer,
            )
            fired = self._row.fired_rules()
            left = FactorAnalysis(
                inhabited=self._row.inhabited,
                fireable=fired,
                index=RuleIndex(fired),
                rule_count=self._row.stats().worst_case_rules,
            )
        self._last_fired = left.fireable
        # BOT and the selected images are stable across FD rebuilds (the
        # update automaton is fixed; BOT is a module sentinel), so one
        # combine serves the whole session
        self._cell = IncrementalProductSession(
            left,
            u_factor,
            combine=_all_flagged_rules(
                pattern_automaton, update_automaton, schema_hedge is not None
            ),
            rules_per_pair=FLAGGED_RULES_PER_PAIR,
            meter=meter,
            tracer=self.tracer,
        )

    def recheck(
        self, pattern_automaton: PatternAutomaton
    ) -> DangerousExploration:
        """Re-solve emptiness after an FD-pattern edit (rule delta only)."""
        new_factor = analyze_factor(
            pattern_automaton.automaton, typed=True, meter=self._meter,
            tracer=self.tracer,
        )
        self.pattern_automaton = pattern_automaton
        if self._row is None:
            removed, added = _structural_delta(
                self._cell.left_rules(), new_factor.fireable
            )
            self._cell.apply_delta(
                removed_left=removed,
                added_left=added,
                left_rule_count=new_factor.rule_count,
            )
            return self.solution()
        removed, added = _structural_delta(
            self._row.right_rules(), new_factor.fireable
        )
        self._row.apply_delta(
            removed_right=removed,
            added_right=added,
            right_rule_count=new_factor.rule_count,
        )
        fired = self._row.fired_rules()
        fired_ids = {id(rule) for rule in fired}
        last_ids = {id(rule) for rule in self._last_fired}
        self._cell.apply_delta(
            removed_left=[
                rule for rule in self._last_fired if id(rule) not in fired_ids
            ],
            added_left=[rule for rule in fired if id(rule) not in last_ids],
            left_rule_count=self._row.stats().worst_case_rules,
        )
        self._last_fired = fired
        return self.solution()

    def solution(self) -> DangerousExploration:
        """The current emptiness verdict (engines are at fixpoint).

        Incremental engines always record parents, so firing words — and
        from them a witness — are available.
        """
        return _outcome(
            self._cell.engine.firings,
            self._accepting,
            self.want_witness,
            self._cell.stats(),
            self.tracer,
        )
