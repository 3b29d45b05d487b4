"""On-the-fly product emptiness: explore only what can be inhabited.

``product_automaton`` (:mod:`repro.tautomata.ops`) pays the Proposition
3 bound up front: it scans every ``left_rule × right_rule`` pair, builds
a product rule for each non-empty label intersection, and only then runs
the fixpoint — twice over for ``A = A_S × B``.  Decision procedures for
comparable tree logics (Bárcenas et al., "A Tree Logic with Graded Paths
and Nominals") get their practical speed from lazy fixpoints that visit
only the *reachable* fragment of the product space.  This module brings
that style here:

* :class:`RuleIndex` partitions rules by the labels they match, so the
  pairs whose label intersection is empty are *skipped without being
  constructed* (the seed scanned and discarded them one by one);
* :func:`analyze_factor` runs the worklist fixpoint on one factor and
  keeps the rules that can individually fire — a product rule whose
  component cannot fire on its own can never fire in the product, so
  those pairs are never generated;
* :func:`explore_product` feeds the surviving candidate pairs through a
  ``combine`` callback (plain pairing for intersections, the flagged
  2-3-rule expansion for the Definition 6 product) into one shared
  :class:`~repro.tautomata.worklist.InhabitationEngine`.

The worst case is unchanged — every pair may survive both filters, and
then the engine does exactly the classical fixpoint, preserving the
Proposition 3 bound — but on real pattern/schema mixes the explored
space is a small fraction of the cross product.  The
:class:`ExplorationStats` returned with every verdict report
explored-vs-worst-case sizes so the T2/T3 experiment tables stay honest
about what was actually visited.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator

from repro.limits import BudgetMeter
from repro.obs.trace import NOOP_TRACER
from repro.tautomata.hedge import HedgeAutomaton, LabelSpec, Rule, State
from repro.tautomata.intern import InternTable
from repro.tautomata.ops import pair_combine
from repro.tautomata.worklist import InhabitationEngine


class RuleIndex:
    """Rules indexed by the label partition their specifications induce.

    Labels are interned to dense ints and each label's fireability set
    is a *bitset* over rule positions: finite (``in``) specifications
    OR their per-label masks together, so the union over a query spec's
    labels is a handful of int ORs and deduplication is free (a rule's
    bit is set once however many labels select it).  Co-finite
    (``not_in``) specifications land in one overflow mask (they
    intersect almost everything).  ``compatible(spec)`` then yields
    exactly the rules whose label specification has a non-empty
    intersection with ``spec`` — in rule-position order, independent of
    set iteration order — without touching the rest.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules: list[Rule] = []
        self._labels = InternTable()
        self._label_masks: list[int] = []  # label id -> rule-position bitset
        self._cofinite_mask = 0
        self._live_mask = 0  # positions not retracted
        self.add_rules(rules)

    def add_rules(self, rules: Iterable[Rule]) -> None:
        """Index additional rules (incremental re-analysis delta)."""
        for rule in rules:
            position = len(self.rules)
            self.rules.append(rule)
            bit = 1 << position
            self._live_mask |= bit
            if rule.labels.mode == "in":
                for label in rule.labels.labels:
                    identity = self._labels.intern(label)
                    if identity == len(self._label_masks):
                        self._label_masks.append(bit)
                    else:
                        self._label_masks[identity] |= bit
            else:
                self._cofinite_mask |= bit

    def retract_rules(self, rules: Iterable[Rule]) -> None:
        """Drop rules (matched by identity) from every future query.

        Positions are tombstoned via the live mask rather than
        re-packed, so existing label masks stay valid; unknown rules
        are ignored.
        """
        removed = {id(rule) for rule in rules}
        for position, rule in enumerate(self.rules):
            if id(rule) in removed:
                self._live_mask &= ~(1 << position)

    def __len__(self) -> int:
        return self._live_mask.bit_count()

    def _select(self, mask: int) -> Iterator[Rule]:
        rules = self.rules
        mask &= self._live_mask
        while mask:
            low = mask & -mask
            yield rules[low.bit_length() - 1]
            mask ^= low

    def compatible(self, spec: LabelSpec) -> Iterator[Rule]:
        """All indexed rules whose labels intersect ``spec``."""
        if spec.mode == "in":
            if not spec.labels:
                return
            mask = 0
            lookup = self._labels.get
            masks = self._label_masks
            for label in spec.labels:
                identity = lookup(label)
                if identity is not None:
                    mask |= masks[identity]
            yield from self._select(mask)
            for rule in self._select(self._cofinite_mask):
                # a co-finite rule misses the spec only if it excludes
                # every one of its labels
                if spec.labels - rule.labels.labels:
                    yield rule
        else:
            live = self._live_mask
            for position, rule in enumerate(self.rules):
                if not (live >> position) & 1:
                    continue
                if rule.labels.mode == "not_in":
                    yield rule  # two co-finite sets always intersect
                elif rule.labels.labels - spec.labels:
                    yield rule


@dataclasses.dataclass(frozen=True)
class FactorAnalysis:
    """One product factor, reduced to what the lazy exploration needs.

    ``fireable`` are the rules that can fire at all (their state is
    inhabited *via this very rule*) under the factor's own fixpoint;
    ``index`` is a :class:`RuleIndex` over exactly those rules.
    """

    inhabited: frozenset[State]
    fireable: tuple[Rule, ...]
    index: RuleIndex
    rule_count: int  # rules before pruning (for worst-case accounting)

    @property
    def pruned_rule_count(self) -> int:
        return len(self.fireable)


def analyze_factor(
    automaton: HedgeAutomaton,
    typed: bool = True,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> FactorAnalysis:
    """Fixpoint one factor and keep its individually fireable rules."""
    if tracer is None:
        tracer = NOOP_TRACER
    with tracer.span("factor.fixpoint") as span:
        engine = InhabitationEngine(typed=typed, track_rules=True, meter=meter)
        engine.add_rules(automaton.rules)
        engine.run()
        fireable = tuple(engine.fired_rules)
        if span.enabled:
            span.set_attribute("automaton", automaton.name)
            span.set_attribute("rules", len(automaton.rules))
            span.set_attribute("fireable_rules", len(fireable))
            span.set_attribute("rounds", engine.rounds)
            span.set_attribute("step_attempts", engine.step_attempts)
    return FactorAnalysis(
        inhabited=engine.inhabited,
        fireable=fireable,
        index=RuleIndex(fireable),
        rule_count=len(automaton.rules),
    )


def memoized(
    cache: dict | None,
    key: Hashable,
    build: Callable[[], FactorAnalysis],
    tracer=None,
) -> FactorAnalysis:
    """``cache[key]``, built on a miss (always built without a cache).

    A hit charges nothing against any meter — the work was done (and
    billed) by whichever run populated the entry; a build aborted by
    its meter raises before storing, so it leaves no entry behind.
    """
    if cache is None:
        return build()
    analysis = cache.get(key)
    if analysis is None:
        analysis = build()
        cache[key] = analysis
    elif tracer is not None:
        tracer.event("factor.cache_hit")
    return analysis


def cached_factor(
    automaton: HedgeAutomaton,
    typed: bool = True,
    cache: dict | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> FactorAnalysis:
    """Memoized :func:`analyze_factor` (matrix runs share factors).

    The cache is keyed by the automaton *object* (identity hash), not
    its ``id()``: the entry's strong reference keeps the automaton
    alive, so a freed-and-reused address can never alias a stale
    analysis onto a different automaton.  Hits and aborted builds
    follow :func:`memoized`.
    """
    return memoized(
        cache,
        (automaton, typed),
        lambda: analyze_factor(
            automaton, typed=typed, meter=meter, tracer=tracer
        ),
        tracer,
    )


@dataclasses.dataclass(frozen=True)
class ExplorationStats:
    """Explored-vs-worst-case accounting of one lazy product level.

    ``worst_case_rules`` is the number of rules the eager construction
    of this level bounds from above (factor rules × factor rules ×
    maximal rules per pair); ``explored_rules`` is how many product
    rules the lazy run actually instantiated, and ``explored_states``
    how many product states it proved inhabited.  ``fired_rules`` is
    the exact count of individually fired rules when the engine tracked
    rules, and ``None`` otherwise (the untracked engine only records one
    firing per state, which is a different quantity).  ``step_attempts``
    counts the (frontier state, symbol) pairs the fixpoint went through,
    including those a watch set ruled out without a ``step`` call, so it
    is the same whether or not a language reports a watch set.

    The dangerous-language pipeline reports one level per (FD, update)
    cell: the flagged product of the cell's left factor with ``A_U``.
    Under a schema the left factor is the row's ``A_S × A_FD`` product,
    explored once and shared by every cell of the row; like the factor
    fixpoints it is not counted in any cell's explored figures, but its
    rule count — the ``|A_S| · |A_FD|`` rule pairs it was built from —
    is the left factor size in the cell's ``worst_case_rules``.
    """

    explored_states: int
    explored_rules: int
    fired_rules: int | None
    worst_case_rules: int
    step_attempts: int

    @property
    def explored_size(self) -> int:
        """States + rules actually visited (the lazy analogue of
        :meth:`repro.tautomata.hedge.HedgeAutomaton.size`)."""
        return self.explored_states + self.explored_rules


@dataclasses.dataclass
class ProductExploration:
    """Outcome of one lazy product fixpoint."""

    engine: InhabitationEngine
    stats: ExplorationStats

    @property
    def inhabited(self) -> frozenset[State]:
        return self.engine.inhabited

    def fired_rules(self) -> tuple[Rule, ...]:
        """The product rules that fired (engine must track rules)."""
        return tuple(self.engine.fired_rules)

    def is_empty(self, accepting: Collection[State]) -> bool:
        """True when no accepting state was proved inhabited."""
        return not any(state in self.engine.firings for state in accepting)


Combine = Callable[[Rule, Rule], Iterable[Rule]]


#: ``(late, unlocks)``: rules held back until a state ``unlocks`` fires
Deferral = tuple[Combine, Callable[[State], bool]]


def explore_product(
    left: FactorAnalysis,
    right: FactorAnalysis,
    combine: Combine = pair_combine,
    typed: bool = True,
    want_witness: bool = False,
    track_rules: bool = False,
    rules_per_pair: int = 1,
    deferred: Deferral | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> ProductExploration:
    """Run the product fixpoint over lazily generated candidate rules.

    Candidates are the label-compatible pairs of *fireable* component
    rules; ``combine`` turns each pair into its product rules (and may
    itself decline a pair).  Everything else — incremental frontiers,
    typing, witness words — is the shared worklist engine.

    ``deferred = (late, unlocks)`` holds back the ``late`` rules of
    every pair, for rules that cannot fire before some state satisfying
    ``unlocks`` is inhabited.  They join the engine after the first
    fixpoint, and only if it inhabited such a state; the engine catches
    a late rule up on every inhabited symbol, so the least fixpoint is
    the one of all rules added at once.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    with tracer.span("product.explore") as span:
        engine = InhabitationEngine(
            typed=typed,
            record_parents=want_witness,
            track_rules=track_rules,
            meter=meter,
        )

        def add_pairs(rules_of: Combine) -> None:
            for left_rule in left.fireable:
                for right_rule in right.index.compatible(left_rule.labels):
                    engine.add_rules(rules_of(left_rule, right_rule))
            engine.run()

        add_pairs(combine)
        if deferred is not None:
            late, unlocks = deferred
            if any(unlocks(state) for state in engine.firings):
                add_pairs(late)
        stats = ExplorationStats(
            explored_states=engine.explored_states(),
            explored_rules=engine.rule_count,
            fired_rules=len(engine.fired_rules) if track_rules else None,
            worst_case_rules=left.rule_count * right.rule_count * rules_per_pair,
            step_attempts=engine.step_attempts,
        )
        if span.enabled:
            span.set_attribute("explored_states", stats.explored_states)
            span.set_attribute("explored_rules", stats.explored_rules)
            span.set_attribute("worst_case_rules", stats.worst_case_rules)
            span.set_attribute("rounds", engine.rounds)
            span.set_attribute("step_attempts", stats.step_attempts)
    return ProductExploration(engine=engine, stats=stats)


def product_factor(
    left: FactorAnalysis,
    right: FactorAnalysis,
    typed: bool = True,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> FactorAnalysis:
    """The product ``left × right`` at its fixpoint, as a factor.

    Rules are tracked, so the factor's fireable rules are exactly the
    product rules that fired, and a further product over it never
    generates a pair whose left rule cannot fire here.  Its
    ``rule_count`` is the product's worst case, the rule pairs the eager
    construction would build.
    """
    exploration = explore_product(
        left, right, typed=typed, track_rules=True, meter=meter, tracer=tracer
    )
    fired = exploration.fired_rules()
    return FactorAnalysis(
        inhabited=exploration.inhabited,
        fireable=fired,
        index=RuleIndex(fired),
        rule_count=exploration.stats.worst_case_rules,
    )


class IncrementalProductSession:
    """A lazy product exploration that survives factor-rule deltas.

    Wraps one incremental :class:`InhabitationEngine` over the product
    rules of ``left.fireable × right.fireable`` (label-compatible pairs
    through ``combine``, exactly as :func:`explore_product`) and keeps
    pair-level provenance: retracting a component rule retracts
    precisely the product rules it participated in, then the engine
    re-solves from the surviving frontier (delete-and-rederive) instead
    of re-firing everything.  Component rules are matched by object
    identity — callers pair surviving rules across an automaton rebuild
    with :func:`repro.tautomata.hedge.rule_structure_key` and pass only
    the genuine delta.

    After construction and after every :meth:`apply_delta` the engine is
    at fixpoint; :attr:`inhabited` / :meth:`is_empty` / :meth:`stats`
    read the current solution.
    """

    def __init__(
        self,
        left: FactorAnalysis,
        right: FactorAnalysis,
        combine: Combine = pair_combine,
        typed: bool = True,
        track_rules: bool = False,
        rules_per_pair: int = 1,
        meter: BudgetMeter | None = None,
        tracer=None,
    ) -> None:
        self.combine = combine
        self.rules_per_pair = rules_per_pair
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self.left_rule_count = left.rule_count
        self.right_rule_count = right.rule_count
        self.engine = InhabitationEngine(
            typed=typed,
            track_rules=track_rules,
            meter=meter,
            incremental=True,
        )
        self._track_rules = track_rules
        # live component rules, insertion-ordered (determinism)
        self._left: dict[int, Rule] = {id(r): r for r in left.fireable}
        self._right: dict[int, Rule] = {id(r): r for r in right.fireable}
        self._left_index = RuleIndex(left.fireable)
        self._right_index = RuleIndex(right.fireable)
        # pair provenance: (id(left_rule), id(right_rule)) -> product rules
        self._pair_products: dict[tuple[int, int], list[Rule]] = {}
        self._left_pairs: dict[int, set[int]] = {}
        self._right_pairs: dict[int, set[int]] = {}
        for left_rule in self._left.values():
            self._generate(
                left_rule, self._right_index.compatible(left_rule.labels)
            )
        self.engine.run()

    def _generate(self, left_rule: Rule, right_rules: Iterable[Rule]) -> None:
        for right_rule in right_rules:
            products = list(self.combine(left_rule, right_rule))
            if not products:
                continue
            key = (id(left_rule), id(right_rule))
            self._pair_products[key] = products
            self._left_pairs.setdefault(key[0], set()).add(key[1])
            self._right_pairs.setdefault(key[1], set()).add(key[0])
            self.engine.add_rules(products)

    def _retract_side(
        self,
        rules: Iterable[Rule],
        live: dict[int, Rule],
        index: RuleIndex,
        pairs: dict[int, set[int]],
        other_pairs: dict[int, set[int]],
        pair_key,
        retracted: list[Rule],
    ) -> None:
        for rule in rules:
            rule_id = id(rule)
            if live.pop(rule_id, None) is None:
                continue
            index.retract_rules((rule,))
            for other_id in pairs.pop(rule_id, ()):
                retracted.extend(
                    self._pair_products.pop(pair_key(rule_id, other_id), ())
                )
                other_pairs.get(other_id, set()).discard(rule_id)

    def apply_delta(
        self,
        removed_left: Iterable[Rule] = (),
        added_left: Iterable[Rule] = (),
        removed_right: Iterable[Rule] = (),
        added_right: Iterable[Rule] = (),
        left_rule_count: int | None = None,
        right_rule_count: int | None = None,
    ) -> dict[str, int]:
        """Retract/add component rules and re-solve to fixpoint.

        Returns the engine's delta counters (``retracted_rules`` /
        ``undered_states`` / ``rebuilt_searches`` /
        ``rederived_states``) plus ``added_product_rules``, the shape
        the ``worklist.delta`` span reports.  The optional rule counts
        refresh the worst-case accounting after a factor rebuild.
        """
        with self.tracer.span("worklist.delta") as span:
            retracted: list[Rule] = []
            self._retract_side(
                removed_left,
                self._left,
                self._left_index,
                self._left_pairs,
                self._right_pairs,
                lambda mine, other: (mine, other),
                retracted,
            )
            self._retract_side(
                removed_right,
                self._right,
                self._right_index,
                self._right_pairs,
                self._left_pairs,
                lambda mine, other: (other, mine),
                retracted,
            )
            stats = self.engine.retract_rules(retracted)
            added_left = [
                rule for rule in added_left if id(rule) not in self._left
            ]
            added_right = [
                rule for rule in added_right if id(rule) not in self._right
            ]
            for rule in added_left:
                self._left[id(rule)] = rule
            self._left_index.add_rules(added_left)
            for rule in added_right:
                self._right[id(rule)] = rule
            self._right_index.add_rules(added_right)
            rules_before = self.engine.rule_count
            added_left_ids = {id(rule) for rule in added_left}
            for rule in added_left:
                # pairs against the full new right side
                self._generate(
                    rule, self._right_index.compatible(rule.labels)
                )
            for rule in added_right:
                # pairs against surviving left rules only: new-left ×
                # new-right pairs were generated above
                self._generate_right(rule, added_left_ids)
            self.engine.run()
            stats["added_product_rules"] = (
                self.engine.rule_count - rules_before
            )
            if left_rule_count is not None:
                self.left_rule_count = left_rule_count
            if right_rule_count is not None:
                self.right_rule_count = right_rule_count
            if span.enabled:
                for name, value in stats.items():
                    span.set_attribute(name, value)
        return stats

    def _generate_right(
        self, right_rule: Rule, excluded_left_ids: set[int]
    ) -> None:
        for left_rule in self._left_index.compatible(right_rule.labels):
            if id(left_rule) in excluded_left_ids:
                continue
            products = list(self.combine(left_rule, right_rule))
            if not products:
                continue
            key = (id(left_rule), id(right_rule))
            self._pair_products[key] = products
            self._left_pairs.setdefault(key[0], set()).add(key[1])
            self._right_pairs.setdefault(key[1], set()).add(key[0])
            self.engine.add_rules(products)

    # -- current solution ----------------------------------------------

    def left_rules(self) -> tuple[Rule, ...]:
        """The live left-factor component rules."""
        return tuple(self._left.values())

    def right_rules(self) -> tuple[Rule, ...]:
        """The live right-factor component rules."""
        return tuple(self._right.values())

    @property
    def inhabited(self) -> frozenset[State]:
        return self.engine.inhabited

    def fired_rules(self) -> tuple[Rule, ...]:
        """The product rules currently fired (``track_rules`` only)."""
        return tuple(self.engine.fired_rules)

    def is_empty(self, accepting: Collection[State]) -> bool:
        """True when no accepting state is inhabited *right now*."""
        return not any(
            state in self.engine.firings for state in accepting
        )

    def stats(self) -> ExplorationStats:
        """Cumulative exploration accounting for the session so far."""
        return ExplorationStats(
            explored_states=self.engine.explored_states(),
            explored_rules=self.engine.rule_count,
            fired_rules=(
                len(self.engine.fired_rules) if self._track_rules else None
            ),
            worst_case_rules=self.left_rule_count
            * self.right_rule_count
            * self.rules_per_pair,
            step_attempts=self.engine.step_attempts,
        )


def lazy_product_is_empty(
    left: HedgeAutomaton,
    right: HedgeAutomaton,
    typed: bool = True,
    meter: BudgetMeter | None = None,
) -> tuple[bool, ExplorationStats]:
    """Emptiness of ``left × right`` without materializing the product.

    The drop-in lazy counterpart of ``product_automaton(left, right)``
    followed by the (typed) emptiness test, for the default conjunctive
    acceptance.  Returns the verdict together with the exploration
    accounting.
    """
    left_analysis = analyze_factor(left, typed=typed, meter=meter)
    right_analysis = analyze_factor(right, typed=typed, meter=meter)
    exploration = explore_product(
        left_analysis, right_analysis, typed=typed, meter=meter
    )
    empty = not any(
        a in left.accepting and b in right.accepting
        for (a, b) in exploration.engine.firings
    )
    return empty, exploration.stats
