"""Worklist inhabitation fixpoint with persistent horizontal frontiers.

The seed implementation of emptiness (kept verbatim in
:mod:`repro.tautomata.reference`) recomputed everything per round: a
``while changed`` loop over all rules, each probe re-running a BFS over
the rule's horizontal automaton from scratch against a freshly *sorted*
copy of the inhabited set.  That is O(rounds × rules × BFS) — quadratic
churn that dominates IC wall-clock on chain-shaped patterns.

This module replaces the restart loop with a dependency-tracked
worklist:

* every candidate rule owns a *persistent frontier* — the set of
  horizontal states reachable from the initial state via words over the
  currently-inhabited symbols;
* when a new symbol becomes inhabited it is pushed on a queue; each
  still-active rule *extends* its frontier (new symbol from the old
  frontier, then closure of the newly reached states under all inhabited
  symbols) instead of recomputing it;
* a rule fires the moment its frontier touches an accepting horizontal
  state; the fired state is enqueued and the rule retires.

Each (rule, horizontal-state, symbol) edge is therefore traversed at
most once over the whole fixpoint.  Most of those edges are dead: a
schema content model or an FD shuffle has no transition for most child
states.  So every search keeps its rule's *watch set* (see
:meth:`~repro.tautomata.horizontal.HorizontalLanguage.watch`): a
projection path plus a finite set outside which every symbol steps
every reachable horizontal state to ``None``.  The engine projects each
inhabited symbol once per distinct path, and a search only steps on the
symbols whose key lies in its set — both when a symbol is newly
inhabited and when closing over freshly reached frontier states.  A
skipped pair could only have died, so frontiers, firing order and
firing words are exactly those of stepping every pair; each skipped
pair still counts as one step attempt and one meter tick, at the point
where it would have been attempted.  Vertical states — nested product
tuples in the IC pipeline — are interned to dense ints
(:mod:`repro.tautomata.intern`), so inhabitation membership on the hot
path is one bit test in an integer bitmask rather than a tuple-hashing
set probe, and retiring every pending search of a freshly fired state
is a single dict pop on the interned id.  The engine optionally records
parent pointers in the frontier so a firing word — and from it a witness
tree — can be reconstructed without the separate shortest-word search,
and optionally keeps probing rules whose state is already inhabited so
callers learn *per-rule* fireability (the pruning fact the lazy product
construction of :mod:`repro.tautomata.lazy` needs).

Rules may be fed to the engine at any time; a rule added late is caught
up against the already-inhabited symbols first, so eager callers (add
everything, then run) and lazy callers (add candidates as factor pairs
become plausible) share the same machinery.

``incremental=True`` additionally supports *retraction* in the
delete-and-rederive style of incremental Datalog maintenance: the
engine remembers every live rule and, because parent pointers are
forced on, the exact support (firing word) of every derivation.
:meth:`retract_rules` un-derives precisely the states whose recorded
support vanished (seeding with retracted rules' firings, cascading
through firing words), rebuilds only the searches whose frontiers
consumed a now-dead symbol, and re-runs the worklist from the surviving
frontier — a small rule delta re-solves emptiness without rebuilding
the engine.  The surviving derivations are inductively valid (each
recorded word touches only surviving states), so the re-run converges
to exactly the fixpoint a cold engine over the surviving rules reaches.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.limits import BudgetMeter
from repro.tautomata.hedge import LabelSpec, Rule, State
from repro.tautomata.intern import InternTable
from repro.xmlmodel.tree import NodeType, label_node_type


def spec_has_element_label(spec: LabelSpec) -> bool:
    """Can the specification match at least one element label?

    Co-finite sets always contain element labels; a finite set must name
    one explicitly.  Under XML typing, a rule whose labels are all
    attribute/text can only ever fire on the empty children word.
    """
    if spec.mode == "not_in":
        return True
    return any(
        label_node_type(label) is NodeType.ELEMENT for label in spec.labels
    )


def _project(symbol: State, path: tuple) -> State:
    for projection in path:
        symbol = projection(symbol)
    return symbol


class _Search:
    """Persistent frontier of one rule's horizontal automaton.

    ``watch`` is the set of keys the horizontal language can step on
    (``None``: every symbol), and ``keys`` the engine's list of every
    inhabited symbol's key under the language's projection path.
    """

    __slots__ = ("rule", "frontier", "parents", "fired", "watch", "keys")

    def __init__(
        self,
        rule: Rule,
        record_parents: bool,
        watch: frozenset[State] | None,
        keys: list[State],
    ) -> None:
        self.rule = rule
        self.frontier = {rule.horizontal.initial()}
        # h-state -> (previous h-state, symbol); the initial state has no entry
        self.parents: dict | None = {} if record_parents else None
        self.fired = False
        self.watch = watch
        self.keys = keys


class InhabitationEngine:
    """Incremental least-fixpoint computation of inhabited states.

    ``typed``
        enforce XML typing: attribute/text-labeled nodes are leaves, so
        rules without an element label only fire on the empty word;
    ``record_parents``
        keep frontier parent pointers so :meth:`firing_word` can
        reconstruct the word each state first fired with (the basis of
        witness-tree extraction in :mod:`repro.tautomata.emptiness`);
    ``track_rules``
        keep probing every rule until it fires itself (instead of
        retiring all rules of a state on first firing), so
        :attr:`fired_rules` is the exact set of individually fireable
        rules;
    ``meter``
        an optional started :class:`~repro.limits.BudgetMeter`: every
        registered rule and newly inhabited state is charged against it
        and every step attempt ticks it (a pair ruled out by a watch set
        too, at the same count), so a budgeted fixpoint stops
        with :class:`~repro.limits.BudgetExceeded` at the first
        checkpoint past a limit.  ``None`` (the default) adds no
        bookkeeping to any hot path.
    ``incremental``
        keep the live-rule registry and per-derivation support needed by
        :meth:`retract_rules` (forces ``record_parents`` so firing words
        are real support sets).  Off by default: retraction bookkeeping
        costs memory that one-shot fixpoints never need.
    """

    def __init__(
        self,
        typed: bool = False,
        record_parents: bool = False,
        track_rules: bool = False,
        meter: BudgetMeter | None = None,
        incremental: bool = False,
    ) -> None:
        self.typed = typed
        self.record_parents = record_parents or incremental
        self.track_rules = track_rules
        self.meter = meter
        self.incremental = incremental
        #: id(rule) -> rule for every live registered rule (incremental)
        self._live: dict[int, Rule] | None = {} if incremental else None
        #: id(rule) -> firing word, for fired-rule proof invalidation
        self._rule_words: dict[int, tuple[State, ...]] | None = (
            {} if incremental and track_rules else None
        )
        #: state -> (rule, firing word); insertion order = discovery order
        self.firings: dict[State, tuple[Rule, tuple[State, ...]]] = {}
        self.fired_rules: list[Rule] = []
        #: (frontier state, symbol) pairs attempted, ruled-out ones included
        self.step_attempts = 0
        self.rule_count = 0
        #: worklist rounds completed: symbols propagated by :meth:`run`
        self.rounds = 0
        self._symbols: list[State] = []  # inhabited, in discovery order
        #: projection path -> key of every inhabited symbol under it,
        #: parallel to ``_symbols`` (the empty path reads ``_symbols``)
        self._keys: dict[tuple, list[State]] = {}
        # Vertical states are interned to dense ints; inhabitation
        # membership is then one bit in ``_fired_mask`` instead of a
        # tuple-hashing dict probe per (search, round).  When rules are
        # not individually tracked, active searches are grouped by their
        # interned state id so a firing retires the whole group with a
        # single dict pop (the flat-list engine re-skipped them every
        # remaining round).
        self._state_ids = InternTable()
        self._fired_mask = 0
        self._active: dict[int, list[_Search]] = {}
        self._searches: list[_Search] = []  # track_rules=True keeps all
        self._queue: deque[State] = deque()

    # ------------------------------------------------------------------
    # feeding rules
    # ------------------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Register a candidate rule (catching up on known symbols)."""
        if rule.labels.is_empty():
            return
        if self._live is not None:
            self._live[id(rule)] = rule
        self._install(rule, charge=True)

    def _install(self, rule: Rule, charge: bool) -> None:
        """Create (or re-create, on retraction rebuild) a rule's search."""
        state_id = -1
        if not self.track_rules:
            state_id = self._state_ids.intern(rule.state)
            if (self._fired_mask >> state_id) & 1:
                return
        if charge:
            self.rule_count += 1
            if self.meter is not None:
                self.meter.charge_rule()
        horizontal = rule.horizontal
        initial = horizontal.initial()
        if horizontal.accepting(initial):
            # the empty children word is well-typed under any label
            self._fire(rule, ())
            return
        if self.typed and not spec_has_element_label(rule.labels):
            # leaf-only labels cannot carry children: the rule is dead
            return
        path, watch = horizontal.watch() or ((), None)
        search = _Search(
            rule, self.record_parents, watch, self._path_keys(path)
        )
        if self._symbols:
            self._advance(search, None)
        if not search.fired:
            if self.track_rules:
                self._searches.append(search)
            else:
                self._active.setdefault(state_id, []).append(search)

    def add_rules(self, rules: Iterable[Rule]) -> None:
        """Register several rules (see :meth:`add_rule`)."""
        for rule in rules:
            self.add_rule(rule)

    def _path_keys(self, path: tuple) -> list[State]:
        """The inhabited symbols' keys under a projection path."""
        if not path:
            return self._symbols
        keys = self._keys.get(path)
        if keys is None:
            keys = [_project(symbol, path) for symbol in self._symbols]
            self._keys[path] = keys
        return keys

    # ------------------------------------------------------------------
    # retraction (incremental=True)
    # ------------------------------------------------------------------

    @staticmethod
    def _search_consumed(search: _Search) -> set[State]:
        """The symbols that actually extended a search's frontier."""
        if search.parents is None:
            return set()
        return {symbol for _, symbol in search.parents.values()}

    def retract_rules(self, rules: Iterable[Rule]) -> dict[str, int]:
        """Un-register rules and re-solve the fixpoint (delete-and-rederive).

        Un-derives exactly the states whose recorded support vanished:
        the cascade seeds with states whose firing rule was retracted
        and propagates through firing words (a derivation dies only
        when its own word touches a dead state — surviving derivations
        stay inductively valid).  Searches whose frontiers consumed a
        dead symbol are rebuilt; rules of dead states are re-installed
        from the live registry; then the worklist re-runs from the
        surviving frontier, re-deriving anything still supported.

        Rules are matched by object identity — pass the same ``Rule``
        objects that were added (unknown rules are ignored).  Returns
        delta counters for the ``worklist.delta`` span:
        ``retracted_rules`` / ``undered_states`` / ``rebuilt_searches``
        / ``rederived_states``.
        """
        if self._live is None:
            raise ValueError("retract_rules requires incremental=True")
        self.run()  # retraction reasons over a completed fixpoint
        removed: set[int] = set()
        for rule in rules:
            if self._live.pop(id(rule), None) is not None:
                removed.add(id(rule))
        stats = {
            "retracted_rules": len(removed),
            "undered_states": 0,
            "rebuilt_searches": 0,
            "rederived_states": 0,
        }
        if not removed:
            return stats

        # Overapproximate the damage: a state whose recorded derivation
        # used a retracted rule or a dead state is un-derived; re-run
        # re-derives any that survive through other support (DRed).
        uses: dict[State, list[State]] = {}
        for state, (_, word) in self.firings.items():
            for symbol in frozenset(word):
                uses.setdefault(symbol, []).append(state)
        pending: deque[State] = deque(
            state
            for state, (rule, _) in self.firings.items()
            if id(rule) in removed
        )
        dead: set[State] = set()
        while pending:
            state = pending.popleft()
            if state in dead:
                continue
            dead.add(state)
            pending.extend(uses.get(state, ()))
        stats["undered_states"] = len(dead)

        for state in dead:
            del self.firings[state]
            self._fired_mask &= ~(1 << self._state_ids.intern(state))
        if dead:
            # in place: searches hold these lists
            kept = [
                index
                for index, symbol in enumerate(self._symbols)
                if symbol not in dead
            ]
            for keys in (self._symbols, *self._keys.values()):
                keys[:] = [keys[index] for index in kept]

        rebuild: list[Rule] = []
        if self.track_rules:
            survivors = []
            for search in self._searches:
                if id(search.rule) in removed:
                    continue
                if dead and self._search_consumed(search) & dead:
                    rebuild.append(search.rule)
                else:
                    survivors.append(search)
            self._searches = survivors
            # a fired rule's proof dies with its word (or its state: a
            # rebuilt search re-fires it at once, avoiding duplicates)
            kept_fired: list[Rule] = []
            rule_words = self._rule_words or {}
            for rule in self.fired_rules:
                rule_id = id(rule)
                if rule_id in removed:
                    rule_words.pop(rule_id, None)
                    continue
                word = rule_words.get(rule_id, ())
                if dead and (
                    rule.state in dead or not dead.isdisjoint(word)
                ):
                    rule_words.pop(rule_id, None)
                    rebuild.append(rule)
                    continue
                kept_fired.append(rule)
            self.fired_rules = kept_fired
        else:
            for state_id, group in list(self._active.items()):
                kept = []
                for search in group:
                    if id(search.rule) in removed:
                        continue
                    if dead and self._search_consumed(search) & dead:
                        rebuild.append(search.rule)
                    else:
                        kept.append(search)
                if kept:
                    self._active[state_id] = kept
                else:
                    del self._active[state_id]
            if dead:
                # searches of fired states were retired at fire time;
                # their live rules come back from the registry
                for rule in self._live.values():
                    if rule.state in dead:
                        rebuild.append(rule)

        stats["rebuilt_searches"] = len(rebuild)
        surviving = len(self.firings)
        for rule in rebuild:
            self._install(rule, charge=False)
        self.run()
        stats["rederived_states"] = len(self.firings) - surviving
        return stats

    # ------------------------------------------------------------------
    # the fixpoint
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Propagate queued symbols until no rule can make progress."""
        meter = self.meter
        while self._queue:
            symbol = self._queue.popleft()
            self.rounds += 1
            self._symbols.append(symbol)
            for path, keys in self._keys.items():
                keys.append(_project(symbol, path))
            if self.track_rules:
                groups: Iterable[list[_Search]] = (self._searches,)
            else:
                # a group only fires its own state; _fire pops it out of
                # _active mid-round, hence the snapshot
                groups = list(self._active.values())
            for group in groups:
                for search in group:
                    watch = search.watch
                    if watch is not None and search.keys[-1] not in watch:
                        # ruled out: each frontier state steps to None
                        skipped = len(search.frontier)
                        self.step_attempts += skipped
                        if meter is not None:
                            meter.tick(skipped)
                        continue
                    self._advance(search, symbol)
                    if search.fired and not self.track_rules:
                        break  # the rest of the group proves nothing new
            if self.track_rules:
                self._searches = [
                    search for search in self._searches if not search.fired
                ]

    def _advance(self, search: _Search, new_symbol: State | None) -> None:
        """Extend the frontier with newly available symbols.

        With ``new_symbol``, every existing frontier state first steps
        on it; without (a search catching up at install) the initial
        state is the one fresh state.  Fresh states are then closed
        under all inhabited symbols.  The frontier stays exactly the set
        of horizontal states reachable over inhabited-symbol words, and
        each (state, symbol) pair is attempted once over the search's
        lifetime — stepped when the watch set admits the symbol, and
        otherwise only counted (it could only step to ``None``).
        """
        horizontal = search.rule.horizontal
        step = horizontal.step
        accepting = horizontal.accepting
        frontier = search.frontier
        parents = search.parents
        meter = self.meter
        steps = 0
        if new_symbol is None:
            fresh: deque[State] = deque(frontier)
        else:
            fresh = deque()
            for h_state in tuple(frontier):
                steps += 1
                if meter is not None:
                    meter.tick()
                target = step(h_state, new_symbol)
                if target is None or target in frontier:
                    continue
                frontier.add(target)
                if parents is not None:
                    parents[target] = (h_state, new_symbol)
                if accepting(target):
                    self.step_attempts += steps
                    self._fire_search(search, target)
                    return
                fresh.append(target)
        if fresh:
            symbols = self._symbols
            total = len(symbols)
            watch = search.watch
            if watch is None:
                readable: Iterable[int] = range(total)
            else:
                readable = [
                    index
                    for index, key in enumerate(search.keys)
                    if key in watch
                ]
            while fresh:
                h_state = fresh.popleft()
                last = -1
                for index in readable:
                    # the pairs between ``last`` and ``index`` were ruled out
                    attempts = index - last
                    last = index
                    steps += attempts
                    if meter is not None:
                        meter.tick(attempts)
                    symbol = symbols[index]
                    target = step(h_state, symbol)
                    if target is None or target in frontier:
                        continue
                    frontier.add(target)
                    if parents is not None:
                        parents[target] = (h_state, symbol)
                    if accepting(target):
                        self.step_attempts += steps
                        self._fire_search(search, target)
                        return
                    fresh.append(target)
                skipped = total - 1 - last
                if skipped:
                    steps += skipped
                    if meter is not None:
                        meter.tick(skipped)
        self.step_attempts += steps

    def _fire_search(self, search: _Search, accepted: State) -> None:
        search.fired = True
        word: tuple[State, ...] = ()
        if search.parents is not None:
            reversed_word = []
            current = accepted
            while current in search.parents:
                current, symbol = search.parents[current]
                reversed_word.append(symbol)
            word = tuple(reversed(reversed_word))
        self._fire(search.rule, word)

    def _fire(self, rule: Rule, word: tuple[State, ...]) -> None:
        if self.track_rules:
            self.fired_rules.append(rule)
            if self._rule_words is not None:
                self._rule_words[id(rule)] = word
        if rule.state not in self.firings:
            if self.meter is not None:
                self.meter.charge_state()
            self.firings[rule.state] = (rule, word)
            self._queue.append(rule.state)
            state_id = self._state_ids.intern(rule.state)
            self._fired_mask |= 1 << state_id
            self._active.pop(state_id, None)  # retire the whole group

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def inhabited(self) -> frozenset[State]:
        """The states proved inhabited so far."""
        return frozenset(self.firings)

    def explored_states(self) -> int:
        """How many states were proved inhabited."""
        return len(self.firings)

    def firing_word(self, state: State) -> tuple[State, ...]:
        """The children word the state first fired with."""
        return self.firings[state][1]
