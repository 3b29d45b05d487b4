"""Deterministic finite automata over label words.

A :class:`DFA` is *total*: it has an explicit alphabet of known labels,
and every state additionally carries an OTHER transition taken by any
label outside that alphabet.  The OTHER letter is what makes complements
and inclusion tests sound when documents use labels the pattern never
mentions (e.g. the ``~`` wildcard matches them, explicit symbols do not).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import RegexError
from repro.regex.ast import Regex
from repro.regex.nfa import NFA, WILDCARD, nfa_from_regex


class _Other:
    """Sentinel letter standing for every label outside the alphabet."""

    def __repr__(self) -> str:
        return "<OTHER>"


OTHER = _Other()


class DFA:
    """A total deterministic automaton over label words.

    Attributes
    ----------
    alphabet:
        Explicit labels with dedicated transitions.
    transitions:
        Per state, a dict from explicit label to target state.  Every
        explicit label has an entry in every state.
    other:
        Per state, the target taken by labels outside the alphabet.
    """

    __slots__ = (
        "alphabet",
        "transitions",
        "other",
        "start",
        "accepting",
        "_live",
        "_live_labels",
    )

    def __init__(
        self,
        alphabet: Iterable[str],
        transitions: Sequence[dict[str, int]],
        other: Sequence[int],
        start: int,
        accepting: Iterable[int],
    ) -> None:
        self.alphabet = frozenset(alphabet)
        self.transitions = [dict(row) for row in transitions]
        self.other = list(other)
        self.start = start
        self.accepting = frozenset(accepting)
        self._live: frozenset[int] | None = None
        # (labels stepping live -> live, or None when OTHER does too)
        self._live_labels: tuple[frozenset[str] | None] | None = None
        if len(self.transitions) != len(self.other):
            raise RegexError("transition table and OTHER table disagree on size")
        for index, row in enumerate(self.transitions):
            missing = self.alphabet - row.keys()
            if missing:
                raise RegexError(
                    f"state {index} lacks transitions for {sorted(missing)}"
                )

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def step(self, state: int, label: str) -> int:
        """One transition; unknown labels take the OTHER edge."""
        row = self.transitions[state]
        target = row.get(label)
        if target is None:
            return self.other[state]
        return target

    def accepts(self, word: Sequence[str]) -> bool:
        """Run the automaton over a label word."""
        state = self.start
        for label in word:
            state = self.step(state, label)
        return state in self.accepting

    def accepts_empty(self) -> bool:
        """True when the empty word is in the language."""
        return self.start in self.accepting

    def is_proper(self) -> bool:
        """True when the language does not contain the empty word."""
        return not self.accepts_empty()

    def live_states(self) -> frozenset[int]:
        """States reachable from the start that can reach acceptance.

        Computed once per DFA; the transition tables are treated as
        immutable after construction, so the result is cached.
        """
        if self._live is not None:
            return self._live
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            state = frontier.pop()
            targets = set(self.transitions[state].values())
            targets.add(self.other[state])
            for target in targets:
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        # backward pass from accepting states
        inverse: dict[int, set[int]] = {s: set() for s in range(self.state_count)}
        for source in range(self.state_count):
            targets = set(self.transitions[source].values())
            targets.add(self.other[source])
            for target in targets:
                inverse[target].add(source)
        productive = set(self.accepting)
        frontier = list(self.accepting)
        while frontier:
            state = frontier.pop()
            for source in inverse[state]:
                if source not in productive:
                    productive.add(source)
                    frontier.append(source)
        self._live = frozenset(reachable & productive)
        return self._live

    def live_labels(self) -> frozenset[str] | None:
        """The explicit labels that step some live state to a live state.

        A run that stays live can only read these; ``None`` when some
        live state's OTHER edge is live too, since then any label
        outside the alphabet can.  Cached like :meth:`live_states`.
        """
        if self._live_labels is None:
            live = self.live_states()
            if any(self.other[state] in live for state in live):
                self._live_labels = (None,)
            else:
                self._live_labels = (
                    frozenset(
                        label
                        for state in live
                        for label, target in self.transitions[state].items()
                        if target in live
                    ),
                )
        return self._live_labels[0]

    def with_alphabet(self, alphabet: Iterable[str]) -> "DFA":
        """Re-express the DFA over a larger explicit alphabet.

        Labels added to the alphabet behave exactly like OTHER did, so
        the language is unchanged; this aligns two DFAs before a product
        construction.
        """
        extended = frozenset(alphabet) | self.alphabet
        transitions = []
        for state, row in enumerate(self.transitions):
            new_row = dict(row)
            for label in extended - self.alphabet:
                new_row[label] = self.other[state]
            transitions.append(new_row)
        return DFA(extended, transitions, self.other, self.start, self.accepting)

    def __repr__(self) -> str:
        return (
            f"<DFA {self.state_count} states, |Σ|={len(self.alphabet)}, "
            f"{len(self.accepting)} accepting>"
        )


def dfa_from_nfa(nfa: NFA, extra_alphabet: Iterable[str] = ()) -> DFA:
    """Subset construction producing a total DFA.

    ``extra_alphabet`` adds explicit labels beyond those mentioned in the
    NFA; their behaviour still differs from OTHER only if the NFA had
    wildcard edges (it does not, for wildcard-free expressions), but a
    shared explicit alphabet simplifies later products.
    """
    alphabet = frozenset(nfa.symbols()) | frozenset(extra_alphabet)
    start_set = nfa.epsilon_closure({nfa.start})
    index: dict[frozenset[int], int] = {start_set: 0}
    order: list[frozenset[int]] = [start_set]
    transitions: list[dict[str, int]] = []
    other: list[int] = []

    position = 0
    while position < len(order):
        current = order[position]
        position += 1
        row: dict[str, int] = {}
        for label in alphabet:
            target_set = nfa.epsilon_closure(nfa.move(current, label))
            target = index.get(target_set)
            if target is None:
                target = len(order)
                index[target_set] = target
                order.append(target_set)
            row[label] = target
        # OTHER: only wildcard edges can consume an out-of-alphabet label
        wild: set[int] = set()
        for state in current:
            wild.update(nfa.transitions[state].get(WILDCARD, ()))
        other_set = nfa.epsilon_closure(wild)
        other_target = index.get(other_set)
        if other_target is None:
            other_target = len(order)
            index[other_set] = other_target
            order.append(other_set)
        transitions.append(row)
        other.append(other_target)

    accepting = [i for i, subset in enumerate(order) if nfa.accept in subset]
    return DFA(alphabet, transitions, other, 0, accepting)


def compile_regex(
    expression: Regex | str, extra_alphabet: Iterable[str] = ()
) -> DFA:
    """Compile an expression (tree or concrete syntax) to a minimal DFA.

    Memoized process-wide by ``(expression, alphabet)`` through the
    bounded LRU of :mod:`repro.regex.cache`: regex equality is
    structural, so any two syntactically equal expressions — whether
    parsed from text or built as trees — share one compiled automaton.
    Callers must treat the returned DFA as immutable.
    """
    from repro.regex.cache import compile_cache
    from repro.regex.minimize import minimize_dfa
    from repro.regex.parser import parse_regex

    if isinstance(expression, str):
        expression = parse_regex(expression)
    key = (expression, frozenset(extra_alphabet))

    def build() -> DFA:
        nfa = nfa_from_regex(expression)
        return minimize_dfa(dfa_from_nfa(nfa, extra_alphabet=extra_alphabet))

    return compile_cache.get_or_create(key, build)
