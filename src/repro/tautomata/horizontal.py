"""Horizontal languages: regular constraints on children-state words.

A hedge-automaton rule constrains the word formed by the states of a
node's children.  Rather than materializing one large DFA per rule (the
product constructions of Section 5 would square sizes needlessly), a
horizontal language is a small object implementing a deterministic
automaton protocol:

* ``initial()`` -- start state;
* ``step(state, symbol)`` -- next state, or ``None`` when dead;
* ``accepting(state)`` -- acceptance;
* ``size()`` -- number of states (for the Proposition 3 size study);
* ``watch()`` -- a sound finite bound on the symbols the language can
  ever step on, as an index path plus a set (or ``None``, unknown):
  the worklist engine skips every symbol outside it.

Symbols are hedge-automaton states (arbitrary hashable objects).  The
instances cover everything the paper's constructions need: the shuffle
shape ``F* S1 F* S2 ... Sk F*`` of pattern embeddings, content-model DFAs
for schemas, products for product automata, and exactly-one-flag counting
for the Definition 6 intersection condition.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.regex.dfa import DFA

HState = Hashable
Symbol = Hashable
#: coordinates read left to right: ``(0, 1)`` reads ``symbol[0][1]``
Path = tuple[int, ...]
#: ``(path, symbols)``: only a symbol whose projection through ``path``
#: lies in ``symbols`` can step a state anywhere
Watch = tuple[Path, frozenset[Symbol]]


class HorizontalLanguage:
    """Protocol base class; see the module docstring."""

    def initial(self) -> HState:
        """The start state of the deterministic horizontal automaton."""
        raise NotImplementedError

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        """Consume one child state; ``None`` means the run is dead."""
        raise NotImplementedError

    def accepting(self, state: HState) -> bool:
        """Is the children word read so far accepted?"""
        raise NotImplementedError

    def size(self) -> int:
        """State count, for the Proposition 3 size accounting."""
        raise NotImplementedError

    def structure_key(self) -> Hashable:
        """A hashable structural fingerprint of the language.

        Two languages with equal keys accept the same words, so rule
        deltas across re-built automata (incremental re-analysis after a
        pattern edit) can match surviving rules structurally instead of
        by object identity.  The base fallback is object identity —
        conservatively distinct, never wrongly equal.
        """
        return ("opaque", id(self))

    def watch(self) -> Watch | None:
        """The symbols this language can ever step on, over-approximated.

        ``(path, symbols)`` promises that from every state reachable
        from :meth:`initial`, a symbol steps to ``None`` unless reading
        the coordinates of ``path`` in order maps it into ``symbols``.
        The worklist engine skips the (frontier state, symbol) pairs the
        bound rules out, so it must be sound; it need not be tight.
        The base default ``None`` means unknown: every symbol is tried.
        Implementations compute the set on call rather than storing one
        per instance (automata outlive their fixpoints).
        """
        return None

    # convenience ------------------------------------------------------

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Run the language on a concrete word of symbols."""
        state: HState | None = self.initial()
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return False
        return self.accepting(state)


class EmptyWordHorizontal(HorizontalLanguage):
    """Only the empty children word (leaf rules)."""

    def structure_key(self) -> Hashable:
        return ("empty-word",)

    def watch(self) -> Watch | None:
        return (), frozenset()

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return None

    def accepting(self, state: HState) -> bool:
        return True

    def size(self) -> int:
        return 1


class AllHorizontal(HorizontalLanguage):
    """``F*``: every child state must belong to a fixed set."""

    def __init__(self, allowed: frozenset[Symbol] | set[Symbol]) -> None:
        self.allowed = frozenset(allowed)

    def structure_key(self) -> Hashable:
        return ("all", self.allowed)

    def watch(self) -> Watch | None:
        return (), self.allowed

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return 0 if symbol in self.allowed else None

    def accepting(self, state: HState) -> bool:
        return True

    def size(self) -> int:
        return 1


class ShuffleHorizontal(HorizontalLanguage):
    """``F* S1 F* S2 ... Sk F*`` with filler set F and requirement sets Si.

    This is the children shape of a pattern-node image: the required
    path-start children appear in order at distinct positions, everything
    else is filler.  The requirement sets may overlap the filler set, so
    the deterministic state is the subset of "requirements consumed so
    far" counts that are still achievable.
    """

    def __init__(
        self,
        fillers: frozenset[Symbol] | set[Symbol],
        requirements: Sequence[frozenset[Symbol] | set[Symbol]],
    ) -> None:
        self.fillers = frozenset(fillers)
        self.requirements = [frozenset(req) for req in requirements]

    def structure_key(self) -> Hashable:
        return ("shuffle", self.fillers, tuple(self.requirements))

    def watch(self) -> Watch | None:
        if not self.requirements:
            return (), self.fillers
        return (), self.fillers.union(*self.requirements)

    def initial(self) -> HState:
        return frozenset({0})

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        assert isinstance(state, frozenset)
        advanced: set[int] = set()
        for consumed in state:
            if symbol in self.fillers:
                advanced.add(consumed)
            if consumed < len(self.requirements) and symbol in self.requirements[consumed]:
                advanced.add(consumed + 1)
        if not advanced:
            return None
        return frozenset(advanced)

    def accepting(self, state: HState) -> bool:
        assert isinstance(state, frozenset)
        return len(self.requirements) in state

    def size(self) -> int:
        return len(self.requirements) + 1


class DFAHorizontal(HorizontalLanguage):
    """A horizontal language backed by an explicit word DFA.

    Used for schema content models, whose symbols are schema states.
    Dead states (those from which acceptance is unreachable) step to
    ``None`` so emptiness searches stay small.
    """

    def __init__(self, dfa: DFA) -> None:
        self.dfa = dfa
        self._live = dfa.live_states()

    def initial(self) -> HState:
        return self.dfa.start

    def watch(self) -> Watch | None:
        # frontier states are live (or a dead start, which steps nowhere)
        labels = self.dfa.live_labels()
        return None if labels is None else ((), labels)

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        target = self.dfa.step(state, symbol)  # type: ignore[arg-type]
        if target not in self._live:
            return None
        return target

    def accepting(self, state: HState) -> bool:
        return state in self.dfa.accepting

    def size(self) -> int:
        return self.dfa.state_count


class ProjectedHorizontal(HorizontalLanguage):
    """Read one coordinate of every symbol before a wrapped language.

    In a product automaton the children states are tuples; each component
    automaton's horizontal language reads its own coordinate.
    """

    def __init__(self, inner: HorizontalLanguage, index: int) -> None:
        self.inner = inner
        self.index = index

    def structure_key(self) -> Hashable:
        return ("projected", self.inner.structure_key(), self.index)

    def watch(self) -> Watch | None:
        inner = self.inner.watch()
        if inner is None:
            return None
        path, symbols = inner
        return (self.index, *path), symbols

    def initial(self) -> HState:
        return self.inner.initial()

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return self.inner.step(state, symbol[self.index])

    def accepting(self, state: HState) -> bool:
        return self.inner.accepting(state)

    def size(self) -> int:
        return self.inner.size()


class ProductHorizontal(HorizontalLanguage):
    """Conjunction of several horizontal languages on the same word.

    Nested products are flattened at construction: a part that is a
    projection of a product contributes that product's leaves, each
    reading the symbol through the composed index path.  So a product
    of products of projections — the flagged product over ``A_S × A_FD``
    — steps its leaf languages in one loop, with one state tuple, and
    reads each leaf's coordinate with plain index reads.  Flattening
    only regroups the conjunction: the same words are accepted, and the
    reachable states correspond one to one.
    """

    def __init__(self, parts: Sequence[HorizontalLanguage]) -> None:
        #: the leaf languages, and the index path each reads through
        self.parts: list[HorizontalLanguage] = []
        self.paths: list[Path] = []
        for part in parts:
            path: Path = ()
            while isinstance(part, ProjectedHorizontal):
                path += (part.index,)
                part = part.inner
            if isinstance(part, ProductHorizontal):
                self.parts.extend(part.parts)
                self.paths.extend(path + inner for inner in part.paths)
            else:
                self.parts.append(part)
                self.paths.append(path)
        self._initial = tuple(part.initial() for part in self.parts)
        self._steps = [
            (part.step, path) for part, path in zip(self.parts, self.paths)
        ]

    def structure_key(self) -> Hashable:
        return (
            "product",
            tuple(
                (path, part.structure_key())
                for part, path in zip(self.parts, self.paths)
            ),
        )

    def watch(self) -> Watch | None:
        # a product step dies when any part's does: one part's bound holds
        for part, path in zip(self.parts, self.paths):
            bound = part.watch()
            if bound is not None:
                inner, symbols = bound
                return path + inner, symbols
        return None

    def initial(self) -> HState:
        return self._initial

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        advanced = []
        for (step, path), sub_state in zip(self._steps, state):
            key = symbol
            for index in path:
                key = key[index]
            next_state = step(sub_state, key)
            if next_state is None:
                return None
            advanced.append(next_state)
        return tuple(advanced)

    def accepting(self, state: HState) -> bool:
        for part, sub_state in zip(self.parts, state):
            if not part.accepting(sub_state):
                return False
        return True

    def size(self) -> int:
        product = 1
        for part in self.parts:
            product *= part.size()
        return product


class FlagOnceHorizontal(HorizontalLanguage):
    """Count flagged children: accepts words with a given flag total.

    Each symbol is a flag, 0 or 1 (a product reads it out of the
    children's state tuples through a projection); the language accepts
    when the number of flagged children equals ``required`` (0 or 1 in
    the Definition 6 construction — the designated node lies in exactly
    one child subtree unless the current node is the designated one).
    """

    def __init__(self, required: int) -> None:
        self.required = required

    def structure_key(self) -> Hashable:
        return ("flag-once", self.required)

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        assert isinstance(state, int)
        count = state + symbol
        if count > self.required:
            return None
        return count

    def accepting(self, state: HState) -> bool:
        return state == self.required

    def size(self) -> int:
        return self.required + 1
