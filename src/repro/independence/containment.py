"""Update-class containment: matrix cells decided without exploration.

Definition 6's dangerous language ``L(fd, U)`` holds the documents in
which a node that ``U`` selects lies in the FD's trace or regions, so
it grows with ``U``'s selection: if every node ``U2`` selects is also
selected by ``U1``, on every document, then ``L(fd, U2) ⊆ L(fd, U1)``,
and an INDEPENDENT ``(fd, U1)`` cell decides ``(fd, U2)``.

A *linear* class has a chain template whose leaf is the selected node.
It selects exactly the nodes whose root-to-node label word lies in the
concatenation of its edge languages, so one linear class contains
another when their path languages are included.  Branching classes
relate to nothing here, and neither do classes that a schema alone
relates.

Proposition 1 makes independence PSPACE-hard because regex inclusion
is, and this inclusion test is no easier, so it is bounded.  It runs an
on-the-fly product of the inner chain (one state of its edge DFAs at a
time) with *sets* of states of the outer chain, determinized as the
search goes, over the edge DFAs the templates already cache.  After
:data:`MAX_PRODUCT_STATES` product states it gives up, which counts as
no relation.  No chain is ever compiled into one automaton: a
determinized ``//a/~/…/~`` doubles with every wildcard.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from typing import NamedTuple

from repro.pattern.template import ROOT_POSITION
from repro.regex.dfa import DFA
from repro.update.update_class import UpdateClass

#: product states one inclusion test may visit before it answers
#: "undecided"; a containment a matrix can use takes a few dozen
MAX_PRODUCT_STATES = 256

#: the letter standing for every label outside the alphabet
_OTHER = None


class PathChain:
    """The path language of a linear class: its edge DFAs, root first.

    A state of the chain is a flat index ``offset[k] + q`` for state
    ``q`` of edge ``k``'s DFA.  Steps into a state that cannot reach
    acceptance read as ``-1``, so the search never carries dead states.
    """

    def __init__(self, dfas: Sequence[DFA]) -> None:
        self._dfas = tuple(dfas)
        self.labels = frozenset().union(*(dfa.alphabet for dfa in dfas))
        self._offsets = []
        offset = 0
        for dfa in dfas:
            self._offsets.append(offset)
            offset += dfa.state_count
        self._live = [dfa.live_states() for dfa in dfas]
        #: a chain is empty when one of its edge languages is
        self.empty = any(
            dfa.start not in live for dfa, live in zip(dfas, self._live)
        )
        self.start = dfas[0].start
        last = len(dfas) - 1
        self.accepting = frozenset(
            self._offsets[last] + state for state in dfas[last].accepting
        )
        # the one epsilon move: an accepted edge continues at the start
        # of the next one (never accepting itself: edges are proper)
        self.jump = [-1] * offset
        for k, dfa in enumerate(dfas[:-1]):
            following = dfas[k + 1]
            if following.start in self._live[k + 1]:
                for state in dfa.accepting:
                    self.jump[self._offsets[k] + state] = (
                        self._offsets[k + 1] + following.start
                    )
        self._columns: dict[str | None, list[int]] = {}

    def column(self, label: str | None) -> list[int]:
        """Each flat state's successor on ``label`` (``None``: OTHER)."""
        if label is not _OTHER and label not in self.labels:
            label = _OTHER
        column = self._columns.get(label)
        if column is None:
            column = []
            for dfa, offset, live in zip(self._dfas, self._offsets, self._live):
                for state in range(dfa.state_count):
                    target = (
                        dfa.other[state]
                        if label is _OTHER
                        else dfa.step(state, label)
                    )
                    column.append(offset + target if target in live else -1)
            self._columns[label] = column
        return column


class Inclusion(NamedTuple):
    """What one bounded inclusion test found."""

    #: ``None`` when the cap stopped the search undecided
    contained: bool | None
    #: product states visited
    states: int


def path_inclusion(inner: PathChain, outer: PathChain) -> Inclusion:
    """Decide ``L(inner) ⊆ L(outer)`` within :data:`MAX_PRODUCT_STATES`.

    A product state pairs one live state of the inner chain with the set
    of live states the outer chain can be in after the same word.  The
    search fails as soon as the inner chain accepts a word the outer set
    does not, or the outer set empties while the inner state is live.
    """
    if inner.empty:
        return Inclusion(True, 0)
    if outer.empty:
        return Inclusion(False, 0)
    letters = [*sorted(inner.labels | outer.labels), _OTHER]
    pairs = [
        (inner.column(label), outer.column(label)) for label in letters
    ]
    inner_jump, outer_jump = inner.jump, outer.jump
    inner_accepting, outer_accepting = inner.accepting, outer.accepting
    start = (inner.start, frozenset({outer.start}))
    seen = {start}
    queue = [start]
    for state, states in queue:
        for inner_column, outer_column in pairs:
            target = inner_column[state]
            if target < 0:
                continue
            successors = set()
            for source in states:
                reached = outer_column[source]
                if reached >= 0:
                    successors.add(reached)
                    if outer_jump[reached] >= 0:
                        successors.add(outer_jump[reached])
            if not successors or (
                target in inner_accepting
                and outer_accepting.isdisjoint(successors)
            ):
                return Inclusion(False, len(seen))
            frozen = frozenset(successors)
            jump = inner_jump[target]
            for successor in (target,) if jump < 0 else (target, jump):
                key = (successor, frozen)
                if key not in seen:
                    if len(seen) >= MAX_PRODUCT_STATES:
                        return Inclusion(None, len(seen))
                    seen.add(key)
                    queue.append(key)
    return Inclusion(True, len(seen))


def linear_path(update_class: UpdateClass) -> PathChain | None:
    """The path chain of a linear class; ``None`` for any other."""
    pattern = update_class.pattern
    if not pattern.is_monadic:
        return None
    template = pattern.template
    position, dfas = ROOT_POSITION, []
    while children := template.children(position):
        if len(children) > 1:
            return None
        position = children[0]
        dfas.append(template.edge_dfa(position))
    if not dfas or position != pattern.selected[0]:
        return None
    return PathChain(dfas)


@dataclasses.dataclass(frozen=True)
class ColumnContainment:
    """The order a matrix row decides its columns in, and what each
    column may be derived from.

    ``order`` lists every column, each after the columns that contain
    it.  ``containers[j]`` names the columns that contain column ``j``
    and come before it in ``order``, lowest index first.
    """

    order: tuple[int, ...]
    containers: tuple[tuple[int, ...], ...]

    def container(self, column: int, independent: set[int]) -> int | None:
        """The first container of ``column`` among the ``independent``
        columns, or ``None``."""
        return next(
            (i for i in self.containers[column] if i in independent), None
        )


def column_containment(
    update_classes: Sequence[UpdateClass],
) -> ColumnContainment:
    """Relate every pair of linear columns by bounded path inclusion."""
    chains = [linear_path(update_class) for update_class in update_classes]
    contained_in: list[list[int]] = [[] for _ in chains]
    for j, inner in enumerate(chains):
        if inner is None:
            continue
        for i, outer in enumerate(chains):
            if (
                i != j
                and outer is not None
                and path_inclusion(inner, outer).contained
            ):
                contained_in[j].append(i)
    order = _containers_first(contained_in)
    rank = {column: index for index, column in enumerate(order)}
    return ColumnContainment(
        order=tuple(order),
        containers=tuple(
            tuple(i for i in containers if rank[i] < rank[j])
            for j, containers in enumerate(contained_in)
        ),
    )


def _containers_first(contained_in: list[list[int]]) -> list[int]:
    """Every column after the columns that contain it (a depth-first
    post-order).  Containment can only run in a cycle through columns
    of equal languages; the walk cuts such a cycle where it closes."""
    order: list[int] = []
    state = [0] * len(contained_in)  # 0 unseen, 1 on the walk, 2 placed
    for root in range(len(contained_in)):
        if state[root]:
            continue
        state[root] = 1
        walk = [(root, iter(contained_in[root]))]
        while walk:
            column, pending = walk[-1]
            for container in pending:
                if not state[container]:
                    state[container] = 1
                    walk.append((container, iter(contained_in[container])))
                    break
            else:
                walk.pop()
                state[column] = 2
                order.append(column)
    return order
