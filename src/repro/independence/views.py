"""View-update independence: the companion result of [9].

The paper's abstract and related-work section recall that the same
technique was first used (by the same authors, reference [9]) to detect
independence of *view queries* from update classes: a view defined by an
n-ary regular tree pattern is unaffected by every update of a class
``U`` whenever no document lets an update touch the view's trace or the
subtrees it returns.

That dangerous region is *identical* to the FD case — ``N(trace)`` plus
the subtrees rooted at selected-node images — so the construction of
:mod:`repro.independence.language` applies verbatim with the view
pattern in place of the FD pattern.  This module packages that reuse:

* :func:`view_dangerous_language` — the automaton for the view variant
  of Definition 6 (the eager product, kept for size studies);
* :func:`check_view_independence` — the polynomial criterion: when the
  language is empty, every update of the class leaves ``V(D)`` (as a
  forest of subtrees) unchanged on every (schema-valid) document.  Like
  the FD criterion it defaults to the on-the-fly product exploration and
  builds a witness document only when one is requested.

Batch runs over many views and update classes should go through
:func:`repro.independence.matrix.check_view_independence_matrix`, which
shares the factor automata and fixpoints across cells.
"""

from __future__ import annotations

import dataclasses

from repro.independence.criterion import CellOutcome, _check_pair
from repro.independence.language import dangerous_factors, eager_automaton
from repro.independence.strategy import AUTO
from repro.limits import Budget
from repro.obs.metrics import format_stats
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.hedge import HedgeAutomaton
from repro.update.update_class import UpdateClass


@dataclasses.dataclass(kw_only=True)
class ViewIndependenceResult(CellOutcome):
    """Verdict of the view-update criterion: the cell's
    :class:`~repro.independence.criterion.CellOutcome` plus the pair it
    decided, its budget and its wall time."""

    view: RegularTreePattern
    update_class: UpdateClass
    schema: Schema | None
    elapsed_seconds: float
    budget: Budget | None = None

    def describe(self) -> str:
        """One-line human-readable account of the verdict."""
        schema_part = "no schema" if self.schema is None else "with schema"
        size_part = format_stats(
            self.exploration, self.partial, self.automaton_size
        )
        return (
            f"view-IC(view/{self.view.arity}-ary, {self.update_class.name}) "
            f"[{schema_part}]: {self.verdict.value.upper()} "
            f"({size_part}, "
            f"{self.elapsed_seconds * 1000:.2f} ms)"
        )


def view_dangerous_language(
    view: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None = None,
) -> HedgeAutomaton:
    """The automaton recognizing the view variant of the language ``L``."""
    return eager_automaton(
        *dangerous_factors(view, update_class, schema, pattern_name="A_V")
    )


def check_view_independence(
    view: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None = None,
    want_witness: bool = True,
    strategy: str = AUTO,
    budget: Budget | None = None,
    tracer=None,
) -> ViewIndependenceResult:
    """Certify that no update of the class can change the view's result.

    Like :func:`repro.independence.criterion.check_independence`, a
    ``budget`` caps the cell product and, each on its own fork, the
    factor fixpoints behind it; exhausting it yields the
    UNKNOWN verdict with partial statistics, never a wrong boolean.
    ``tracer`` likewise mirrors the FD criterion: the run is wrapped in
    a ``view.check`` span, and observability never changes the verdict.
    """
    outcome, elapsed = _check_pair(
        "view.check", {"view_arity": view.arity}, view, "A_V",
        update_class, schema, want_witness, strategy, budget, tracer,
    )
    return ViewIndependenceResult(
        **vars(outcome),
        view=view,
        update_class=update_class,
        schema=schema,
        elapsed_seconds=elapsed,
        budget=budget,
    )
