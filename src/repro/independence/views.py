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
import time

from repro.errors import IndependenceError
from repro.independence.criterion import EAGER, LAZY, Verdict
from repro.independence.language import (
    dangerous_factors,
    eager_automaton,
    explore_dangerous_factors,
)
from repro.independence.strategy import AUTO, STRATEGIES
from repro.limits import Budget, BudgetExceeded, PartialStats
from repro.obs.metrics import format_stats
from repro.obs.trace import current_tracer
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import (
    automaton_is_empty_typed,
    witness_document,
)
from repro.tautomata.hedge import HedgeAutomaton
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument


@dataclasses.dataclass
class ViewIndependenceResult:
    """Verdict of the view-update criterion.

    ``automaton`` is the eager product when ``strategy="eager"`` and
    ``None`` under the lazy exploration (which never materializes it);
    ``automaton_size`` accordingly reports the full or the explored
    size, with ``exploration`` carrying the worst-case accounting.
    """

    verdict: Verdict
    view: RegularTreePattern
    update_class: UpdateClass
    schema: Schema | None
    automaton: HedgeAutomaton | None
    witness: XMLDocument | None
    automaton_size: int
    elapsed_seconds: float
    strategy: str = EAGER
    exploration: ExplorationStats | None = None
    budget: Budget | None = None
    partial: PartialStats | None = None

    @property
    def independent(self) -> bool:
        return self.verdict is Verdict.INDEPENDENT

    @property
    def decided(self) -> bool:
        """True when the analysis ran to completion (either boolean)."""
        return self.verdict is not Verdict.UNKNOWN

    @property
    def needs_revalidation(self) -> bool:
        """True when soundness requires recomputing the view downstream."""
        return not self.independent

    @property
    def unknown_reason(self) -> str | None:
        """Why the verdict is UNKNOWN (``None`` for decided runs)."""
        return None if self.partial is None else self.partial.reason

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
    ``budget`` bounds the total exploration; exhausting it yields the
    UNKNOWN verdict with partial statistics, never a wrong boolean.
    ``tracer`` likewise mirrors the FD criterion: the run is wrapped in
    a ``view.check`` span, and observability never changes the verdict.
    """
    if strategy not in STRATEGIES:
        raise IndependenceError(
            f"unknown independence strategy {strategy!r}; "
            f"expected {AUTO!r}, {LAZY!r} or {EAGER!r}"
        )
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    meter = None if budget is None or budget.unbounded else budget.start()
    exploration: ExplorationStats | None = None
    automaton: HedgeAutomaton | None = None
    partial: PartialStats | None = None
    witness: XMLDocument | None = None
    with tracer.span("view.check") as check_span:
        with tracer.span("ic.construct"):
            view_automaton, update_automaton, schema_hedge = (
                dangerous_factors(
                    view, update_class, schema,
                    pattern_name="A_V", tracer=tracer,
                )
            )
        requested = strategy
        if strategy == AUTO:
            strategy = LAZY
        try:
            if strategy == LAZY:
                outcome = explore_dangerous_factors(
                    view_automaton,
                    update_automaton,
                    schema_hedge,
                    want_witness=want_witness,
                    meter=meter,
                    tracer=tracer,
                )
                empty = outcome.empty
                witness = outcome.witness
                exploration = outcome.stats
                automaton_size = exploration.explored_size
            else:
                if meter is not None:
                    meter.check_deadline()
                with tracer.span("ic.eager_product"):
                    automaton = eager_automaton(
                        view_automaton, update_automaton, schema_hedge
                    )
                if meter is not None:
                    meter.check_deadline()
                with tracer.span("ic.eager_emptiness"):
                    if want_witness:
                        witness = witness_document(automaton, meter=meter)
                        empty = witness is None
                    else:
                        empty = automaton_is_empty_typed(automaton, meter=meter)
                automaton_size = automaton.size()
            verdict = (
                Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
            )
        except BudgetExceeded as signal:
            verdict = Verdict.UNKNOWN
            partial = signal.partial
            witness = None
            exploration = None
            automaton = None
            automaton_size = partial.explored_states + partial.explored_rules
        if check_span.enabled:
            check_span.set_attribute("view_arity", view.arity)
            check_span.set_attribute("update_class", update_class.name)
            check_span.set_attribute("strategy", strategy)
            if requested == AUTO:
                check_span.set_attribute("strategy_requested", AUTO)
            check_span.set_attribute("verdict", verdict.value)
            check_span.set_attribute("automaton_size", automaton_size)
            if exploration is not None:
                check_span.set_attribute(
                    "explored_rules", exploration.explored_rules
                )
                check_span.set_attribute(
                    "worst_case_rules", exploration.worst_case_rules
                )
    elapsed = time.perf_counter() - started
    return ViewIndependenceResult(
        verdict=verdict,
        view=view,
        update_class=update_class,
        schema=schema,
        automaton=automaton,
        witness=witness,
        automaton_size=automaton_size,
        elapsed_seconds=elapsed,
        strategy=strategy,
        exploration=exploration,
        budget=budget,
        partial=partial,
    )
