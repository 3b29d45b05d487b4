"""The polynomial independence criterion IC (Propositions 2-3).

``check_independence`` builds the automaton for the dangerous language
``L`` and tests its emptiness:

* ``L = ∅``  →  verdict INDEPENDENT: *no* document (valid w.r.t. the
  schema, if any) lets any update of the class touch the FD's traces or
  selected subtrees, so the FD cannot start failing — whatever the
  concrete update performer does (label-preservingly);
* ``L ≠ ∅``  →  verdict POSSIBLY_DEPENDENT: the criterion is
  sufficient, not complete; a witness "dangerous document" can be
  extracted to show the analyst where an interaction is possible;
* budget exhausted  →  verdict UNKNOWN: a bounded run that hit its
  wall-clock deadline or an explored-state/rule cap proves *nothing*
  about ``L`` — the result carries the reason and the partial
  exploration statistics, and callers must degrade to the sound
  fallback of re-validating the FD on the updated document (see the
  DESIGN.md section "Degradation semantics").

Three strategies decide the same emptiness:

* ``strategy="lazy"`` — on-the-fly product exploration
  (:mod:`repro.tautomata.lazy`): product rules are generated only for
  label-compatible pairs of individually fireable factor rules, and the
  worklist fixpoint extends persistent frontiers instead of restarting;
  the result records explored-vs-worst-case sizes;
* ``strategy="eager"`` — materialize the full product (the Proposition
  3 construction measured by experiment T2), then run the fixpoint;
* ``strategy="auto"`` (default) — resolves to lazy
  (:mod:`repro.independence.strategy`); the result's ``strategy`` field
  reports the resolved choice.

Whichever runs, it runs inside :func:`decide_cell`, the one cell
decision shared by this criterion, the view criterion and every matrix
cell.

The check never looks at any source document — its cost depends only on
``|FD|``, ``|U|``, ``|A_S|`` and the alphabet, which is the efficiency
claim the paper makes against the revalidation approach of [14].
"""

from __future__ import annotations

import dataclasses
import enum
import time

from repro.fd.fd import FunctionalDependency
from repro.independence.language import (
    dangerous_factors,
    eager_automaton,
    explore_dangerous_factors,
)
from repro.independence.strategy import AUTO, EAGER, LAZY, resolve_strategy
from repro.limits import Budget, BudgetExceeded, BudgetMeter, PartialStats
from repro.obs.metrics import format_stats
from repro.obs.trace import NOOP_TRACER, current_tracer
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import automaton_is_empty_typed, witness_document
from repro.tautomata.from_pattern import PatternAutomaton
from repro.tautomata.hedge import HedgeAutomaton
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument

__all__ = [
    "AUTO",
    "EAGER",
    "LAZY",
    "CellOutcome",
    "IndependenceResult",
    "Verdict",
    "check_independence",
    "decide_cell",
]


class Verdict(enum.Enum):
    """Three-valued outcome of the criterion.

    ``INDEPENDENT`` certifies (Prop. 2); ``POSSIBLY_DEPENDENT`` records
    that ``L ≠ ∅`` was *proved* (the criterion simply cannot certify —
    it is sufficient, not complete); ``UNKNOWN`` records that the
    analysis was cut short by its :class:`~repro.limits.Budget` and
    proved nothing either way.  Only INDEPENDENT may skip revalidation;
    both other verdicts must fall back to full FD re-checking.
    """

    INDEPENDENT = "independent"
    POSSIBLY_DEPENDENT = "possibly-dependent"
    UNKNOWN = "unknown"


class VerdictFlags:
    """What a verdict means downstream, for every record that holds one.

    Mixed into :class:`CellOutcome` (and with it the per-pair results)
    and the matrix cell; each provides ``verdict`` and ``partial``.
    """

    verdict: Verdict
    partial: PartialStats | None

    @property
    def independent(self) -> bool:
        """True when independence is certified."""
        return self.verdict is Verdict.INDEPENDENT

    @property
    def decided(self) -> bool:
        """True when the analysis ran to completion (either boolean)."""
        return self.verdict is not Verdict.UNKNOWN

    @property
    def needs_revalidation(self) -> bool:
        """True when soundness requires re-checking downstream: the FD
        revalidated, or the view recomputed, on the updated document."""
        return not self.independent

    @property
    def unknown_reason(self) -> str | None:
        """Why the verdict is UNKNOWN (``None`` for decided runs)."""
        return None if self.partial is None else self.partial.reason


@dataclasses.dataclass
class CellOutcome(VerdictFlags):
    """What :func:`decide_cell` found for one (pattern, update) cell.

    ``strategy`` is the strategy that ran (never ``"auto"``).
    ``automaton_size`` reports the size of what the decision actually
    touched: the full eager automaton under ``strategy="eager"``, the
    explored fragment (inhabited states + instantiated rules) under
    ``strategy="lazy"``.  ``automaton`` is that eager automaton, and
    ``None`` under the lazy exploration (which never materializes it).
    ``exploration`` carries the full explored-vs-worst-case accounting
    for the lazy path (``None`` for eager runs); the worst case is the
    Proposition 3 bound either way.

    UNKNOWN outcomes carry ``partial`` — the explored-so-far counters
    at the moment the budget ran out — instead of ``exploration``, a
    witness and an automaton; ``automaton_size`` then counts those
    states and rules, and ``unknown_reason`` names the exhausted
    dimension.
    """

    verdict: Verdict
    strategy: str
    automaton_size: int
    witness: XMLDocument | None = None
    exploration: ExplorationStats | None = None
    partial: PartialStats | None = None
    automaton: HedgeAutomaton | None = None


def decide_cell(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None,
    strategy: str,
    want_witness: bool,
    meter: BudgetMeter | None = None,
    factor_cache: dict | None = None,
    tracer=None,
) -> CellOutcome:
    """Decide whether the dangerous language of one cell is empty.

    The one decision every front end runs: the FD and view criteria
    and each matrix cell.  ``strategy`` is a resolved
    one (:func:`~repro.independence.strategy.resolve_strategy`):
    ``"lazy"`` explores the flagged product on the fly, sharing the
    factor fixpoints through ``factor_cache``; ``"eager"`` materializes
    Proposition 3's automaton (an ``ic.eager_product`` span) and runs
    the typed fixpoint on it (``ic.eager_emptiness``).  A ``meter``
    that runs out turns the cell into UNKNOWN with its partial
    statistics; it is never a wrong boolean.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    automaton = exploration = witness = None
    try:
        if strategy == EAGER:
            if meter is not None:
                meter.check_deadline()
            with tracer.span("ic.eager_product"):
                automaton = eager_automaton(
                    pattern_automaton, update_automaton, schema_hedge
                )
            if meter is not None:
                meter.check_deadline()
            with tracer.span("ic.eager_emptiness"):
                if want_witness:
                    witness = witness_document(automaton, meter=meter)
                    empty = witness is None
                else:
                    empty = automaton_is_empty_typed(automaton, meter=meter)
            size = automaton.size()
        else:
            explored = explore_dangerous_factors(
                pattern_automaton, update_automaton, schema_hedge,
                want_witness=want_witness, factor_cache=factor_cache,
                meter=meter, tracer=tracer,
            )
            empty, witness = explored.empty, explored.witness
            exploration = explored.stats
            size = exploration.explored_size
    except BudgetExceeded as signal:
        partial = signal.partial
        return CellOutcome(
            verdict=Verdict.UNKNOWN,
            strategy=strategy,
            automaton_size=partial.explored_states + partial.explored_rules,
            partial=partial,
        )
    return CellOutcome(
        verdict=Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT,
        strategy=strategy,
        automaton_size=size,
        witness=witness,
        exploration=exploration,
        automaton=automaton,
    )


def cell_attributes(cell, strategy: str) -> dict:
    """The outcome attributes of a cell span: ``verdict``, ``strategy``,
    and ``explored_rules`` / ``worst_case_rules`` of a lazy cell or the
    ``unknown_reason`` of an UNKNOWN one.

    ``cell`` is any record with ``verdict``, ``exploration`` and
    ``partial``: a :class:`CellOutcome`, a per-pair result or a matrix
    cell.  ``ic.check``, ``view.check`` and every ``matrix.cell`` span,
    serial or re-emitted from a pool worker, take their outcome
    attributes from here, so a trace report reads them all alike.
    """
    attributes = {"verdict": cell.verdict.value, "strategy": strategy}
    if cell.exploration is not None:
        attributes["explored_rules"] = cell.exploration.explored_rules
        attributes["worst_case_rules"] = cell.exploration.worst_case_rules
    if cell.partial is not None:
        attributes["unknown_reason"] = cell.partial.reason
    return attributes


def _check_pair(
    span_name: str,
    span_attributes: dict,
    pattern: RegularTreePattern,
    pattern_name: str,
    update_class: UpdateClass,
    schema: Schema | None,
    want_witness: bool,
    strategy: str,
    budget: Budget | None,
    tracer,
) -> tuple[CellOutcome, float]:
    """One (pattern, update class) pair through :func:`decide_cell`;
    returns the outcome and the pair's wall time.

    The meter starts before the automata are built, so a deadline
    covers their construction too.
    """
    strategy = resolve_strategy(strategy)
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    meter = None if budget is None or budget.unbounded else budget.start()
    with tracer.span(span_name) as span:
        with tracer.span("ic.construct"):
            factors = dangerous_factors(
                pattern, update_class, schema,
                pattern_name=pattern_name, tracer=tracer,
            )
        outcome = decide_cell(
            *factors, strategy, want_witness, meter, tracer=tracer
        )
        if span.enabled:
            span.attributes.update(span_attributes)
            span.set_attribute("update_class", update_class.name)
            span.set_attribute("automaton_size", outcome.automaton_size)
            span.attributes.update(cell_attributes(outcome, strategy))
    return outcome, time.perf_counter() - started


@dataclasses.dataclass(kw_only=True)
class IndependenceResult(CellOutcome):
    """Verdict of the FD criterion: the cell's :class:`CellOutcome`
    plus the pair it decided, its budget and its wall time."""

    fd: FunctionalDependency
    update_class: UpdateClass
    schema: Schema | None
    elapsed_seconds: float
    budget: Budget | None = None

    def describe(self) -> str:
        """One-paragraph human-readable account of the verdict."""
        schema_part = "no schema" if self.schema is None else "with schema"
        size_part = format_stats(
            self.exploration, self.partial, self.automaton_size
        )
        lines = [
            f"IC({self.fd.name}, {self.update_class.name}) [{schema_part}]: "
            f"{self.verdict.value.upper()} "
            f"({size_part}, {self.elapsed_seconds * 1000:.2f} ms)"
        ]
        if self.verdict is Verdict.UNKNOWN:
            lines.append(
                "  the budget ran out before emptiness was decided; "
                "fall back to full FD revalidation"
            )
        if self.witness is not None:
            lines.append(
                "  a dangerous document exists; inspect result.witness"
            )
        return "\n".join(lines)


def check_independence(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
    want_witness: bool = True,
    strategy: str = AUTO,
    budget: Budget | None = None,
    tracer=None,
) -> IndependenceResult:
    """Run the criterion IC on a (FD, update-class[, schema]) triple.

    Emptiness is decided under the XML typing rules (leaf-labeled nodes
    cannot carry children) rather than the classical untyped fixpoint,
    so the verdict quantifies exactly over real documents.  Witness
    construction runs only when the tree is actually wanted.

    With a ``budget``, the cell product charges its work against the
    verdict's meter and each factor fixpoint against a fork of its own
    (:meth:`~repro.limits.BudgetMeter.fork`); a run that exhausts the
    budget returns verdict UNKNOWN with the partial statistics instead
    of raising.  With ``budget=None`` (the default) no metering code
    runs at all and the verdict is exactly the unbounded one.

    ``tracer`` defaults to the process-wide tracer (a no-op unless one
    was installed, e.g. by the CLI's ``--trace-out``); the analysis is
    wrapped in an ``ic.check`` span with construction, fixpoint and
    product phases nested under it.  Observability never changes the
    verdict: the differential suite pins traced and untraced runs
    bit-for-bit equal.
    """
    outcome, elapsed = _check_pair(
        "ic.check", {"fd": fd.name}, fd.pattern, "A_FD", update_class,
        schema, want_witness, strategy, budget, tracer,
    )
    return IndependenceResult(
        **vars(outcome),
        fd=fd,
        update_class=update_class,
        schema=schema,
        elapsed_seconds=elapsed,
        budget=budget,
    )
