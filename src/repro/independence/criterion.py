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

The check never looks at any source document — its cost depends only on
``|FD|``, ``|U|``, ``|A_S|`` and the alphabet, which is the efficiency
claim the paper makes against the revalidation approach of [14].
"""

from __future__ import annotations

import dataclasses
import enum
import time

from repro.errors import IndependenceError
from repro.fd.fd import FunctionalDependency
from repro.independence.language import DangerousLanguage, dangerous_language
from repro.independence.strategy import AUTO, EAGER, LAZY, STRATEGIES
from repro.limits import Budget, BudgetExceeded, BudgetMeter, PartialStats
from repro.obs.metrics import format_stats
from repro.obs.trace import current_tracer
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import automaton_is_empty_typed, witness_document
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument

__all__ = [
    "AUTO",
    "EAGER",
    "LAZY",
    "IndependenceResult",
    "Verdict",
    "check_independence",
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


@dataclasses.dataclass
class IndependenceResult:
    """Verdict plus the artifacts produced along the way.

    ``automaton_size`` reports the size of what the decision actually
    touched: the full eager automaton under ``strategy="eager"``, the
    explored fragment (inhabited states + instantiated rules) under
    ``strategy="lazy"``.  ``exploration`` carries the full
    explored-vs-worst-case accounting for the lazy path (``None`` for
    eager runs); the worst case is the Proposition 3 bound either way.

    UNKNOWN results carry ``partial`` — the explored-so-far counters at
    the moment the budget ran out — instead of ``exploration``/witness;
    ``unknown_reason`` names the exhausted dimension.
    """

    verdict: Verdict
    fd: FunctionalDependency
    update_class: UpdateClass
    schema: Schema | None
    language: DangerousLanguage
    witness: XMLDocument | None
    automaton_size: int
    elapsed_seconds: float
    strategy: str = EAGER
    exploration: ExplorationStats | None = None
    budget: Budget | None = None
    partial: PartialStats | None = None

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
        """True when soundness requires full FD re-checking downstream."""
        return not self.independent

    @property
    def unknown_reason(self) -> str | None:
        """Why the verdict is UNKNOWN (``None`` for decided runs)."""
        return None if self.partial is None else self.partial.reason

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


def _start_meter(budget: Budget | None) -> BudgetMeter | None:
    return None if budget is None or budget.unbounded else budget.start()


def check_independence(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
    want_witness: bool = True,
    strategy: str = AUTO,
    budget: Budget | None = None,
    _factor_cache: dict | None = None,
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
    if strategy not in STRATEGIES:
        raise IndependenceError(
            f"unknown independence strategy {strategy!r}; "
            f"expected {AUTO!r}, {LAZY!r} or {EAGER!r}"
        )
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    meter = _start_meter(budget)
    exploration: ExplorationStats | None = None
    partial: PartialStats | None = None
    witness: XMLDocument | None = None
    with tracer.span("ic.check") as check_span:
        with tracer.span("ic.construct"):
            language = dangerous_language(
                fd, update_class, schema=schema, materialize=False,
                tracer=tracer,
            )
        requested = strategy
        if strategy == AUTO:
            strategy = LAZY
        try:
            if strategy == LAZY:
                outcome = language.explore(
                    want_witness=want_witness,
                    factor_cache=_factor_cache,
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
                    language.automaton  # force the eager products now
                if meter is not None:
                    meter.check_deadline()
                with tracer.span("ic.eager_emptiness"):
                    if want_witness:
                        witness = witness_document(
                            language.automaton, meter=meter
                        )
                        empty = witness is None
                    else:
                        empty = automaton_is_empty_typed(
                            language.automaton, meter=meter
                        )
                automaton_size = language.automaton.size()
            verdict = (
                Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
            )
        except BudgetExceeded as signal:
            verdict = Verdict.UNKNOWN
            partial = signal.partial
            witness = None
            exploration = None
            automaton_size = partial.explored_states + partial.explored_rules
        if check_span.enabled:
            check_span.set_attribute("fd", fd.name)
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
    return IndependenceResult(
        verdict=verdict,
        fd=fd,
        update_class=update_class,
        schema=schema,
        language=language,
        witness=witness,
        automaton_size=automaton_size,
        elapsed_seconds=elapsed,
        strategy=strategy,
        exploration=exploration,
        budget=budget,
        partial=partial,
    )
