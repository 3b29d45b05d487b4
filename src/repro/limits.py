"""Resource governance: budgets, meters, and the ``BudgetExceeded`` signal.

The criterion IC (Propositions 2-3) is *sufficient*: an emptiness run
that completes certifies independence, but a run that is cut short —
wall-clock deadline, explored-state cap, explored-rule cap — proves
nothing.  Soundness therefore demands that a bounded run which hits its
budget surfaces an explicit third verdict (UNKNOWN) instead of either
boolean, and that callers degrade to the always-sound fallback of full
FD re-validation (the document-at-hand approach of [14] that the paper
compares against).

This module is the small mechanism everything else threads through:

* :class:`Budget` — an immutable, picklable *specification* of limits
  (deadline in milliseconds, explored-state cap, explored-rule cap);
* :class:`BudgetMeter` — one *consumption tracker* started from a
  budget; the worklist engine charges states and rules against it and
  ticks it for amortized deadline checks;
* :class:`BudgetExceeded` — the signal raised at the first checkpoint
  past a limit, carrying a :class:`PartialStats` snapshot of how far
  exploration got (deterministic for the state/rule caps: the engine's
  iteration order is insertion order, so the same instance under the
  same cap stops at the same place every run);
* :class:`PartialStats` — the explored-so-far accounting an UNKNOWN
  verdict reports to the caller.

``budget=None`` everywhere means "unbounded" and takes code paths with
no meter calls at all, so un-budgeted verdicts are bit-for-bit what they
were before this layer existed.
"""

from __future__ import annotations

import dataclasses
import time

from repro.errors import (
    DepthLimitError,
    EntityExpansionLimitError,
    InputSizeLimitError,
    ReproError,
    TokenLimitError,
)

#: reasons a budget can be exhausted (``PartialStats.reason`` values)
DEADLINE = "deadline"
STATE_CAP = "state-cap"
RULE_CAP = "rule-cap"

#: meter ticks between wall-clock reads (deadline checks are amortized)
_TICKS_PER_CLOCK_READ = 128


@dataclasses.dataclass(frozen=True)
class PartialStats:
    """How far an exploration got before its budget ran out.

    The counters mirror :class:`repro.tautomata.lazy.ExplorationStats`
    but carry no worst-case bound — a truncated run never learned it.
    For the deterministic caps (states, rules) the snapshot is a pure
    function of the instance and the cap; only ``reason="deadline"``
    snapshots vary run to run.
    """

    reason: str
    explored_states: int
    explored_rules: int
    step_attempts: int

    def describe(self) -> str:
        """One-line account for logs and CLI output."""
        return (
            f"budget exhausted ({self.reason}) after "
            f"{self.explored_states} states/{self.explored_rules} rules/"
            f"{self.step_attempts} step attempts"
        )


class BudgetExceeded(ReproError):
    """A bounded analysis hit one of its limits.

    Never escapes the public entry points: ``check_independence`` and
    friends catch it and return an UNKNOWN verdict carrying
    :attr:`partial`.  It is an (internal) control-flow signal, not an
    error condition — hence a dedicated class rather than a generic
    :class:`~repro.errors.IndependenceError`.
    """

    def __init__(self, partial: PartialStats) -> None:
        super().__init__(partial.describe())
        self.partial = partial

    @property
    def reason(self) -> str:
        return self.partial.reason


@dataclasses.dataclass(frozen=True)
class Budget:
    """Immutable resource limits for one analysis (or one matrix cell).

    ``deadline_ms``
        wall-clock allowance in milliseconds, measured from
        :meth:`start`;
    ``max_explored_states``
        cap on states proved inhabited across the whole analysis (its
        product level and factor fixpoints combined; a matrix row's
        shared factor is capped on its own, see
        :meth:`BudgetMeter.fork`);
    ``max_explored_rules``
        cap on rules instantiated/registered across the analysis.

    Any subset may be ``None`` (that dimension is unbounded).  The
    object is picklable, so matrix drivers ship it to pool workers and
    each worker starts a fresh meter per cell.
    """

    deadline_ms: float | None = None
    max_explored_states: int | None = None
    max_explored_rules: int | None = None

    def __post_init__(self) -> None:
        for field in ("deadline_ms", "max_explored_states", "max_explored_rules"):
            value = getattr(self, field)
            if value is not None and value < 0:
                raise ReproError(f"budget {field} must be >= 0, got {value!r}")

    @property
    def unbounded(self) -> bool:
        """True when no dimension is limited (meter would be a no-op)."""
        return (
            self.deadline_ms is None
            and self.max_explored_states is None
            and self.max_explored_rules is None
        )

    def start(self) -> "BudgetMeter":
        """Begin consumption tracking (starts the deadline clock)."""
        return BudgetMeter(self)

    def scaled(
        self,
        fraction: float,
        minimum_deadline_ms: float = 1.0,
        minimum_cap: int = 1,
    ) -> "Budget":
        """A proportionally tightened copy of this budget.

        The long-lived service derives per-request budgets from server
        pressure: under load every bounded dimension shrinks to
        ``fraction`` of its configured value (floored so a squeezed
        budget still lets a cell make *some* progress before going
        UNKNOWN), and unbounded dimensions stay unbounded — admission
        control must never silently introduce a cap the operator did
        not configure.  ``fraction >= 1`` returns ``self`` unchanged,
        so the no-pressure path allocates nothing.
        """
        if fraction <= 0:
            raise ReproError(
                f"budget scale fraction must be > 0, got {fraction!r}"
            )
        if fraction >= 1.0 or self.unbounded:
            return self
        return Budget(
            deadline_ms=(
                None
                if self.deadline_ms is None
                else max(minimum_deadline_ms, self.deadline_ms * fraction)
            ),
            max_explored_states=(
                None
                if self.max_explored_states is None
                else max(minimum_cap, int(self.max_explored_states * fraction))
            ),
            max_explored_rules=(
                None
                if self.max_explored_rules is None
                else max(minimum_cap, int(self.max_explored_rules * fraction))
            ),
        )


@dataclasses.dataclass(frozen=True)
class ParseBudget:
    """Untrusted-input limits for the front-end parsers.

    The analysis-side :class:`Budget` bounds how much *work* a verdict
    may cost; this class bounds how much *input* a parser may accept —
    the guard layer between arbitrary files (corpus audits, the
    daemon's request bodies) and the recursive-descent front ends.
    Every dimension may be ``None`` (unguarded):

    ``max_input_bytes``
        cap on the size of the text handed to a parser, checked before
        scanning starts.  At the parser level it is measured in
        characters of the decoded text (a lower bound on UTF-8 bytes);
        the audit runner additionally enforces it on the raw file byte
        size before decoding, so multi-gigabyte files are refused from
        a ``stat`` call alone;
    ``max_depth``
        cap on nesting depth — open XML elements, parenthesized regex
        groups, bracketed XPath predicates.  Independent of this
        budget, the recursive-descent parsers keep a structural rail
        (:data:`HARD_NESTING_LIMIT`) so a nesting bomb raises
        :class:`~repro.errors.DepthLimitError` long before the
        interpreter's ``RecursionError``;
    ``max_tokens``
        cap on scanner-level tokens (tags + attributes + text chunks
        for XML, tokens for regexes, steps for XPath, rules for schema
        text);
    ``max_entity_expansion``
        cap on the total characters produced by entity/character
        -reference expansion, as a multiple of the input length.  The
        XML dialect only expands the five predefined entities and
        numeric character references — each shorter than its reference
        — so any ratio >= 1 can never trip on legitimate documents
        while still bounding reference floods and hardening any future
        internal-entity support.

    Violations raise the structured
    :class:`~repro.errors.ParseLimitError` family (position + snippet,
    one subclass per dimension) — never ``RecursionError`` or
    ``MemoryError``.  ``limits=None`` at a parser keeps the historical
    behaviour (plus the structural depth rail).
    """

    max_input_bytes: int | None = None
    max_depth: int | None = None
    max_tokens: int | None = None
    max_entity_expansion: float | None = None

    def __post_init__(self) -> None:
        for field in ("max_input_bytes", "max_depth", "max_tokens"):
            value = getattr(self, field)
            if value is not None and value < 0:
                raise ReproError(
                    f"parse budget {field} must be >= 0, got {value!r}"
                )
        ratio = self.max_entity_expansion
        if ratio is not None and ratio <= 0:
            raise ReproError(
                f"parse budget max_entity_expansion must be > 0, got {ratio!r}"
            )

    @property
    def unbounded(self) -> bool:
        """True when no dimension is limited."""
        return (
            self.max_input_bytes is None
            and self.max_depth is None
            and self.max_tokens is None
            and self.max_entity_expansion is None
        )

    @classmethod
    def default(cls) -> "ParseBudget":
        """The audit front end's defaults: generous for real documents,
        fatal for bombs (8 MiB of text, depth 1000, 2M tokens, 4x
        expansion)."""
        return cls(
            max_input_bytes=8 * 1024 * 1024,
            max_depth=1000,
            max_tokens=2_000_000,
            max_entity_expansion=4.0,
        )

    def start_parse(self, source: str) -> "ParseMeter":
        """A fresh meter for one parse of ``source``.

        Checks the input-size cap immediately, so oversized text is
        refused before any scanning happens.
        """
        meter = ParseMeter(self, len(source))
        cap = self.max_input_bytes
        if cap is not None and len(source) > cap:
            raise InputSizeLimitError(
                f"input is {len(source)} characters, limit is {cap}",
                cap,
                cap,
            )
        return meter


#: structural nesting rail for the recursive-descent parsers (regex,
#: XPath): beyond this depth a DepthLimitError is raised even with
#: ``limits=None``, keeping adversarial nesting bombs clear of the
#: interpreter's recursion limit (each nesting level costs several
#: stack frames, so the rail sits well under limit/frames-per-level).
#: The XML element parser is iterative and needs no rail.
HARD_NESTING_LIMIT = 200


class ParseMeter:
    """Mutable consumption state of one started :class:`ParseBudget`.

    One meter spans one parser invocation.  The methods are cheap
    (counter bump + compare) and only called at token granularity, so
    guarded parses stay within noise of unguarded ones.
    """

    __slots__ = ("budget", "tokens", "depth", "expanded", "_allowance")

    def __init__(self, budget: ParseBudget, source_length: int) -> None:
        self.budget = budget
        self.tokens = 0
        self.depth = 0
        self.expanded = 0
        ratio = budget.max_entity_expansion
        self._allowance = (
            None if ratio is None else max(16.0, ratio * max(1, source_length))
        )

    def token(self, position: int | None = None) -> None:
        """Account one scanner-level token; raise at the cap."""
        self.tokens += 1
        cap = self.budget.max_tokens
        if cap is not None and self.tokens > cap:
            raise TokenLimitError(
                f"input contains more than {cap} tokens", cap, position
            )

    def enter(self, position: int | None = None) -> None:
        """Account one nesting level; raise at the cap."""
        self.depth += 1
        cap = self.budget.max_depth
        if cap is not None and self.depth > cap:
            raise DepthLimitError(
                f"nesting exceeds depth limit {cap}", cap, position
            )

    def leave(self) -> None:
        """Unwind one nesting level."""
        if self.depth > 0:
            self.depth -= 1

    def expand(self, characters: int, position: int | None = None) -> None:
        """Account entity-expansion output; raise past the allowance."""
        if self._allowance is None:
            return
        self.expanded += characters
        if self.expanded > self._allowance:
            raise EntityExpansionLimitError(
                f"entity expansion exceeds "
                f"{self.budget.max_entity_expansion}x the input size",
                self.budget.max_entity_expansion,
                position,
            )


class _NoopParseMeter:
    """Stands in when ``limits=None``: every guard is a no-op."""

    __slots__ = ()

    def token(self, position: int | None = None) -> None:
        pass

    def enter(self, position: int | None = None) -> None:
        pass

    def leave(self) -> None:
        pass

    def expand(self, characters: int, position: int | None = None) -> None:
        pass


NOOP_PARSE_METER = _NoopParseMeter()


def start_parse_meter(
    limits: ParseBudget | None, source: str
) -> ParseMeter | _NoopParseMeter:
    """The meter a parser should thread for ``limits`` (no-op for None)."""
    if limits is None:
        return NOOP_PARSE_METER
    return limits.start_parse(source)


class BudgetMeter:
    """Mutable consumption state of one started :class:`Budget`.

    One meter spans one logical analysis: several
    :class:`~repro.tautomata.worklist.InhabitationEngine` instances
    (factor fixpoints, the product level) share it so the caps bound
    the *total* work of the verdict, not each phase separately.  Work a
    verdict shares with others runs on a :meth:`fork`.
    """

    __slots__ = ("budget", "states", "rules", "step_attempts", "_deadline", "_ticks")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.states = 0
        self.rules = 0
        self.step_attempts = 0
        self._deadline = (
            None
            if budget.deadline_ms is None
            else time.monotonic() + budget.deadline_ms / 1000.0
        )
        self._ticks = 0

    def fork(self) -> "BudgetMeter":
        """A meter with counts of its own and this meter's deadline.

        Shared work (a matrix row's factor) is capped like any phase
        without charging the verdict that happened to build it, while
        the verdict's wall clock stays one.
        """
        forked = BudgetMeter(self.budget)
        forked._deadline = self._deadline
        return forked

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------

    def charge_state(self) -> None:
        """Account one newly inhabited state; raise at the cap."""
        self.states += 1
        cap = self.budget.max_explored_states
        if cap is not None and self.states > cap:
            self._exceeded(STATE_CAP)

    def charge_rule(self) -> None:
        """Account one registered candidate rule; raise at the cap."""
        self.rules += 1
        cap = self.budget.max_explored_rules
        if cap is not None and self.rules > cap:
            self._exceeded(RULE_CAP)

    def tick(self, steps: int = 1) -> None:
        """Cheap checkpoint: count work, read the clock only sporadically.

        ``tick(n)`` is exactly ``n`` single ticks: the clock is read at
        the same counts, so a deadline raises with the same snapshot.
        """
        if self._deadline is None:
            self.step_attempts += steps
            return
        while self._ticks + steps >= _TICKS_PER_CLOCK_READ:
            taken = _TICKS_PER_CLOCK_READ - self._ticks
            self.step_attempts += taken
            steps -= taken
            self._ticks = 0
            self.check_deadline()
        self.step_attempts += steps
        self._ticks += steps

    def check_deadline(self) -> None:
        """Unconditional wall-clock check (phase boundaries call this)."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._exceeded(DEADLINE)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def snapshot(self, reason: str) -> PartialStats:
        """The explored-so-far accounting at this instant."""
        return PartialStats(
            reason=reason,
            explored_states=self.states,
            explored_rules=self.rules,
            step_attempts=self.step_attempts,
        )

    def _exceeded(self, reason: str) -> None:
        raise BudgetExceeded(self.snapshot(reason))
