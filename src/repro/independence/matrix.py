"""Batch IC: whole (FD × update-class) matrices in one shared run.

A real workload rarely asks one independence question: a schema owner
checks every FD of the document class against every update class the
application performs.  Running :func:`check_independence` per cell
rebuilds the same ingredients over and over — the trace automata of
each FD and update pattern, the schema automaton, the per-factor
fixpoints, and the compiled edge-regex DFAs underneath them all.

:func:`check_independence_matrix` amortizes all of it:

* one *global* alphabet (union over every pattern and the schema) so a
  single trace automaton per FD and per update class serves every cell
  — label-partition granularity does not affect verdicts, only rule
  grouping;
* one schema automaton and one :mod:`repro.tautomata.lazy` factor
  analysis per factor, shared through a factor cache across all cells;
* the process-wide regex compilation cache (PR 1) warms once and serves
  every construction;
* opt-in process fan-out (``parallelism=N``): rows are distributed over
  a *persistent, warm* worker pool (:mod:`repro.independence.pool`) —
  the run's shared inputs are published once and materialized at most
  once per worker, chunk payloads carry only (row-offset, patterns),
  and a spawn-cost gate degrades matrices too small to amortize the
  fan-out overhead back to the serial path, so ``--jobs N`` can never
  lose to serial.

The fan-out is *fault-tolerant*: each row chunk is its own future, so a
worker that crashes (``BrokenProcessPool``) loses only its chunks —
those are retried once in a fresh pool and, failing that, recomputed
serially in the parent.  A ``worker_timeout_seconds`` backstop abandons
a hung pool the same way.  Deterministic errors raised by the cell code
itself are *not* retried: workers ship them back as picklable values
and the run fails fast with the original traceback attached.  The merge
is deterministic and checked: a cell can neither go missing nor be
produced twice, whatever the workers did.  A per-cell
:class:`~repro.limits.Budget` bounds each cell's exploration
cooperatively; an exhausted cell reports verdict UNKNOWN with partial
statistics instead of a wrong boolean.

The run is additionally *crash-safe* when given a ``checkpoint_dir``:
every cell verdict is appended to a write-ahead journal
(:mod:`repro.persistence`) as its chunk future completes — UNKNOWN
cells included — and periodically compacted into an atomic snapshot.
``resume=True`` restores the certified cells of an interrupted run
(after the journal's torn-tail recovery), *re-attempts* UNKNOWN cells
rather than trusting them, recomputes only the remainder, and splices
the restored cells back through the same checked merge.  A manifest of
the run's inputs guards the splice: resuming against different FDs,
update classes, schema, strategy, budget, or code version raises
:class:`~repro.errors.ResumeMismatchError`.  Persistence failures are
non-fatal — a read-only or full checkpoint directory degrades the run
to in-memory with a single :class:`PersistenceWarning`.

:func:`check_view_independence_matrix` does the same for view-update
independence (the [9] companion criterion) — the dangerous region is
identical, so the machinery is shared.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
import warnings
from collections.abc import Sequence

from repro.errors import IndependenceError, ReproError
from repro.fd.fd import FunctionalDependency
from repro.independence import pool
from repro.independence.criterion import LAZY, Verdict
from repro.independence.language import (
    eager_automaton,
    explore_dangerous_factors,
    forget_row,
    validate_update_class,
)
from repro.independence.strategy import AUTO, EAGER, STRATEGIES
from repro.limits import Budget, BudgetExceeded, PartialStats
from repro.obs.trace import NOOP_TRACER, current_tracer
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import automaton_is_empty_typed, witness_document
from repro.tautomata.from_pattern import trace_automaton
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import ROOT_LABEL, XMLDocument, XMLNode

#: fresh pools tried after a worker death before falling back to serial
MAX_POOL_RESTARTS = 1

#: chunks per worker: finer chunks keep a reused pool busy and shrink
#: the serial recompute after a fault, at one dispatch per chunk
CHUNK_OVERSUBSCRIPTION = 4

#: cell records journaled between two checkpoint snapshot compactions
DEFAULT_CHECKPOINT_SNAPSHOT_EVERY = 64


@dataclasses.dataclass
class MatrixCell:
    """One (FD, update-class) verdict inside a matrix run.

    ``partial`` carries the explored-so-far counters when the cell's
    budget ran out (verdict UNKNOWN); such a cell must be treated as
    "recheck the FD after applying", never as either boolean.
    """

    row: int
    column: int
    verdict: Verdict
    elapsed_seconds: float
    exploration: ExplorationStats | None = None
    witness: XMLDocument | None = None
    partial: PartialStats | None = None

    @property
    def independent(self) -> bool:
        return self.verdict is Verdict.INDEPENDENT

    @property
    def decided(self) -> bool:
        """True when the cell ran to completion (either boolean)."""
        return self.verdict is not Verdict.UNKNOWN


def _witness_to_json(document: XMLDocument) -> list:
    """Encode a witness as a JSON tree of ``[label, value, children]``.

    Witness documents are hedges over the paper's tree model — possibly
    several top-level nodes, attribute nodes in odd places — so XML
    *text* cannot always express them; the JSON tree encoding is total.
    """

    def encode(node: XMLNode) -> list:
        return [node.label, node.value, [encode(child) for child in node.children]]

    return encode(document.root)


def _witness_from_json(encoded: list) -> XMLDocument:
    """Inverse of :func:`_witness_to_json` (raises on damaged input)."""

    def decode(item: list) -> XMLNode:
        label, value, children = item
        if not isinstance(label, str):
            raise ValueError(f"witness node label must be a string: {label!r}")
        return XMLNode(label, value, [decode(child) for child in children])

    root = decode(encoded)
    if root.label != ROOT_LABEL:
        raise ValueError(f"witness root must be {ROOT_LABEL!r}, got {root.label!r}")
    return XMLDocument(root)


def cell_to_record(cell: MatrixCell) -> dict:
    """The journal/snapshot JSON shape of one cell verdict.

    Everything a resumed run needs to reproduce the cell without
    recomputation: the verdict, wall time, exploration accounting,
    the partial statistics of a budget-exhausted cell, and the
    witness document (as a JSON tree) when one was built.
    """
    return {
        "type": "cell",
        "row": cell.row,
        "column": cell.column,
        "verdict": cell.verdict.value,
        "elapsed_seconds": cell.elapsed_seconds,
        "exploration": (
            None
            if cell.exploration is None
            else dataclasses.asdict(cell.exploration)
        ),
        "partial": (
            None if cell.partial is None else dataclasses.asdict(cell.partial)
        ),
        "witness": (
            None if cell.witness is None else _witness_to_json(cell.witness)
        ),
    }


def cell_from_record(record: dict) -> MatrixCell | None:
    """Rebuild a :class:`MatrixCell` from a journal record.

    Returns ``None`` for a record that does not decode cleanly — the
    sound reaction to unexpected journal content is to recompute the
    cell, never to guess at its verdict.
    """
    try:
        if record.get("type") != "cell":
            return None
        exploration = record["exploration"]
        partial = record["partial"]
        witness = record["witness"]
        return MatrixCell(
            row=int(record["row"]),
            column=int(record["column"]),
            verdict=Verdict(record["verdict"]),
            elapsed_seconds=float(record["elapsed_seconds"]),
            exploration=(
                None if exploration is None else ExplorationStats(**exploration)
            ),
            partial=None if partial is None else PartialStats(**partial),
            witness=None if witness is None else _witness_from_json(witness),
        )
    except (KeyError, TypeError, ValueError, ReproError):
        # a damaged record (or witness) must not kill the resume
        return None


@dataclasses.dataclass
class IndependenceMatrix:
    """All verdicts of an (FDs × update classes) batch run."""

    row_names: list[str]
    column_names: list[str]
    schema: Schema | None
    cells: list[list[MatrixCell]]
    elapsed_seconds: float
    strategy: str
    parallelism: int
    budget: Budget | None = None
    worker_faults: int = 0  # pool incidents survived (crashes/timeouts)
    spliced_cells: int = 0  # verdicts taken unchanged from --baseline
    recomputed_cells: int = -1  # cells actually computed this run

    def __post_init__(self) -> None:
        if self.recomputed_cells < 0:
            self.recomputed_cells = self.cell_count

    def cell(self, row: int, column: int) -> MatrixCell:
        """The cell deciding row-th FD/view against column-th update."""
        return self.cells[row][column]

    def verdict(self, row: int, column: int) -> Verdict:
        """Shorthand for ``cell(row, column).verdict``."""
        return self.cells[row][column].verdict

    def independent_count(self) -> int:
        """How many cells were certified INDEPENDENT."""
        return sum(
            cell.independent for row in self.cells for cell in row
        )

    def unknown_count(self) -> int:
        """How many cells exhausted their budget (verdict UNKNOWN)."""
        return sum(
            cell.verdict is Verdict.UNKNOWN
            for row in self.cells
            for cell in row
        )

    @property
    def cell_count(self) -> int:
        """Total number of (row, column) pairs decided."""
        return len(self.row_names) * len(self.column_names)

    def all_independent(self) -> bool:
        """True when every cell was certified INDEPENDENT."""
        return self.independent_count() == self.cell_count

    def certified_pairs(self) -> set[tuple[str, str]]:
        """The ``(row_name, update_name)`` pairs certified INDEPENDENT.

        Exactly the shape :meth:`repro.update.batch.UpdateBatch.apply_guarded`
        expects for its ``certified`` argument.  POSSIBLY_DEPENDENT and
        UNKNOWN cells are *both* excluded, so budget-exhausted analyses
        automatically route downstream callers to full FD re-checking —
        the sound fallback.
        """
        return {
            (self.row_names[cell.row], self.column_names[cell.column])
            for row in self.cells
            for cell in row
            if cell.independent
        }

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        """A JSON-ready rendering of the whole matrix (service/bench
        response shape).

        Everything a remote caller needs to act on the verdicts without
        holding the Python objects: the verdict grid, per-cell wall
        times, the ``needs_revalidation`` pair list (POSSIBLY_DEPENDENT
        *and* UNKNOWN cells — exactly the complement of
        :meth:`certified_pairs`, so a client that applies updates knows
        which FDs to re-check), and the run-level accounting.  Witness
        documents ride along as total JSON trees only on request — they
        can be large and most callers only want the booleans.
        """
        needs_revalidation = [
            [self.row_names[cell.row], self.column_names[cell.column]]
            for row in self.cells
            for cell in row
            if not cell.independent
        ]
        document = {
            "row_names": list(self.row_names),
            "column_names": list(self.column_names),
            "verdicts": [
                [cell.verdict.value for cell in row] for row in self.cells
            ],
            "cell_ms": [
                [round(cell.elapsed_seconds * 1000.0, 3) for cell in row]
                for row in self.cells
            ],
            "needs_revalidation": needs_revalidation,
            "all_independent": self.all_independent(),
            "independent": self.independent_count(),
            "unknown": self.unknown_count(),
            "cells": self.cell_count,
            "strategy": self.strategy,
            "parallelism": self.parallelism,
            "worker_faults": self.worker_faults,
            "spliced_cells": self.spliced_cells,
            "recomputed_cells": self.recomputed_cells,
            "elapsed_ms": round(self.elapsed_seconds * 1000.0, 3),
        }
        if include_witnesses:
            document["witnesses"] = [
                {
                    "row": cell.row,
                    "column": cell.column,
                    "witness": _witness_to_json(cell.witness),
                }
                for row in self.cells
                for cell in row
                if cell.witness is not None
            ]
        return document

    def describe(self) -> str:
        """A compact verdict table (rows = FDs, columns = updates)."""
        schema_part = "no schema" if self.schema is None else "with schema"
        header = ["fd \\ update"] + list(self.column_names)
        rows = [header]
        for name, row in zip(self.row_names, self.cells):
            rows.append(
                [name]
                + [
                    cell.verdict.value.upper().replace("-", "_")
                    for cell in row
                ]
            )
        widths = [
            max(len(line[i]) for line in rows) for i in range(len(header))
        ]
        lines = [
            "  ".join(value.ljust(width) for value, width in zip(line, widths))
            for line in rows
        ]
        summary = (
            f"{self.independent_count()}/{self.cell_count} independent "
            f"[{schema_part}, strategy={self.strategy}, "
            f"jobs={self.parallelism}, {self.elapsed_seconds * 1000:.1f} ms]"
        )
        if self.unknown_count():
            summary += (
                f" ({self.unknown_count()} UNKNOWN: budget exhausted, "
                f"revalidation required)"
            )
        if self.worker_faults:
            summary += f" ({self.worker_faults} worker fault(s) recovered)"
        if self.spliced_cells:
            summary += (
                f" ({self.spliced_cells} cell(s) spliced from baseline, "
                f"{self.recomputed_cells} recomputed)"
            )
        lines.append(summary)
        return "\n".join(lines)


def _global_alphabet(
    patterns: Sequence[RegularTreePattern],
    update_classes: Sequence[UpdateClass],
    schema: Schema | None,
) -> frozenset[str]:
    alphabet: set[str] = set()
    for pattern in patterns:
        alphabet |= pattern.template.alphabet()
    for update_class in update_classes:
        alphabet |= update_class.pattern.template.alphabet()
    if schema is not None:
        alphabet |= schema.alphabet()
    return frozenset(alphabet)


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Test-only worker fault spec shipped inside the worker payload.

    The fault-injection suite uses this to make a pool worker crash,
    raise, or hang deterministically — ``flag_path`` is a filesystem
    sentinel ensuring the fault strikes only once, so the retry path is
    exercised and then succeeds.  The ``"raise-deterministic"`` kind is
    different: it strikes *every* time the targeted chunk runs (no
    sentinel), modeling a cell whose code always raises — the fail-fast
    path, not the retry path.  Production callers never set any of it.
    """

    kind: str  # "crash-once" | "raise-once" | "hang-once" | "raise-deterministic"
    flag_path: str
    target_offset: int = 0
    hang_seconds: float = 30.0

    @property
    def deterministic(self) -> bool:
        """True for faults that would strike again on retry."""
        return self.kind == "raise-deterministic"

    def maybe_strike(self, row_offset: int) -> None:
        """Fault once when handed the targeted chunk, then stay quiet."""
        if row_offset != self.target_offset:
            return
        try:
            # atomic create-or-fail: only the first attempt faults
            handle = os.open(
                self.flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return
        os.close(handle)
        if self.kind == "crash-once":
            os._exit(86)
        if self.kind == "raise-once":
            raise RuntimeError("injected worker fault (raise-once)")
        if self.kind == "hang-once":
            time.sleep(self.hang_seconds)


def _explore_rows(
    patterns: Sequence[RegularTreePattern],
    row_offset: int,
    shared: pool.MaterializedContext,
    strategy: str,
    want_witness: bool,
    budget: Budget | None = None,
    skip_cells: frozenset[tuple[int, int]] | None = None,
    per_cell_delay: float = 0.0,
    on_cell=None,
    tracer=None,
) -> list[list[MatrixCell | None]]:
    """Decide every cell of the given rows, sharing all ingredients.

    ``shared`` is the run's materialized context — the global alphabet,
    one trace automaton per update class, the schema automaton and the
    factor cache — built once per process by the caller (the parent's
    serial path) or by :func:`repro.independence.pool.resolve_context`
    (pool workers), never per chunk.

    ``strategy="auto"`` resolves to lazy.  Under a schema, the lazy
    cells of a row share one ``A_S × A_FD`` row factor through the
    factor cache: the row's first cell builds it, and the rest decide
    with one flagged product each.

    Each cell gets a *fresh* meter from ``budget``, so the caps bound
    cells individually; a budget-exhausted cell becomes UNKNOWN with
    its partial statistics and the run continues with the next cell.

    ``skip_cells`` names (row, column) pairs restored from a
    checkpoint: those are *not* recomputed and leave a ``None``
    placeholder for :func:`_splice_restored` to fill.  ``on_cell`` is
    the parent-side journaling hook (never shipped to pool workers);
    it runs *after* the cell's clock stopped, so journaling fsyncs
    never inflate ``elapsed_seconds``.  ``per_cell_delay`` is the
    crash-harness test hook that slows each cell down so a SIGKILL can
    be timed mid-journal.

    ``tracer`` — like ``on_cell`` — is parent-side only: pool workers
    always run with the no-op tracer (exporter handles don't pickle);
    the parent re-emits their cells as synthetic spans from the
    returned records (:func:`_record_worker_cell_spans`).  The
    journaling hook runs *inside* the cell span so checkpoint events
    nest under the cell that produced them.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    update_automata = shared.update_automata
    schema_hedge = shared.schema_hedge
    factor_cache = shared.factor_cache
    cell_strategy = LAZY if strategy == AUTO else strategy
    rows: list[list[MatrixCell | None]] = []
    for local_row, pattern in enumerate(patterns):
        with tracer.span("construct.trace_automaton"):
            pattern_automaton = trace_automaton(
                pattern, shared.alphabet, track_regions=True, name="A_FD"
            )
        row: list[MatrixCell | None] = []
        for column, update_automaton in enumerate(update_automata):
            if (
                skip_cells is not None
                and (row_offset + local_row, column) in skip_cells
            ):
                row.append(None)  # restored from the checkpoint
                continue
            if per_cell_delay:
                time.sleep(per_cell_delay)
            with tracer.span("matrix.cell") as cell_span:
                started = time.perf_counter()
                meter = (
                    None
                    if budget is None or budget.unbounded
                    else budget.start()
                )
                exploration = None
                witness = None
                partial = None
                try:
                    if cell_strategy == LAZY:
                        outcome = explore_dangerous_factors(
                            pattern_automaton,
                            update_automaton,
                            schema_hedge,
                            want_witness=want_witness,
                            factor_cache=factor_cache,
                            meter=meter,
                            tracer=tracer,
                        )
                        empty = outcome.empty
                        witness = outcome.witness
                        exploration = outcome.stats
                    else:
                        if meter is not None:
                            meter.check_deadline()
                        automaton = eager_automaton(
                            pattern_automaton, update_automaton, schema_hedge
                        )
                        if meter is not None:
                            meter.check_deadline()
                        if want_witness:
                            witness = witness_document(automaton, meter=meter)
                            empty = witness is None
                        else:
                            empty = automaton_is_empty_typed(
                                automaton, meter=meter
                            )
                    verdict = (
                        Verdict.INDEPENDENT
                        if empty
                        else Verdict.POSSIBLY_DEPENDENT
                    )
                except BudgetExceeded as signal:
                    verdict = Verdict.UNKNOWN
                    partial = signal.partial
                    witness = None
                    exploration = None
                cell = MatrixCell(
                    row=row_offset + local_row,
                    column=column,
                    verdict=verdict,
                    elapsed_seconds=time.perf_counter() - started,
                    exploration=exploration,
                    witness=witness,
                    partial=partial,
                )
                if cell_span.enabled:
                    cell_span.set_attribute("row", cell.row)
                    cell_span.set_attribute("column", cell.column)
                    cell_span.set_attribute("verdict", verdict.value)
                    cell_span.set_attribute("strategy", cell_strategy)
                    cell_span.set_attribute(
                        "elapsed_ms", cell.elapsed_seconds * 1000.0
                    )
                    if exploration is not None:
                        cell_span.set_attribute(
                            "explored_rules", exploration.explored_rules
                        )
                        cell_span.set_attribute(
                            "worst_case_rules", exploration.worst_case_rules
                        )
                    if partial is not None:
                        cell_span.set_attribute(
                            "unknown_reason", partial.reason
                        )
                row.append(cell)
                if on_cell is not None:
                    # inside the span: checkpoint.journal nests under
                    # the cell that produced the record
                    on_cell(cell)
        forget_row(factor_cache, pattern_automaton, schema_hedge)
        rows.append(row)
    return rows


@dataclasses.dataclass(frozen=True)
class _WorkerFailure:
    """A deterministic worker error, shipped back as a picklable value.

    A chunk whose cell code *raises* (as opposed to a worker that dies
    or hangs) would fail identically on every retry — returning the
    error as a value lets the parent distinguish it from pool faults
    and fail fast with the original traceback instead of burning
    :data:`MAX_POOL_RESTARTS` pools plus a serial recompute first.
    """

    row_offset: int
    kind: str
    message: str
    details: str  # the worker-side traceback, preformatted


def _rows_worker(payload: tuple) -> "list[list[MatrixCell]] | _WorkerFailure":
    """Top-level entry point for the persistent pool's workers.

    The payload carries the context token + pickle-once bytes plus the
    chunk-specific arguments; the shared automata come from the
    worker's per-token cache.  Injected *pool* faults (crash/raise/
    hang-once) strike outside the try-block so they surface exactly
    like real worker deaths; everything the chunk code itself raises is
    wrapped into a :class:`_WorkerFailure` value instead.
    """
    (
        token, context_bytes, patterns, row_offset, strategy, want_witness,
        budget, skip_cells, per_cell_delay, fault,
    ) = payload
    if fault is not None and not fault.deterministic:
        fault.maybe_strike(row_offset)
    try:
        if (
            fault is not None
            and fault.deterministic
            and row_offset == fault.target_offset
        ):
            raise RuntimeError(
                "injected deterministic worker error (raise-deterministic)"
            )
        shared = pool.resolve_context(token, context_bytes)
        return _explore_rows(
            patterns, row_offset, shared, strategy, want_witness,
            budget=budget, skip_cells=skip_cells,
            per_cell_delay=per_cell_delay,
        )
    except Exception as error:
        return _WorkerFailure(
            row_offset=row_offset,
            kind=type(error).__name__,
            message=str(error),
            details=traceback.format_exc(),
        )


def _record_worker_cell_spans(tracer, rows) -> None:
    """Re-emit worker-computed cells as parent-side synthetic spans.

    Pool workers run with the no-op tracer (exporter handles do not
    cross the pickle boundary), so without this a ``--jobs > 1`` run
    would lose every per-cell span and ``scripts/trace_report.py``
    would under-report it.  Each returned cell already carries its
    timing and exploration accounting; the parent backdates a
    ``matrix.cell`` span of that duration under the current pool span,
    marked ``worker=True`` so reports can tell re-emitted cells from
    serially traced ones.
    """
    if not tracer.enabled:
        return
    for row in rows:
        for cell in row:
            if cell is None:
                continue
            attributes = {
                "row": cell.row,
                "column": cell.column,
                "verdict": cell.verdict.value,
                "elapsed_ms": cell.elapsed_seconds * 1000.0,
                "worker": True,
            }
            if cell.exploration is not None:
                attributes["explored_rules"] = cell.exploration.explored_rules
                attributes["worst_case_rules"] = (
                    cell.exploration.worst_case_rules
                )
            if cell.partial is not None:
                attributes["unknown_reason"] = cell.partial.reason
            tracer.record_span(
                "matrix.cell",
                int(cell.elapsed_seconds * 1e9),
                attributes,
            )


def _merge_chunks(
    results: dict[int, list[list[MatrixCell]]], row_count: int
) -> list[list[MatrixCell]]:
    """Deterministically reassemble chunk results into the cell grid.

    Every row index must be produced exactly once — a crashed, retried
    or serially recomputed chunk can neither drop a row nor introduce a
    duplicate without tripping these checks.
    """
    cells: list[list[MatrixCell] | None] = [None] * row_count
    for offset, rows in results.items():
        for local_index, row in enumerate(rows):
            index = offset + local_index
            if index >= row_count or cells[index] is not None:
                raise IndependenceError(
                    f"matrix merge produced row {index} twice (or out of "
                    f"range 0..{row_count - 1}); refusing to commit an "
                    f"inconsistent matrix"
                )
            cells[index] = row
    missing = [index for index, row in enumerate(cells) if row is None]
    if missing:
        raise IndependenceError(
            f"matrix merge lost rows {missing}; refusing to commit an "
            f"incomplete matrix"
        )
    return cells  # type: ignore[return-value]


def _splice_restored(
    cells: list[list[MatrixCell | None]],
    restored: dict[tuple[int, int], MatrixCell],
    column_count: int,
) -> list[list[MatrixCell]]:
    """Fill checkpoint-restored cells into the computed grid, checked.

    The same refuse-don't-guess policy as :func:`_merge_chunks`, one
    level down: every ``None`` placeholder must have exactly one
    restored cell and every computed cell must *not* have one — a cell
    can neither go missing nor be certified twice, whatever the
    journal contained.
    """
    grid: list[list[MatrixCell]] = []
    for row_index, row in enumerate(cells):
        if len(row) != column_count:
            raise IndependenceError(
                f"matrix row {row_index} has {len(row)} cells, expected "
                f"{column_count}; refusing to commit an inconsistent matrix"
            )
        new_row: list[MatrixCell] = []
        for column_index, cell in enumerate(row):
            key = (row_index, column_index)
            if cell is None:
                replacement = restored.get(key)
                if replacement is None:
                    raise IndependenceError(
                        f"matrix cell {key} was neither computed nor "
                        f"restored from the checkpoint; refusing to commit "
                        f"an incomplete matrix"
                    )
                new_row.append(replacement)
            else:
                if key in restored:
                    raise IndependenceError(
                        f"matrix cell {key} was both computed and restored "
                        f"from the checkpoint; refusing to commit an "
                        f"inconsistent matrix"
                    )
                new_row.append(cell)
        grid.append(new_row)
    return grid


def _run_chunks_with_recovery(
    chunks: list[tuple[int, list[RegularTreePattern]]],
    payload_for,
    serial_for,
    jobs: int,
    worker_timeout_seconds: float | None,
    on_chunk=None,
    tracer=None,
) -> tuple[dict[int, list[list[MatrixCell]]], int]:
    """Fan chunks out over the warm pool, recovering from pool faults.

    Returns the per-offset results plus the number of pool incidents
    survived.  Recovery policy: a worker death (``BrokenProcessPool``
    or a worker-raised exception) discards the pool and retries the
    *affected chunks only* in a fresh one up to
    :data:`MAX_POOL_RESTARTS` times; a pool that exceeds
    ``worker_timeout_seconds`` is abandoned outright (hung workers
    cannot be joined); anything still unfinished is recomputed serially
    in the parent process, where per-cell budgets — not pool machinery
    — bound the work.  A :class:`_WorkerFailure` returned as a chunk
    *value* is a deterministic error in the cell code itself: retrying
    cannot succeed, so the run fails fast with the worker's traceback.
    A fault-free run leaves the executor warm for the next matrix.

    Observability is parent-side: each pool attempt gets a
    ``matrix.pool`` span, completed chunks land as ``chunk.done``
    events plus synthetic per-cell spans re-emitted from the returned
    records (workers cannot carry the tracer across the pickle
    boundary), pool incidents as ``pool.worker_fault`` /
    ``pool.timeout`` events, and serially recomputed chunks get real
    ``matrix.chunk`` spans with the per-cell spans nested inside.
    """
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    if tracer is None:
        tracer = NOOP_TRACER
    results: dict[int, list[list[MatrixCell]]] = {}
    remaining: dict[int, list[RegularTreePattern]] = dict(chunks)
    faults = 0
    restarts = 0
    while remaining and restarts <= MAX_POOL_RESTARTS:
        with tracer.span("matrix.pool") as pool_span:
            if pool_span.enabled:
                pool_span.set_attribute("chunks", len(remaining))
                pool_span.set_attribute("attempt", restarts + 1)
                pool_span.set_attribute("jobs", jobs)
            executor = pool.get_executor(jobs)
            deadline = (
                None
                if worker_timeout_seconds is None
                else time.monotonic() + worker_timeout_seconds
            )
            broken = False
            timed_out = False
            failure: _WorkerFailure | None = None
            futures: dict = {}
            pending: set = set()
            try:
                try:
                    for offset, patterns in remaining.items():
                        futures[
                            executor.submit(
                                _rows_worker, payload_for(offset, patterns)
                            )
                        ] = offset
                except BrokenProcessPool:
                    # a worker died while chunks were still being
                    # submitted; retry everything still remaining
                    broken = True
                    if pool_span.enabled:
                        tracer.event(
                            "pool.worker_fault", {"row_offset": -1}
                        )
                pending = set(futures)
                while pending and not broken:
                    slack = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    done, pending = wait(pending, timeout=slack)
                    if not done:
                        timed_out = True
                        break
                    for future in done:
                        offset = futures[future]
                        try:
                            rows = future.result()
                        except Exception:
                            # worker died mid-chunk (BrokenProcessPool)
                            # or an injected pool fault raised; leave
                            # the chunk in `remaining` — a fresh pool
                            # gets one more shot, then the serial path
                            # recomputes it
                            broken = True
                            if pool_span.enabled:
                                tracer.event(
                                    "pool.worker_fault",
                                    {"row_offset": offset},
                                )
                            continue
                        if isinstance(rows, _WorkerFailure):
                            failure = rows
                            continue
                        results[offset] = rows
                        remaining.pop(offset, None)
                        if pool_span.enabled:
                            tracer.event(
                                "chunk.done",
                                {
                                    "row_offset": offset,
                                    "rows": len(rows),
                                },
                            )
                        if on_chunk is not None:
                            # journal the chunk's cells the moment
                            # its future lands — a later crash
                            # replays them
                            on_chunk(rows)
                        _record_worker_cell_spans(tracer, rows)
                    if broken or failure is not None:
                        break
            finally:
                if timed_out or broken:
                    # a dead pool cannot be reused; a hung one cannot
                    # even be joined — abandon that one without waiting
                    pool.discard_executor(jobs, wait=not timed_out)
                else:
                    for future in pending:
                        future.cancel()
            if failure is not None:
                raise IndependenceError(
                    f"matrix worker failed deterministically on the chunk "
                    f"at row offset {failure.row_offset} "
                    f"({failure.kind}: {failure.message}); not retrying — "
                    f"the error is in the cell code, not the pool.\n"
                    f"{failure.details}"
                )
            if timed_out:
                faults += 1
                if pool_span.enabled:
                    tracer.event(
                        "pool.timeout", {"unfinished": len(remaining)}
                    )
                break  # straight to the serial fallback
            if not broken:
                break
            faults += 1
            restarts += 1
    if remaining:
        pool.record_serial_fallback(len(remaining))
        if tracer.enabled:
            tracer.event(
                "pool.serial_fallback", {"chunks": len(remaining)}
            )
    for offset, patterns in sorted(remaining.items()):
        with tracer.span("matrix.chunk") as chunk_span:
            if chunk_span.enabled:
                chunk_span.set_attribute("row_offset", offset)
                chunk_span.set_attribute("mode", "serial-fallback")
            results[offset] = serial_for(offset, patterns)
    return results, faults


def _open_baseline(
    baseline_dir,
    manifest,
    tracer=None,
):
    """Load spliceable cells from a prior run directory (drift baseline).

    Returns ``(restored, delta)`` where ``restored`` maps *current*
    ``(row, column)`` keys to cells carried over from the baseline and
    ``delta`` is the :class:`~repro.persistence.manifest.ManifestDelta`
    (``None`` when the baseline had no readable manifest).  The policy
    mirrors resume, relaxed to drift:

    * a missing or damaged baseline degrades to a full recompute with a
      single :class:`PersistenceWarning` — never a wrong answer;
    * an *incompatible* delta (schema, strategy, witness flag, budget or
      code-version drift) splices nothing — those fields change what
      every verdict means — but is not an error: recomputing everything
      is the correct response to global drift;
    * only cells at (unchanged row × unchanged column) are carried
      over, re-keyed to their current indices; UNKNOWN and undecodable
      records are dropped so they are re-attempted, exactly as on
      resume.
    """
    from repro.persistence.journal import PersistenceWarning
    from repro.persistence.store import load_run_cells, load_run_manifest

    if tracer is None:
        tracer = NOOP_TRACER
    baseline_manifest = load_run_manifest(baseline_dir)
    if baseline_manifest is None:
        warnings.warn(
            f"baseline {baseline_dir} has no readable manifest; "
            f"recomputing the full matrix",
            PersistenceWarning,
            stacklevel=5,
        )
        return {}, None
    delta = manifest.diff(baseline_manifest)
    if not delta.compatible:
        if tracer.enabled:
            tracer.event(
                "baseline.incompatible",
                {"invalidated": ", ".join(delta.invalidated_fields)},
            )
        return {}, delta
    spliceable = delta.spliceable_cells()
    if not spliceable:
        return {}, delta
    targets = {base: current for current, base in spliceable.items()}
    try:
        records = load_run_cells(
            baseline_dir, baseline_manifest, _warn_stacklevel=6
        )
    except OSError as error:
        warnings.warn(
            f"baseline {baseline_dir} could not be read ({error}); "
            f"recomputing the full matrix",
            PersistenceWarning,
            stacklevel=5,
        )
        return {}, delta
    restored: dict[tuple[int, int], MatrixCell] = {}
    for record in records:
        cell = cell_from_record(record)
        if cell is None or not cell.decided:
            continue
        target = targets.get((cell.row, cell.column))
        if target is None:
            continue
        restored[target] = dataclasses.replace(
            cell, row=target[0], column=target[1]
        )
    return restored, delta


def _open_checkpoint(
    kind: str,
    checkpoint_dir,
    resume: bool,
    snapshot_every: int,
    patterns: Sequence[RegularTreePattern],
    row_names: Sequence[str],
    update_classes: Sequence[UpdateClass],
    schema: Schema | None,
    strategy: str,
    want_witness: bool,
    budget: Budget | None,
    column_count: int,
    tracer=None,
):
    """Open the checkpoint store and restore this run's certified cells.

    Returns ``(store, restored)``.  Only *decided* cells are restored —
    UNKNOWN records are deliberately dropped so resume re-attempts them
    instead of trusting a budget-exhausted non-verdict.  Records that
    fail to decode or fall outside the matrix shape are ignored (and
    therefore recomputed), never guessed at.
    """
    from repro.persistence.manifest import RunManifest
    from repro.persistence.store import CheckpointStore

    manifest = RunManifest.for_matrix(
        kind, patterns, row_names, update_classes, schema, strategy,
        want_witness, budget,
    )
    store = CheckpointStore.open(
        checkpoint_dir, manifest, resume=resume,
        snapshot_every=snapshot_every, tracer=tracer,
    )
    restored: dict[tuple[int, int], MatrixCell] = {}
    if store is not None:
        for record in store.restored_cells:
            cell = cell_from_record(record)
            if (
                cell is not None
                and cell.decided
                and 0 <= cell.row < len(patterns)
                and 0 <= cell.column < column_count
            ):
                restored[(cell.row, cell.column)] = cell
    return store, restored


def _check_matrix(
    patterns: Sequence[RegularTreePattern],
    row_names: list[str],
    update_classes: Sequence[UpdateClass],
    schema: Schema | None,
    want_witness: bool,
    strategy: str,
    parallelism: int,
    budget: Budget | None = None,
    worker_timeout_seconds: float | None = None,
    fault_injection: FaultInjection | None = None,
    kind: str = "independence-matrix",
    checkpoint_dir=None,
    resume: bool = False,
    baseline_dir=None,
    checkpoint_snapshot_every: int = DEFAULT_CHECKPOINT_SNAPSHOT_EVERY,
    per_cell_delay: float = 0.0,
    parallel_threshold_seconds: float | None = None,
    worker_log_path: str | None = None,
    tracer=None,
) -> IndependenceMatrix:
    if strategy not in STRATEGIES:
        raise IndependenceError(
            f"unknown independence strategy {strategy!r}; "
            f"expected {AUTO!r}, {LAZY!r} or {EAGER!r}"
        )
    if not patterns or not update_classes:
        raise IndependenceError(
            "an independence matrix needs at least one FD/view and one "
            "update class"
        )
    if tracer is None:
        tracer = current_tracer()
    for update_class in update_classes:
        validate_update_class(update_class)
    started = time.perf_counter()
    with tracer.span("matrix.run") as run_span:
        alphabet = _global_alphabet(patterns, update_classes, schema)
        column_names = [update_class.name for update_class in update_classes]
        store = None
        restored: dict[tuple[int, int], MatrixCell] = {}
        spliced: dict[tuple[int, int], MatrixCell] = {}
        if baseline_dir is not None:
            # read the baseline *before* opening the checkpoint store —
            # a fresh store wipes prior state, and pointing --baseline
            # and --checkpoint-dir at the same run dir must work
            with tracer.span("matrix.splice") as splice_span:
                from repro.persistence.manifest import RunManifest

                current_manifest = RunManifest.for_matrix(
                    kind, patterns, row_names, update_classes, schema,
                    strategy, want_witness, budget,
                )
                spliced, delta = _open_baseline(
                    baseline_dir, current_manifest, tracer=tracer
                )
                if splice_span.enabled:
                    splice_span.set_attribute("baseline", str(baseline_dir))
                    splice_span.set_attribute(
                        "compatible",
                        bool(delta is not None and delta.compatible),
                    )
                    splice_span.set_attribute("spliced_cells", len(spliced))
                    if delta is not None:
                        splice_span.set_attribute("delta", delta.describe())
        if checkpoint_dir is not None:
            with tracer.span("matrix.checkpoint.open") as open_span:
                store, restored = _open_checkpoint(
                    kind, checkpoint_dir, resume, checkpoint_snapshot_every,
                    patterns, row_names, update_classes, schema, strategy,
                    want_witness, budget, len(update_classes), tracer=tracer,
                )
                if open_span.enabled:
                    open_span.set_attribute("resume", resume)
                    open_span.set_attribute("restored_cells", len(restored))
        if spliced:
            # resume restores are for this very run's inputs — they win
            # over baseline splices on any overlap
            for key in restored:
                spliced.pop(key, None)
            restored = {**spliced, **restored}
            if store is not None:
                # journal the spliced verdicts so the new run dir is a
                # self-contained baseline for the next drift step
                for cell in spliced.values():
                    store.record_cell(cell_to_record(cell))
        skip = frozenset(restored) if restored else None

        def journal_cell(cell: MatrixCell) -> None:
            if store is not None and cell is not None:
                store.record_cell(cell_to_record(cell))

        def journal_chunk(rows: list[list[MatrixCell | None]]) -> None:
            for row in rows:
                for cell in row:
                    journal_cell(cell)

        on_cell = journal_cell if store is not None else None
        on_chunk = journal_chunk if store is not None else None
        context = pool.SharedWorkContext(
            update_classes=tuple(update_classes),
            schema=schema,
            alphabet=alphabet,
            log_path=worker_log_path,
        )
        jobs = max(1, int(parallelism))
        faults = 0
        if jobs > 1 and len(patterns) > 1:
            jobs = min(jobs, len(patterns))
            chunk_size = max(
                1, -(-len(patterns) // (jobs * CHUNK_OVERSUBSCRIPTION))
            )
            chunk_count = -(-len(patterns) // chunk_size)
            cell_count = len(patterns) * len(update_classes) - len(restored)
            # the spawn-cost gate: matrices whose whole serial runtime is
            # smaller than the fan-out tax degrade to the serial path, so
            # --jobs N can never lose to serial (fault-injection runs
            # bypass it — they exist to exercise the pool)
            if fault_injection is None and not pool.parallel_worthwhile(
                cell_count, jobs, chunk_count,
                threshold_seconds=parallel_threshold_seconds,
            ):
                jobs = 1
                if tracer.enabled:
                    tracer.event(
                        "pool.serial_gate",
                        {"cells": cell_count, "requested_jobs": parallelism},
                    )
        if jobs == 1 or len(patterns) == 1:
            jobs = 1
            with tracer.span("matrix.construct"):
                shared = context.materialize()
            cells = _explore_rows(
                patterns, 0, shared, strategy, want_witness,
                budget=budget, skip_cells=skip,
                per_cell_delay=per_cell_delay, on_cell=on_cell,
                tracer=tracer,
            )
        else:
            chunks: list[tuple[int, list[RegularTreePattern]]] = []
            for start in range(0, len(patterns), chunk_size):
                chunks.append(
                    (start, list(patterns[start:start + chunk_size]))
                )
            token, context_bytes = pool.publish_context(context)
            # the serial fallback materializes its own context lazily —
            # a fault-free run never builds the automata twice in the
            # parent process
            fallback_shared: list[pool.MaterializedContext] = []

            def payload_for(offset, chunk_patterns):
                return (
                    token,
                    context_bytes,
                    chunk_patterns,
                    offset,
                    strategy,
                    want_witness,
                    budget,
                    skip,
                    per_cell_delay,
                    fault_injection,
                )

            def serial_for(offset, chunk_patterns):
                if not fallback_shared:
                    with tracer.span("matrix.construct"):
                        fallback_shared.append(context.materialize())
                return _explore_rows(
                    chunk_patterns, offset, fallback_shared[0], strategy,
                    want_witness, budget=budget, skip_cells=skip,
                    per_cell_delay=per_cell_delay, on_cell=on_cell,
                    tracer=tracer,
                )

            try:
                results, faults = _run_chunks_with_recovery(
                    chunks, payload_for, serial_for, jobs,
                    worker_timeout_seconds, on_chunk=on_chunk, tracer=tracer,
                )
            finally:
                pool.release_context(token)
            cells = _merge_chunks(results, len(patterns))
        durations = [
            cell.elapsed_seconds
            for row in cells
            for cell in row
            if cell is not None
        ]
        if durations:
            # feed the measured average cell cost back into the gate so
            # the next matrix's serial-vs-parallel decision is informed
            pool.record_cell_seconds(sum(durations) / len(durations))
        if restored:
            cells = _splice_restored(cells, restored, len(update_classes))
        matrix = IndependenceMatrix(
            row_names=row_names,
            column_names=column_names,
            schema=schema,
            cells=cells,
            elapsed_seconds=time.perf_counter() - started,
            strategy=strategy,
            parallelism=jobs,
            budget=budget,
            worker_faults=faults,
            spliced_cells=len(spliced),
            recomputed_cells=(
                len(patterns) * len(update_classes) - len(restored)
            ),
        )
        if store is not None:
            with tracer.span("matrix.checkpoint.finalize"):
                store.finalize(
                    {
                        "cells": matrix.cell_count,
                        "independent": matrix.independent_count(),
                        "unknown": matrix.unknown_count(),
                        "worker_faults": faults,
                        "elapsed_seconds": matrix.elapsed_seconds,
                    }
                )
        if run_span.enabled:
            run_span.set_attribute("kind", kind)
            run_span.set_attribute("rows", len(patterns))
            run_span.set_attribute("columns", len(update_classes))
            run_span.set_attribute("strategy", strategy)
            run_span.set_attribute("jobs", jobs)
            run_span.set_attribute("independent", matrix.independent_count())
            run_span.set_attribute("unknown", matrix.unknown_count())
            run_span.set_attribute("worker_faults", faults)
            run_span.set_attribute("spliced_cells", matrix.spliced_cells)
            run_span.set_attribute(
                "recomputed_cells", matrix.recomputed_cells
            )
            run_span.set_attribute(
                "elapsed_ms", matrix.elapsed_seconds * 1000.0
            )
    return matrix


def check_independence_matrix(
    fds: Sequence[FunctionalDependency],
    update_classes: Sequence[UpdateClass],
    schema: Schema | None = None,
    want_witness: bool = False,
    strategy: str = AUTO,
    parallelism: int = 1,
    budget: Budget | None = None,
    worker_timeout_seconds: float | None = None,
    parallel_threshold_seconds: float | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    baseline_dir: str | os.PathLike | None = None,
    checkpoint_snapshot_every: int = DEFAULT_CHECKPOINT_SNAPSHOT_EVERY,
    _fault_injection: FaultInjection | None = None,
    _per_cell_delay_seconds: float = 0.0,
    _worker_log_path: str | None = None,
    tracer=None,
) -> IndependenceMatrix:
    """Run IC for every (FD, update-class) pair, amortizing the setup.

    Verdicts agree cell-for-cell with per-pair
    :func:`~repro.independence.criterion.check_independence` (the
    randomized equivalence suite asserts it); only the sharing and the
    optional process fan-out differ.  ``budget`` bounds each cell
    individually (UNKNOWN on exhaustion); ``worker_timeout_seconds`` is
    the hard backstop after which a hung worker pool is abandoned and
    the unfinished rows recomputed serially.

    ``parallelism > 1`` fans rows out over a persistent warm worker
    pool (:mod:`repro.independence.pool`): the shared automata are
    shipped once per run, not per chunk, and a spawn-cost gate degrades
    matrices too small to amortize the fan-out back to the serial path.
    ``parallel_threshold_seconds`` overrides the gate: ``0.0`` forces
    fan-out unconditionally, a positive value runs serial whenever the
    estimated serial time falls below it, ``None`` (default) uses the
    learned cost model.

    ``checkpoint_dir`` makes the run crash-safe: every cell verdict is
    journaled (write-ahead, fsynced) the moment it lands, and
    ``resume=True`` restores the certified cells of an interrupted run
    — re-attempting UNKNOWN cells — after checking the stored
    :class:`~repro.persistence.manifest.RunManifest` against the
    current inputs (:class:`~repro.errors.ResumeMismatchError` on any
    difference).  ``checkpoint_snapshot_every`` sets the journal
    compaction cadence.  ``_per_cell_delay_seconds`` is a test-only
    hook (like ``_fault_injection``) that the crash harness uses to
    land a SIGKILL mid-journal.

    ``baseline_dir`` enables *drift* re-analysis: the run dir of a
    prior (possibly different) run is manifest-diffed against the
    current inputs, every cell at an (unchanged FD × unchanged update
    class) position — matched by name and content fingerprint — is
    spliced from the baseline without recomputation, and only the
    affected rows/columns are computed.  UNKNOWN baseline cells are
    re-attempted; schema/strategy/budget/witness/code-version drift
    invalidates the whole baseline (full recompute, never a wrong
    answer); a missing or corrupted baseline degrades to a full
    recompute with one :class:`PersistenceWarning`.  Unlike ``resume``,
    a mismatched baseline is never an error — drift is the point.
    """
    return _check_matrix(
        [fd.pattern for fd in fds],
        [fd.name for fd in fds],
        update_classes,
        schema,
        want_witness,
        strategy,
        parallelism,
        budget=budget,
        worker_timeout_seconds=worker_timeout_seconds,
        fault_injection=_fault_injection,
        kind="independence-matrix",
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        baseline_dir=baseline_dir,
        checkpoint_snapshot_every=checkpoint_snapshot_every,
        per_cell_delay=_per_cell_delay_seconds,
        parallel_threshold_seconds=parallel_threshold_seconds,
        worker_log_path=_worker_log_path,
        tracer=tracer,
    )


def check_view_independence_matrix(
    views: Sequence[RegularTreePattern],
    update_classes: Sequence[UpdateClass],
    schema: Schema | None = None,
    want_witness: bool = False,
    strategy: str = AUTO,
    parallelism: int = 1,
    view_names: Sequence[str] | None = None,
    budget: Budget | None = None,
    worker_timeout_seconds: float | None = None,
    parallel_threshold_seconds: float | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    baseline_dir: str | os.PathLike | None = None,
    checkpoint_snapshot_every: int = DEFAULT_CHECKPOINT_SNAPSHOT_EVERY,
    tracer=None,
) -> IndependenceMatrix:
    """The batch variant of view-update independence ([9]).

    The dangerous region of a view coincides with the FD case, so the
    same shared construction applies with view patterns as rows —
    including the crash-safe ``checkpoint_dir``/``resume`` behaviour
    and ``baseline_dir`` drift splicing (the manifest records the view
    kind, so an FD checkpoint can never be spliced into a view run or
    vice versa).
    """
    names = (
        list(view_names)
        if view_names is not None
        else [f"view{i}" for i in range(len(views))]
    )
    if len(names) != len(views):
        raise IndependenceError("view_names must match views in length")
    return _check_matrix(
        list(views),
        names,
        update_classes,
        schema,
        want_witness,
        strategy,
        parallelism,
        budget=budget,
        worker_timeout_seconds=worker_timeout_seconds,
        parallel_threshold_seconds=parallel_threshold_seconds,
        kind="view-independence-matrix",
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        baseline_dir=baseline_dir,
        checkpoint_snapshot_every=checkpoint_snapshot_every,
        tracer=tracer,
    )
