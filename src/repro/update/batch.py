"""Transactional update batches guarded by constraints.

A batch composes several updates and applies them atomically with
respect to a set of functional dependencies (and optionally a schema):
either the fully updated document satisfies everything and is committed,
or the original document is returned untouched together with a report of
what failed — the store-level behaviour the paper's introduction
motivates ("the preservation of [constraint] validation on an XML
document after one or more update operations").

The guard exploits the criterion IC where it can: updates whose class
was certified independent of an FD skip that FD's recheck entirely
(pass the certified pairs via ``certified``); everything else is
re-validated on the candidate result.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

from repro.errors import UpdateError
from repro.fd.fd import FunctionalDependency
from repro.fd.satisfaction import check_fd
from repro.pattern.matcher import PatternMatcher
from repro.schema.dtd import Schema
from repro.update.apply import Update, apply_update_with_relabels
from repro.xmlmodel.tree import XMLDocument


@dataclasses.dataclass
class BatchOutcome:
    """Result of applying a guarded batch.

    ``failed_update_name``/``update_error`` are set when an update of
    the batch itself failed (performer crash, timeout, or invalid
    performer output): the batch rolls back before any constraint is
    checked, exactly as it does for a violated FD.
    """

    committed: bool
    document: XMLDocument  # updated on commit, original on rollback
    failed_fd_names: list[str]
    schema_violation: bool
    checks_run: int
    checks_skipped: int
    failed_update_name: str | None = None
    update_error: UpdateError | None = None

    def describe(self) -> str:
        """One-line commit/rollback summary with check accounting."""
        if self.committed:
            return (
                f"COMMITTED ({self.checks_run} FD checks run, "
                f"{self.checks_skipped} skipped via IC)"
            )
        reasons = []
        if self.update_error is not None:
            name = self.failed_update_name or "<unnamed>"
            reasons.append(f"update {name} failed: {self.update_error}")
        if self.schema_violation:
            reasons.append("schema violation")
        reasons.extend(f"FD {name} violated" for name in self.failed_fd_names)
        return "ROLLED BACK: " + "; ".join(reasons)


class UpdateBatch:
    """An ordered sequence of updates applied as one unit."""

    def __init__(self, updates: Iterable[Update] = ()) -> None:
        self.updates: list[Update] = list(updates)

    def add(self, update: Update) -> "UpdateBatch":
        """Append one update; returns the batch for chaining."""
        self.updates.append(update)
        return self

    def apply(
        self,
        document: XMLDocument,
        performer_timeout_seconds: float | None = None,
    ) -> XMLDocument:
        """Apply all updates in order (no guard)."""
        return self._apply(document, performer_timeout_seconds)[0]

    def _apply(
        self, document: XMLDocument, performer_timeout_seconds: float | None
    ) -> tuple[XMLDocument, bool]:
        """The updated document, and whether any performer relabeled."""
        current = document
        relabeled = False
        for update in self.updates:
            current, changed = apply_update_with_relabels(
                current, update, timeout_seconds=performer_timeout_seconds
            )
            relabeled = relabeled or changed
        return current, relabeled

    def apply_guarded(
        self,
        document: XMLDocument,
        fds: Sequence[FunctionalDependency] = (),
        schema: Schema | None = None,
        certified: Iterable[tuple[str, str]] = (),
        assume_valid_before: bool = True,
        performer_timeout_seconds: float | None = None,
    ) -> BatchOutcome:
        """Apply with commit/rollback semantics.

        ``certified`` is a set of ``(fd_name, update_class_name)`` pairs
        already certified independent (e.g. by running
        :func:`repro.independence.check_independence` at class-registration
        time); an FD is skipped when *every* update in the batch is
        certified against it and no performer changed the label of a
        node it replaced (certificates assume label-preserving
        performers).  ``assume_valid_before`` skips pre-checks,
        matching stores that validate on ingestion.

        A failing update (performer crash, timeout when
        ``performer_timeout_seconds`` is set, or invalid performer
        output) rolls the batch back: the outcome names the update and
        carries the :class:`~repro.errors.UpdateError` instead of
        letting it escape mid-transaction.
        """
        certified_pairs = set(certified)

        if not assume_valid_before:
            if schema is not None and not schema.is_valid(document):
                return BatchOutcome(
                    committed=False,
                    document=document,
                    failed_fd_names=[],
                    schema_violation=True,
                    checks_run=0,
                    checks_skipped=0,
                )
            for fd in fds:
                if not check_fd(fd, document).satisfied:
                    return BatchOutcome(
                        committed=False,
                        document=document,
                        failed_fd_names=[fd.name],
                        schema_violation=False,
                        checks_run=1,
                        checks_skipped=0,
                    )

        try:
            candidate, relabeled = self._apply(
                document, performer_timeout_seconds
            )
        except UpdateError as error:
            return BatchOutcome(
                committed=False,
                document=document,
                failed_fd_names=[],
                schema_violation=False,
                checks_run=0,
                checks_skipped=0,
                failed_update_name=error.update_name,
                update_error=error,
            )

        checks_run = 0
        checks_skipped = 0
        failed: list[str] = []
        schema_violation = False
        if schema is not None and not schema.is_valid(candidate):
            schema_violation = True
        for fd in fds:
            # a relabeling performer voids every certificate of the batch
            fully_certified = (
                not relabeled
                and bool(self.updates)
                and all(
                    (fd.name, update.update_class.name) in certified_pairs
                    for update in self.updates
                )
            )
            if fully_certified:
                checks_skipped += 1
                continue
            checks_run += 1
            # one warm matcher per check: the FD's mappings all share the
            # candidate-wide reachability/existence facts
            with PatternMatcher(fd.pattern, candidate) as matcher:
                if not check_fd(fd, candidate, matcher=matcher).satisfied:
                    failed.append(fd.name)

        committed = not failed and not schema_violation
        return BatchOutcome(
            committed=committed,
            document=candidate if committed else document,
            failed_fd_names=failed,
            schema_violation=schema_violation,
            checks_run=checks_run,
            checks_skipped=checks_skipped,
        )
