"""The document-at-hand baseline: re-validate the FD after updating.

This is the comparison point of the paper's related-work discussion: the
approach of [14] has the source document available and re-checks the
constraint after the updates are applied.  It is *complete* (it answers
exactly whether this concrete update broke the FD on this concrete
document) but its cost grows with the document, whereas the criterion IC
costs the same regardless of document size — experiment T1 measures that
trade-off.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.fd.fd import FunctionalDependency
from repro.fd.satisfaction import document_satisfies
from repro.pattern.matcher import PatternMatcher
from repro.update.apply import (
    Update,
    apply_update,
    apply_update_with_relabels,
)
from repro.xmlmodel.tree import XMLDocument

if typing.TYPE_CHECKING:
    from repro.independence.criterion import IndependenceResult


@dataclasses.dataclass
class RevalidationOutcome:
    """Result of the apply-then-recheck baseline."""

    satisfied_before: bool
    satisfied_after: bool
    updated_document: XMLDocument
    elapsed_seconds: float

    @property
    def fd_broken(self) -> bool:
        """True when the update turned a satisfied FD into a violated one."""
        return self.satisfied_before and not self.satisfied_after


def revalidation_check(
    fd: FunctionalDependency,
    document: XMLDocument,
    update: Update,
    check_before: bool = True,
    matcher: PatternMatcher | None = None,
) -> RevalidationOutcome:
    """Apply ``update`` and re-check ``fd`` on the result.

    With ``check_before`` unset the document is assumed to satisfy the FD
    (e.g. it was validated on ingestion), matching [14]'s setting where
    prior verification passes are available.  A ``matcher`` built for
    ``fd.pattern`` over ``document`` warms the *before* check; the
    *after* check runs on the freshly cloned updated document (updates
    are non-destructive), so it cannot reuse node-scoped facts — it
    still shares the process-wide compiled-automaton cache.
    """
    started = time.perf_counter()
    updated = apply_update(document, update)
    return _recheck(fd, document, updated, check_before, matcher, started)


def _recheck(
    fd: FunctionalDependency,
    document: XMLDocument,
    updated: XMLDocument,
    check_before: bool,
    matcher: PatternMatcher | None,
    started: float,
) -> RevalidationOutcome:
    satisfied_before = (
        document_satisfies(fd, document, matcher=matcher)
        if check_before
        else True
    )
    satisfied_after = document_satisfies(fd, updated)
    return RevalidationOutcome(
        satisfied_before=satisfied_before,
        satisfied_after=satisfied_after,
        updated_document=updated,
        elapsed_seconds=time.perf_counter() - started,
    )


@dataclasses.dataclass
class RoutedOutcome:
    """What :func:`apply_with_fallback` did and what it concluded.

    ``fd_preserved`` is the sound answer for this concrete ``(document,
    update)`` pair regardless of which route produced it: certified
    independence (``revalidated=False``) or the apply-then-recheck
    fallback (``revalidated=True``, full details in ``revalidation``).
    """

    fd_preserved: bool
    revalidated: bool
    updated_document: XMLDocument
    revalidation: RevalidationOutcome | None = None


def apply_with_fallback(
    result: "IndependenceResult",
    document: XMLDocument,
    update: Update,
    check_before: bool = False,
) -> RoutedOutcome:
    """Apply an update, rechecking the FD only when the verdict demands it.

    This is the degradation router for budgeted analyses: an
    INDEPENDENT verdict lets the update commit without looking at the
    document again, unless the performer changed the label of a node
    it replaced; that, POSSIBLY_DEPENDENT and UNKNOWN (budget
    exhausted — proves nothing) all take the sound fallback of
    :func:`revalidation_check` on the updated document.  ``result``
    must stem from the same FD and update class as ``update``, which
    is asserted by name.
    """
    from repro.errors import IndependenceError

    if update.update_class.name != result.update_class.name:
        raise IndependenceError(
            f"independence result for class {result.update_class.name!r} "
            f"cannot route update {update.name!r} of class "
            f"{update.update_class.name!r}"
        )
    started = time.perf_counter()
    updated, relabeled = apply_update_with_relabels(document, update)
    if result.independent and not relabeled:
        return RoutedOutcome(
            fd_preserved=True, revalidated=False, updated_document=updated
        )
    outcome = _recheck(
        result.fd, document, updated, check_before, None, started
    )
    return RoutedOutcome(
        fd_preserved=outcome.satisfied_after,
        revalidated=True,
        updated_document=updated,
        revalidation=outcome,
    )
