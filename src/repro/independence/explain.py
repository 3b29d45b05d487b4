"""Turning POSSIBLY_DEPENDENT verdicts into concrete evidence (or
reassurance).

The criterion IC is sufficient but not complete: a POSSIBLY_DEPENDENT
verdict only says a document exists where an update *touches* the FD's
dangerous region.  This module pushes the diagnosis one step further: starting
from the criterion's witness document, it searches bounded label-
preserving replacements at the update-selected nodes for an *actual*
impact — a pair (document, update) where the FD flips from satisfied to
violated.

Outcomes:

* an :class:`ImpactDemonstration` — the pair, dynamically verified: the
  POSSIBLY_DEPENDENT verdict was a true positive;
* ``None`` — no impact within the search bounds; the pair *may* still be
  independent (IC's incompleteness), and the caller can widen the bounds
  or fall back to runtime revalidation.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence

from repro.fd.fd import FunctionalDependency
from repro.fd.satisfaction import document_satisfies
from repro.independence.criterion import IndependenceResult
from repro.independence.exhaustive import default_replacement_pool
from repro.schema.dtd import Schema
from repro.xmlmodel.edit import replace_subtree
from repro.xmlmodel.tree import NodeType, XMLDocument, XMLNode


@dataclasses.dataclass
class ImpactDemonstration:
    """A verified (document, updated document) pair breaking the FD."""

    document: XMLDocument
    updated_document: XMLDocument
    replaced_positions: list[tuple[int, ...]]

    def describe(self) -> str:
        """One-line summary naming the replaced positions."""
        spots = ", ".join(
            ".".join(map(str, position)) or "ε"
            for position in self.replaced_positions
        )
        return f"impact demonstrated by replacing node(s) at {spots}"


def _seed_documents(
    fd: FunctionalDependency,
    witness: XMLDocument,
    values: Sequence[str],
) -> list[XMLDocument]:
    """Variants of the witness enriched toward violability.

    Witness documents from the emptiness check carry a *single* trace
    with placeholder values, while an FD violation needs two traces that
    agree on the conditions and disagree on the target.  The variants
    therefore (a) fill leaf values uniformly (equal condition keys) and
    (b) duplicate each subtree once (a second trace for the update to
    desynchronize).
    """

    def filled_copy(document: XMLDocument) -> XMLDocument:
        copy = document.clone()
        for node in copy.nodes():
            if node.node_type is not NodeType.ELEMENT and not node.value:
                node.value = values[0]
        return copy

    variants = [witness.clone(), filled_copy(witness)]
    # duplicate every non-root subtree once, in the filled variant
    base = filled_copy(witness)
    positions = [
        node.position()
        for node in base.nodes()
        if node.parent is not None
    ]
    for position in positions:
        variant = base.clone()
        target = variant.node_at(position)
        duplicate = target.clone()
        target.parent.insert_child(target.child_index() + 1, duplicate)
        variants.append(variant)
    return variants


def demonstrate_impact(
    result: IndependenceResult,
    values: Sequence[str] = ("0", "1"),
    max_attempts: int = 2000,
) -> ImpactDemonstration | None:
    """Search for a concrete impact behind a POSSIBLY_DEPENDENT verdict.

    Only meaningful when ``result.witness`` is present; raises
    ``ValueError`` on INDEPENDENT results, and on UNKNOWN ones (a
    budget-exhausted run carries no witness).
    """
    if result.independent:
        raise ValueError("nothing to demonstrate: the pair is independent")
    if result.witness is None:
        raise ValueError("the result carries no witness document")

    fd = result.fd
    update_class = result.update_class
    schema: Schema | None = result.schema

    labels = sorted(
        fd.pattern.template.alphabet()
        | update_class.pattern.template.alphabet()
    )
    pool = default_replacement_pool(labels or ("x",), values)

    attempts = 0
    for base in _seed_documents(fd, result.witness, values):
        if schema is not None and not schema.is_valid(base):
            continue
        if not document_satisfies(fd, base):
            continue
        selected = update_class.selected_nodes(base)
        if not selected:
            continue
        positions = [node.position() for node in selected]

        def options(node: XMLNode) -> list[XMLNode]:
            if node.node_type is NodeType.ELEMENT:
                same_label = [r for r in pool if r.label == node.label]
                return same_label or [node.clone()]
            return [XMLNode(node.label, value=v) for v in values]

        for combo in itertools.product(*(options(n) for n in selected)):
            attempts += 1
            if attempts > max_attempts:
                return None
            updated = base.clone()
            for position, replacement in sorted(
                zip(positions, combo), reverse=True
            ):
                replace_subtree(updated.node_at(position), replacement.clone())
            if schema is not None and not schema.is_valid(updated):
                continue
            if not document_satisfies(fd, updated):
                return ImpactDemonstration(
                    document=base,
                    updated_document=updated,
                    replaced_positions=positions,
                )
    return None
