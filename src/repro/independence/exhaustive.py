"""Brute-force impact search over bounded document spaces.

Ground truth for the precision/soundness study (T4): the criterion IC is
*sufficient* — it may answer POSSIBLY_DEPENDENT for pairs that are in fact
independent, but it must never certify a pair that some document and
update can break.  This module searches small document spaces
exhaustively for an impact witness:

    a document D (schema-valid, satisfying the FD), an update q of the
    class (replacement subtrees drawn from a pool, applied at the
    selected nodes), such that q(D) is schema-valid but violates the FD.

``label_preserving`` restricts replacements to keep each updated node's
root label — the regime under which Proposition 2 is sound (see
DESIGN.md); switching it off lets experiments probe what happens beyond
the paper's implicit assumption.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence

from repro.fd.fd import FunctionalDependency
from repro.fd.satisfaction import document_satisfies
from repro.schema.dtd import Schema
from repro.update.update_class import UpdateClass
from repro.xmlmodel.builder import elem, text
from repro.xmlmodel.edit import replace_subtree
from repro.xmlmodel.tree import NodeType, XMLDocument, XMLNode
from repro.workload.random_docs import all_documents


@dataclasses.dataclass
class ImpactWitness:
    """A concrete (document, updated document) pair breaking the FD."""

    document: XMLDocument
    updated_document: XMLDocument


@dataclasses.dataclass
class ImpactSearchResult:
    """Outcome of the exhaustive search."""

    impacted: bool
    witness: ImpactWitness | None
    documents_checked: int
    updates_tried: int


def default_replacement_pool(
    labels: Sequence[str], values: Sequence[str]
) -> list[XMLNode]:
    """A small pool of replacement subtrees over the given alphabet."""
    pool: list[XMLNode] = []
    for label in labels:
        pool.append(elem(label))
        for value in values:
            pool.append(elem(label, text(value)))
        for inner in labels:
            pool.append(elem(label, elem(inner)))
    return pool


def _apply_at(
    document: XMLDocument,
    positions: Sequence[tuple[int, ...]],
    replacements: Sequence[XMLNode],
) -> XMLDocument:
    updated = document.clone()
    # deepest-last positions first so earlier splices stay valid
    paired = sorted(zip(positions, replacements), reverse=True)
    for position, replacement in paired:
        replace_subtree(updated.node_at(position), replacement.clone())
    return updated


def exhaustive_impact_search(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
    labels: Sequence[str] = ("a", "b"),
    values: Sequence[str] = ("0", "1"),
    max_depth: int = 3,
    max_children: int = 2,
    replacement_pool: Sequence[XMLNode] | None = None,
    label_preserving: bool = True,
    max_documents: int | None = None,
    max_updates_per_document: int = 512,
    shuffle_seed: int | None = 0,
) -> ImpactSearchResult:
    """Search for an impact witness; absence is (bounded) independence.

    ``max_documents`` bounds the number of documents on which updates are
    actually attempted (schema-invalid, FD-violating and update-free
    documents do not count).  The enumeration is deterministically
    shuffled (``shuffle_seed``) so a bounded search still samples diverse
    document shapes; pass ``shuffle_seed=None`` for raw enumeration order.
    """
    if replacement_pool is None:
        replacement_pool = default_replacement_pool(labels, values)

    documents = all_documents(labels, values, max_depth, max_children)
    if shuffle_seed is not None:
        import random as _random

        _random.Random(shuffle_seed).shuffle(documents)

    documents_checked = 0
    updates_tried = 0
    for document in documents:
        if max_documents is not None and documents_checked >= max_documents:
            break
        if schema is not None and not schema.is_valid(document):
            continue
        if not document_satisfies(fd, document):
            continue

        selected = update_class.selected_nodes(document)
        if not selected:
            continue
        documents_checked += 1
        positions = [node.position() for node in selected]

        def options_for(node: XMLNode) -> list[XMLNode]:
            if not label_preserving:
                return list(replacement_pool)
            kept = [r for r in replacement_pool if r.label == node.label]
            if node.node_type is not NodeType.ELEMENT:
                # leaf-typed nodes: same label, flipped values
                kept = [XMLNode(node.label, value=v) for v in values]
            return kept

        all_options = [options_for(node) for node in selected]
        if any(not options for options in all_options):
            continue
        for combo in itertools.islice(
            itertools.product(*all_options), max_updates_per_document
        ):
            updates_tried += 1
            updated = _apply_at(document, positions, combo)
            if schema is not None and not schema.is_valid(updated):
                continue
            if not document_satisfies(fd, updated):
                return ImpactSearchResult(
                    impacted=True,
                    witness=ImpactWitness(document, updated),
                    documents_checked=documents_checked,
                    updates_tried=updates_tried,
                )
    return ImpactSearchResult(
        impacted=False,
        witness=None,
        documents_checked=documents_checked,
        updates_tried=updates_tried,
    )
