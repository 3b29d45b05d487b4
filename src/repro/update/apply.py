"""Applying a concrete update ``q = u ∘ U`` to a document.

Application is non-destructive: the input document is cloned, the update
class is evaluated on the clone, and the performer replaces each selected
subtree.  When selected nodes are nested, deeper nodes are processed
first so that an ancestor's performer sees the already-updated content of
its subtree; the root itself is never selected for replacement (patterns
cannot select the reserved ``'/'`` node usefully — replacing it would
discard the whole document).

Performers are *arbitrary user code* (the paper lets ``u`` be any
replacement function), so this module treats their output as untrusted:

* a performer that raises is wrapped into :class:`UpdateError` naming
  the update, never allowed to leave the document half-updated in the
  caller's hands;
* a performer that exceeds ``timeout_seconds`` (when set) is abandoned
  on its watchdog thread and reported the same way — the working clone
  it may still mutate is discarded, the input document was never
  touched;
* the returned replacement subtree is validated before splicing —
  structural consistency (parent/child links agree, no node appears
  twice), tree-domain typing (only element nodes carry children,
  element nodes carry no string value), label sanity (no reserved root
  label below the top, no empty labels), and *no aliasing*: a
  replacement may reuse nodes of the detached old subtree it was handed
  (that is how in-place performers work) but never nodes of the
  original input document or nodes still attached elsewhere in the
  working copy.  A violation raises :class:`UpdateError` naming the
  update instead of silently committing a corrupt document.
"""

from __future__ import annotations

import threading

from repro.errors import UpdateError
from repro.update.operations import Performer
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import NodeType, ROOT_LABEL, XMLDocument, XMLNode


class Update:
    """A concrete update: a class plus a performer."""

    def __init__(
        self,
        update_class: UpdateClass,
        performer: Performer,
        name: str | None = None,
    ) -> None:
        self.update_class = update_class
        self.performer = performer
        self.name = name or f"update-of-{update_class.name}"

    def __call__(self, document: XMLDocument) -> XMLDocument:
        return apply_update(document, self)

    def __repr__(self) -> str:
        return f"<Update {self.name} in class {self.update_class.name}>"


def _run_performer(
    update: Update, node: XMLNode, timeout_seconds: float | None
) -> XMLNode | None:
    """Invoke the performer, converting crashes and hangs to UpdateError."""
    if timeout_seconds is None:
        try:
            return update.performer(node)
        except UpdateError as error:
            if error.update_name is None:
                error.update_name = update.name
            raise
        except Exception as error:
            raise UpdateError(
                f"update {update.name!r}: performer raised "
                f"{type(error).__name__}: {error}",
                update_name=update.name,
            ) from error
    outcome: list = []

    def call() -> None:
        try:
            outcome.append(("ok", update.performer(node)))
        except BaseException as error:  # noqa: BLE001 — reported below
            outcome.append(("error", error))

    watchdog = threading.Thread(
        target=call, name=f"performer-{update.name}", daemon=True
    )
    watchdog.start()
    watchdog.join(timeout_seconds)
    if watchdog.is_alive():
        # the thread is abandoned; whatever it mutates later lives only
        # in the discarded working clone, never in the input document
        raise UpdateError(
            f"update {update.name!r}: performer exceeded its "
            f"{timeout_seconds:g}s timeout",
            update_name=update.name,
        )
    kind, value = outcome[0]
    if kind == "error":
        raise UpdateError(
            f"update {update.name!r}: performer raised "
            f"{type(value).__name__}: {value}",
            update_name=update.name,
        ) from value
    return value


def _fail(update: Update, node: XMLNode, problem: str) -> UpdateError:
    return UpdateError(
        f"update {update.name!r}: invalid performer output at node "
        f"{node.label!r}: {problem}",
        update_name=update.name,
    )


def validate_replacement(
    update: Update,
    replacement: XMLNode,
    original_ids: frozenset[int] | set[int],
    in_place: bool = False,
) -> None:
    """Check a performer's output subtree before splicing it in.

    ``original_ids`` holds ``id()`` of every input-document node,
    snapshotted *before* any performer ran (a hostile performer may
    detach input nodes, which would hide them from a later snapshot).
    ``in_place`` marks the ``replacement is node`` case: the subtree is
    legitimately still attached at its original position, so the
    detachment requirement is waived (everything else still holds).
    """
    if not isinstance(replacement, XMLNode):
        raise UpdateError(
            f"update {update.name!r}: performer must return an XMLNode "
            f"or None, got {type(replacement).__name__}",
            update_name=update.name,
        )
    if not in_place and replacement.parent is not None:
        raise UpdateError(
            f"update {update.name!r}: performer must return a detached "
            f"replacement subtree",
            update_name=update.name,
        )
    seen: set[int] = set()
    stack: list[XMLNode] = [replacement]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise _fail(
                update, node,
                "the same node object appears twice in the replacement "
                "(shared subtree or cycle)",
            )
        seen.add(id(node))
        label = node.label
        if not isinstance(label, str) or not label:
            raise _fail(update, node, "node label must be a non-empty string")
        if label == ROOT_LABEL:
            raise _fail(
                update, node,
                f"the reserved root label {ROOT_LABEL!r} cannot appear "
                f"in a replacement subtree",
            )
        if node.node_type is not NodeType.ELEMENT:
            if node.children:
                raise _fail(
                    update, node,
                    f"{node.node_type.value}-typed leaf node carries "
                    f"{len(node.children)} children",
                )
            if node.value is None:
                raise _fail(
                    update, node,
                    "attribute/text node is missing its string value",
                )
        elif node.value is not None:
            raise _fail(
                update, node, "element node cannot carry a string value"
            )
        if id(node) in original_ids:
            raise _fail(
                update, node,
                "the replacement reuses a node object of the input "
                "document (updates must be non-destructive; clone it)",
            )
        for child in node.children:
            if child.parent is not node:
                raise _fail(
                    update, child,
                    "inconsistent parent link (the node is still attached "
                    "to another tree — detach or clone it first)",
                )
            stack.append(child)


def apply_update(
    document: XMLDocument,
    update: Update,
    timeout_seconds: float | None = None,
    validate: bool = True,
) -> XMLDocument:
    """Return ``q(D)``: a new document with every selected subtree replaced.

    ``timeout_seconds`` bounds each performer invocation (watchdog
    thread); ``validate=False`` skips the performer-output validation
    for trusted performers on measured hot paths.  Any failure raises
    :class:`UpdateError` carrying :attr:`~repro.errors.UpdateError.update_name`;
    the input document is untouched either way.
    """
    return apply_update_with_relabels(
        document, update, timeout_seconds=timeout_seconds, validate=validate
    )[0]


def apply_update_with_relabels(
    document: XMLDocument,
    update: Update,
    timeout_seconds: float | None = None,
    validate: bool = True,
) -> tuple[XMLDocument, bool]:
    """:func:`apply_update`, also saying whether a performer relabeled.

    The flag is true when some replaced node's label differs from its
    label before the performer ran: a new replacement root with another
    label, or the node itself relabeled in place.  Independence
    certificates assume label-preserving performers (DESIGN.md §4), so
    callers that skip an FD recheck on a certificate must not skip it
    then.  Deletions keep the flag false.
    """
    working = document.clone()
    # snapshot before any performer runs: a performer that detaches
    # input-document nodes cannot hide them from the aliasing check
    originals = (
        frozenset(id(n) for n in document.nodes())
        if validate
        else frozenset()
    )
    selected = update.update_class.selected_nodes(working)
    relabeled = False
    # Deepest-last document order reversed => children before ancestors.
    for node in reversed(selected):
        if node.parent is None:
            raise UpdateError(
                "an update cannot replace the document root",
                update_name=update.name,
            )
        if node.root() is not working.root:
            # A previously applied replacement discarded this node's
            # subtree; the ancestor's performer already saw the change.
            continue
        # capture the splice point before the performer runs: performers
        # like wrap_in legitimately detach the old node to re-parent it
        parent = node.parent
        index = node.child_index()
        label = node.label
        replacement = _run_performer(update, node, timeout_seconds)
        if replacement is node:
            if validate:
                validate_replacement(update, replacement, originals, in_place=True)
            relabeled = relabeled or node.label != label
            continue
        if node.parent is parent:
            node.detach()
        if replacement is None:
            continue
        if validate:
            validate_replacement(update, replacement, originals)
        elif replacement.parent is not None:
            raise UpdateError(
                "a performer must return a detached replacement subtree",
                update_name=update.name,
            )
        relabeled = relabeled or replacement.label != label
        parent.insert_child(index, replacement)
    return working, relabeled
