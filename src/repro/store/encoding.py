"""The one-row encoding of XML documents: a flat preorder body.

A stored document is one JSON text, its *body*: the list of its nodes
in document (pre)order, each as a ``[label, value, child_count]``
triple.  ``label`` is the node label as the tree model spells it (the
``"/"`` root, ``"@"``-prefixed attributes, ``"#text"``), ``value`` is
``null`` for elements and the string value otherwise, and
``child_count`` counts the node's children, attribute children
included, so document order — the attribute-before-content discipline
the serializer enforces among it — survives the round trip exactly.

The list is flat on purpose.  A nested ``[label, value, children]``
tree would make ``json.dumps`` and ``json.loads`` recurse once per
level and raise ``RecursionError`` past about a thousand levels, while
the model (and ``corpus load --no-parse-guards``) admits documents ten
thousand levels deep.  Both directions here walk the tree with an
explicit stack.

The body is a pure function of the document's shape, so two
value-equal documents encode to identical bodies: that is what lets
the differential suite demand bit-for-bit equal stores across
backends, and what content digests of documents created inside the
store hash.  :func:`encode_document` and :func:`decode_document` are
exact inverses on every document the tree model admits; a body that
does not describe one tree (not JSON, a malformed triple, too few or
too many triples) raises :class:`~repro.errors.StoreError` rather
than decoding into something silently wrong.
"""

from __future__ import annotations

import dataclasses
import json

from repro.errors import StoreError, XMLModelError
from repro.xmlmodel.tree import (
    ATTRIBUTE_PREFIX,
    TEXT_LABEL,
    XMLDocument,
    XMLNode,
)

# ASCII output (the default): any string the model holds, a lone
# surrogate included, then round-trips, hashes and binds to SQLite
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


@dataclasses.dataclass(frozen=True)
class DocumentBody:
    """One stored document: its body text and its node counts.

    The counts are kept beside the body so store statistics never
    decode a document.
    """

    text: str
    #: element and text nodes; each but the root hangs off one edge
    nodes: int
    #: attribute nodes
    attrs: int

    @property
    def node_count(self) -> int:
        """Total tree nodes (element + text + attribute)."""
        return self.nodes + self.attrs


def encode_document(document: XMLDocument) -> DocumentBody:
    """The body of a document, with its node counts."""
    triples: list[tuple[str, str | None, int]] = []
    attrs = 0
    stack = [document.root]
    while stack:
        node = stack.pop()
        label = node.label
        children = node.children
        triples.append((label, node.value, len(children)))
        if children:
            stack.extend(reversed(children))
        elif label.startswith(ATTRIBUTE_PREFIX):
            attrs += 1
    return DocumentBody(
        _ENCODER.encode(triples), len(triples) - attrs, attrs
    )


def decode_document(body: DocumentBody) -> XMLDocument:
    """Rebuild the document a body encodes (inverse of encode)."""
    try:
        triples = json.loads(body.text)
    except (ValueError, RecursionError) as error:
        raise StoreError(f"stored body is not JSON: {error}") from None
    if not isinstance(triples, list) or not triples:
        raise StoreError("stored body is not a non-empty list of triples")
    new_node = XMLNode.__new__
    root = None
    # [element, children still to come] for every element whose
    # children are not all read yet, innermost last
    pending: list[list] = []
    for triple in triples:
        try:
            label, value, count = triple
        except (TypeError, ValueError):
            raise StoreError(f"malformed stored triple {triple!r}") from None
        if type(label) is not str or type(count) is not int or count < 0:
            raise StoreError(f"malformed stored triple {triple!r}")
        # the model's typing: only elements have no value, and only
        # elements have children
        leaf = label == TEXT_LABEL or label.startswith(ATTRIBUTE_PREFIX)
        if (value is None) == leaf or (
            leaf and (count or type(value) is not str)
        ):
            raise StoreError(f"stored triple {triple!r} is mistyped")
        node = new_node(XMLNode)
        node.label = label
        node.value = value
        node.children = []
        if pending:
            slot = pending[-1]
            node.parent = parent = slot[0]
            parent.children.append(node)
            slot[1] -= 1
            if not slot[1]:
                pending.pop()
        elif root is None:
            node.parent = None
            root = node
        else:
            raise StoreError(
                "stored body has triples after the root's last node"
            )
        if count:
            pending.append([node, count])
    if pending:
        raise StoreError(
            f"stored body ends {pending[-1][1]} child(ren) short of "
            f"node {pending[-1][0].label!r}"
        )
    try:
        return XMLDocument(root)
    except XMLModelError as error:
        raise StoreError(f"stored body is not a document: {error}") from None
