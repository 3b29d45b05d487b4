"""Event streams over XML: the SAX-style view of documents.

Three event kinds, as ``(kind, payload)`` tuples:

* ``("start", label)`` — an element opens;
* ``("end", label)`` — an element closes;
* ``("leaf", (label, value))`` — an attribute or text node.

Streams come either from an in-memory tree (:func:`iter_events`) or
directly from XML text (:func:`parse_events`), which never materializes
the tree — the substrate for the streaming FD validator of
:mod:`repro.fd.streaming`.  The reserved document root ``'/'`` is
included as the outermost start/end pair so consumers see the same shape
the tree model has.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ParseError
from repro.limits import NOOP_PARSE_METER
from repro.xmlmodel.parser import END, LEAF, START, _document_start, _scan
from repro.xmlmodel.tree import NodeType, ROOT_LABEL, XMLDocument, XMLNode

Event = tuple[str, object]


def iter_events(document: XMLDocument | XMLNode) -> Iterator[Event]:
    """Stream a tree as events (depth-first, document order).

    Iterative, so arbitrarily deep trees stream without recursion.
    """
    root = document.root if isinstance(document, XMLDocument) else document
    # stack entries: (node, next-child-index); leaves never enter it
    if root.node_type is not NodeType.ELEMENT:
        yield (LEAF, (root.label, root.value or ""))
        return
    yield (START, root.label)
    stack: list[tuple[XMLNode, int]] = [(root, 0)]
    while stack:
        node, index = stack[-1]
        if index >= len(node.children):
            stack.pop()
            yield (END, node.label)
            continue
        stack[-1] = (node, index + 1)
        child = node.children[index]
        if child.node_type is not NodeType.ELEMENT:
            yield (LEAF, (child.label, child.value or ""))
        else:
            yield (START, child.label)
            stack.append((child, 0))


def parse_events(
    source: str, keep_whitespace: bool = False
) -> Iterator[Event]:
    """Stream XML text as events without building a tree.

    Runs the scanner of :func:`repro.xmlmodel.parser.parse_document`,
    so it accepts the same dialect (elements, attributes, text with
    entities, CDATA, comments, PIs) and raises the same
    :class:`~repro.errors.XMLParseError`, with position and snippet.
    The document element's events are wrapped in the reserved ``'/'``
    root events.
    """
    try:
        start = _document_start(source)
        yield (START, ROOT_LABEL)
        yield from _scan(source, start, keep_whitespace, NOOP_PARSE_METER)
        yield (END, ROOT_LABEL)
    except ParseError as error:
        raise error.with_snippet(source) from None
