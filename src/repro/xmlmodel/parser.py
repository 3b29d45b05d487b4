"""A small, self-contained XML parser targeting the tree model.

The dialect covers the XML constructs the paper's documents need:
elements, attributes, character data with the five predefined entities,
CDATA sections, comments and processing instructions (both skipped), and
an optional XML declaration.  Namespaces are treated as plain label
prefixes; DOCTYPE declarations are rejected.

Attributes become attribute-labeled leaf children placed *before* the
element children, matching the paper's modeling of attributes as labeled
leaves (Figure 1).

One scanner serves both XML front ends: :func:`_scan` walks the text
with ``str.find`` and two compiled patterns, and yields the
``start``/``leaf``/``end`` events of :mod:`repro.xmlmodel.events`.
:func:`parse_fragment` builds the tree from those events and
:func:`~repro.xmlmodel.events.parse_events` streams them.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.errors import ParseError, XMLParseError
from repro.limits import ParseBudget, start_parse_meter
from repro.xmlmodel.tree import (
    ATTRIBUTE_PREFIX,
    TEXT_LABEL,
    XMLDocument,
    XMLNode,
)

#: the event kinds the scanner yields (see :mod:`repro.xmlmodel.events`)
START = "start"
END = "end"
LEAF = "leaf"

_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

#: an element or attribute name, and a run of XML whitespace, each
#: matched at a given offset
_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.-]*").match
_SPACE = re.compile(r"[ \t\r\n]*").match


def _unterminated(token: str, position: int) -> XMLParseError:
    """The error for a construct whose closing ``token`` never comes."""
    return XMLParseError(
        f"unterminated construct, expected {token!r}", position
    )


def _decode_entities(raw: str, offset: int, meter) -> str:
    """Replace ``&name;`` and ``&#N;`` references in character data that
    contains at least one ``&``."""
    amp = raw.find("&")
    pieces: list[str] = []
    index = 0
    while amp >= 0:
        pieces.append(raw[index:amp])
        end = raw.find(";", amp + 1)
        if end < 0:
            raise XMLParseError("unterminated entity reference", offset + amp)
        name = raw[amp + 1 : end]
        if name.startswith("#"):
            # numeric character reference: digits may be garbage and the
            # code point out of range — both are parse errors, not
            # ValueError leaks
            try:
                if name.startswith("#x") or name.startswith("#X"):
                    code = int(name[2:], 16)
                else:
                    code = int(name[1:])
                pieces.append(chr(code))
                meter.expand(1, offset + amp)
            except (ValueError, OverflowError):
                raise XMLParseError(
                    f"invalid character reference &{name};", offset + amp
                ) from None
        elif name in _ENTITIES:
            pieces.append(_ENTITIES[name])
            meter.expand(1, offset + amp)
        else:
            raise XMLParseError(f"unknown entity {name!r}", offset + amp)
        index = end + 1
        amp = raw.find("&", index)
    pieces.append(raw[index:])
    return "".join(pieces)


def _skip_misc(source: str, pos: int) -> int:
    """The offset past whitespace, comments and processing instructions."""
    while True:
        pos = _SPACE(source, pos).end()
        if source.startswith("<!--", pos):
            end = source.find("-->", pos + 4)
            if end < 0:
                raise _unterminated("-->", pos + 4)
            pos = end + 3
        elif source.startswith("<?", pos):
            end = source.find("?>", pos + 2)
            if end < 0:
                raise _unterminated("?>", pos + 2)
            pos = end + 2
        else:
            return pos


def _document_start(source: str) -> int:
    """The offset of the document element, past the prolog."""
    pos = _skip_misc(source, 0)
    if source.startswith("<!DOCTYPE", pos):
        raise XMLParseError("DOCTYPE declarations are not supported", pos)
    return pos


def _end_tag(source: str, pos: int, label: str) -> int:
    """The offset of the ``>`` closing the end tag at ``pos``, which must
    name ``label``."""
    match = _NAME(source, pos + 2)
    if match is None:
        raise XMLParseError("expected a name", pos + 2)
    pos = match.end()
    if match.group() != label:
        raise XMLParseError(
            f"mismatched end tag </{match.group()}> for <{label}>", pos
        )
    pos = _SPACE(source, pos).end()
    if not source.startswith(">", pos):
        raise XMLParseError("expected '>'", pos)
    return pos


def _scan(
    source: str, pos: int, keep_whitespace: bool, meter
) -> Iterator[tuple[str, object]]:
    """Yield the events of the element at ``pos``, then refuse anything
    but whitespace, comments and PIs after it.

    The one element loop of the XML front ends.  Iterative (a stack of
    open labels), so arbitrarily deep documents scan without hitting
    the interpreter recursion limit.  Character data is buffered until
    the next markup other than CDATA, and a buffer that is all
    whitespace is dropped unless ``keep_whitespace`` is set.  The
    ``meter`` sees one ``token`` per element name, attribute name and
    text run, ``enter``/``leave`` per element and ``expand`` per entity.
    """
    find = source.find
    startswith = source.startswith
    size = len(source)
    token = meter.token
    open_labels: list[str] = []
    text: list[str] = []
    meter.enter(pos)
    if not startswith("<", pos):
        raise XMLParseError("expected '<'", pos)
    while True:
        # an open tag starts at pos and its nesting level is entered
        match = _NAME(source, pos + 1)
        if match is None:
            raise XMLParseError("expected a name", pos + 1)
        pos = match.end()
        token(pos)
        label = match.group()
        yield (START, label)
        while True:
            pos = _SPACE(source, pos).end()
            char = source[pos : pos + 1]
            if char == ">" or char == "/" or not char:
                break
            match = _NAME(source, pos)
            if match is None:
                raise XMLParseError("expected a name", pos)
            pos = match.end()
            token(pos)
            pos = _SPACE(source, pos).end()
            if not startswith("=", pos):
                raise XMLParseError("expected '='", pos)
            pos = _SPACE(source, pos + 1).end()
            quote = source[pos : pos + 1]
            if quote != '"' and quote != "'":
                raise XMLParseError("attribute value must be quoted", pos)
            pos += 1
            end = find(quote, pos)
            if end < 0:
                raise _unterminated(quote, pos)
            value = source[pos:end]
            if "&" in value:
                value = _decode_entities(value, pos, meter)
            yield (LEAF, (ATTRIBUTE_PREFIX + match.group(), value))
            pos = end + 1
        if char == ">":
            pos += 1
            open_labels.append(label)
        elif startswith("/>", pos):
            pos += 2
            meter.leave()
            yield (END, label)
        else:
            raise XMLParseError("expected '>'", pos)
        # content up to the next open tag, or to the document end tag
        while open_labels:
            if pos >= size:
                raise XMLParseError(
                    f"unclosed element <{open_labels[-1]}>", pos
                )
            if source[pos] != "<":
                end = find("<", pos)
                if end < 0:
                    end = size
                token(end)
                value = source[pos:end]
                if "&" in value:
                    value = _decode_entities(value, pos, meter)
                text.append(value)
                pos = end
                continue
            after = source[pos + 1 : pos + 2]
            if after == "!" and startswith("<![CDATA[", pos):
                end = find("]]>", pos + 9)
                if end < 0:
                    raise _unterminated("]]>", pos + 9)
                text.append(source[pos + 9 : end])
                pos = end + 3
                continue
            if text:
                joined = "".join(text)
                text.clear()
                if keep_whitespace or joined.strip():
                    yield (LEAF, (TEXT_LABEL, joined))
            if after == "/":
                # '>' cannot continue a name, so "</label>" closes label;
                # any other end tag takes the path that checks it
                label = open_labels.pop()
                end = pos + 2 + len(label)
                if not (
                    startswith(label, pos + 2) and source[end : end + 1] == ">"
                ):
                    end = _end_tag(source, pos, label)
                pos = end + 1
                meter.leave()
                yield (END, label)
            elif after == "!" and startswith("<!--", pos):
                end = find("-->", pos + 4)
                if end < 0:
                    raise _unterminated("-->", pos + 4)
                pos = end + 3
            elif after == "?":
                end = find("?>", pos + 2)
                if end < 0:
                    raise _unterminated("?>", pos + 2)
                pos = end + 2
            else:
                meter.enter(pos)
                break
        if not open_labels:
            break
    pos = _skip_misc(source, pos)
    if pos < size:
        raise XMLParseError("trailing content after document element", pos)


def _build(events: Iterator[tuple[str, object]]) -> XMLNode:
    """The element whose events :func:`_scan` yields, as a tree."""
    # XMLNode's label checks are skipped: a scanned name never starts
    # with '@' and is never '#text', so the grammar fixes each node type
    new_node = XMLNode.__new__
    root = parent = None
    for kind, payload in events:
        if kind is END:
            parent = parent.parent
            continue
        node = new_node(XMLNode)
        node.children = []
        node.parent = parent
        if kind is LEAF:
            node.label, node.value = payload
            parent.children.append(node)
            continue
        node.label = payload
        node.value = None
        if parent is None:
            root = node
        else:
            parent.children.append(node)
        parent = node
    return root


def parse_fragment(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLNode:
    """Parse a single element (with its subtree) from XML text.

    Malformed input always surfaces as :class:`XMLParseError` (a
    :class:`~repro.errors.ParseError` with position and snippet) —
    never a bare ``ValueError``/``IndexError`` from the scanner's
    internals.  The fuzz suite holds the parser to this contract.

    ``limits`` guards the parse against hostile input: oversized text,
    nesting bombs, token floods and entity-expansion floods raise the
    structured :class:`~repro.errors.ParseLimitError` family instead of
    exhausting memory.  ``limits=None`` (the default) parses exactly as
    before — the element loop is iterative, so even unguarded parses
    never hit ``RecursionError`` on deep documents.
    """
    try:
        meter = start_parse_meter(limits, source)
        return _build(
            _scan(source, _document_start(source), keep_whitespace, meter)
        )
    except ParseError as error:
        raise error.with_snippet(source) from None


def parse_document(
    source: str,
    keep_whitespace: bool = False,
    limits: ParseBudget | None = None,
) -> XMLDocument:
    """Parse XML text into a document rooted at the reserved ``'/'`` node.

    Whitespace-only text nodes are dropped unless ``keep_whitespace`` is
    set, matching the data-centric reading of the paper's documents.
    ``limits`` guards against hostile input (see :func:`parse_fragment`).
    """
    element = parse_fragment(
        source, keep_whitespace=keep_whitespace, limits=limits
    )
    return XMLDocument.from_document_element(element)
