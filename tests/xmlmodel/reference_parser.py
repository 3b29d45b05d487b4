"""The character-at-a-time XML parser, kept as a test oracle.

This is the ``_Scanner`` parser that ``repro.xmlmodel.parser`` used
before its scanner moved to ``str.find`` and compiled patterns, kept
verbatim below this docstring.  ``test_parser_differential.py`` holds
the library parser to it: the same tree, or the same error class,
message, position and snippet, on every input.

The dialect covers the XML constructs the paper's documents need:
elements, attributes, character data with the five predefined entities,
CDATA sections, comments and processing instructions (both skipped), and
an optional XML declaration.  Namespaces are treated as plain label
prefixes; DOCTYPE declarations are rejected.

Attributes become attribute-labeled leaf children placed *before* the
element children, matching the paper's modeling of attributes as labeled
leaves (Figure 1).
"""

from __future__ import annotations

from repro.errors import ParseError, XMLParseError, source_snippet
from repro.limits import NOOP_PARSE_METER, ParseBudget, start_parse_meter
from repro.xmlmodel.builder import attr, text
from repro.xmlmodel.tree import XMLDocument, XMLNode

_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the raw XML text with small lookahead helpers."""

    def __init__(self, source: str, meter=NOOP_PARSE_METER) -> None:
        self.source = source
        self.pos = 0
        self.meter = meter

    def at_end(self) -> bool:
        return self.pos >= len(self.source)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def startswith(self, token: str) -> bool:
        return self.source.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XMLParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while not self.at_end() and self.peek() in " \t\r\n":
            self.advance()

    def read_until(self, token: str) -> str:
        end = self.source.find(token, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated construct, expected {token!r}", self.pos)
        chunk = self.source[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.at_end() or self.peek() not in _NAME_START:
            raise XMLParseError("expected a name", self.pos)
        while not self.at_end() and self.peek() in _NAME_CHARS:
            self.advance()
        return self.source[start : self.pos]


def _decode_entities(raw: str, offset: int, meter=NOOP_PARSE_METER) -> str:
    """Replace ``&name;`` and ``&#N;`` references in character data."""
    if "&" not in raw:
        return raw
    pieces: list[str] = []
    index = 0
    while index < len(raw):
        char = raw[index]
        if char != "&":
            pieces.append(char)
            index += 1
            continue
        end = raw.find(";", index + 1)
        if end < 0:
            raise XMLParseError("unterminated entity reference", offset + index)
        name = raw[index + 1 : end]
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
                meter.expand(1, offset + index)
            except (ValueError, OverflowError):
                raise XMLParseError(
                    f"invalid character reference &{name};", offset + index
                ) from None
        elif name in _ENTITIES:
            pieces.append(_ENTITIES[name])
            meter.expand(1, offset + index)
        else:
            raise XMLParseError(f"unknown entity {name!r}", offset + index)
        index = end + 1
    return "".join(pieces)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip whitespace, comments and processing instructions."""
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<!--"):
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.startswith("<?"):
            scanner.advance(2)
            scanner.read_until("?>")
        else:
            return


def _parse_attributes(scanner: _Scanner, element: XMLNode) -> None:
    while True:
        scanner.skip_whitespace()
        if scanner.at_end() or scanner.peek() in ">/":
            return
        name = scanner.read_name()
        scanner.meter.token(scanner.pos)
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in "\"'":
            raise XMLParseError("attribute value must be quoted", scanner.pos)
        scanner.advance()
        start = scanner.pos
        raw = scanner.read_until(quote)
        element.append_child(
            attr(name, _decode_entities(raw, start, scanner.meter))
        )


def _read_open_tag(scanner: _Scanner) -> tuple[XMLNode, bool]:
    """Read ``<name attrs...`` up to ``>`` or ``/>``.

    Returns the element and whether the tag was self-closing.
    """
    scanner.expect("<")
    name = scanner.read_name()
    scanner.meter.token(scanner.pos)
    element = XMLNode(name)
    _parse_attributes(scanner, element)
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.advance(2)
        return element, True
    scanner.expect(">")
    return element, False


def _parse_element(scanner: _Scanner, keep_whitespace: bool) -> XMLNode:
    """Parse one element and its whole subtree.

    Iterative (explicit stack of open elements), so arbitrarily deep
    documents parse without hitting the interpreter recursion limit.
    """
    meter = scanner.meter
    meter.enter(scanner.pos)
    root, closed = _read_open_tag(scanner)
    if closed:
        meter.leave()
        return root
    stack: list[XMLNode] = [root]
    buffers: list[list[str]] = [[]]

    def flush() -> None:
        buffer = buffers[-1]
        if not buffer:
            return
        joined = "".join(buffer)
        buffer.clear()
        if joined.strip() or keep_whitespace:
            stack[-1].append_child(text(joined))

    while stack:
        if scanner.at_end():
            raise XMLParseError(
                f"unclosed element <{stack[-1].label}>", scanner.pos
            )
        if scanner.startswith("</"):
            flush()
            scanner.advance(2)
            closing = scanner.read_name()
            if closing != stack[-1].label:
                raise XMLParseError(
                    f"mismatched end tag </{closing}> for <{stack[-1].label}>",
                    scanner.pos,
                )
            scanner.skip_whitespace()
            scanner.expect(">")
            stack.pop()
            buffers.pop()
            meter.leave()
        elif scanner.startswith("<!--"):
            flush()
            scanner.advance(4)
            scanner.read_until("-->")
        elif scanner.startswith("<![CDATA["):
            scanner.advance(9)
            buffers[-1].append(scanner.read_until("]]>"))
        elif scanner.startswith("<?"):
            flush()
            scanner.advance(2)
            scanner.read_until("?>")
        elif scanner.startswith("<"):
            flush()
            meter.enter(scanner.pos)
            child, child_closed = _read_open_tag(scanner)
            stack[-1].append_child(child)
            if child_closed:
                meter.leave()
            else:
                stack.append(child)
                buffers.append([])
        else:
            start = scanner.pos
            while not scanner.at_end() and scanner.peek() != "<":
                scanner.advance()
            meter.token(scanner.pos)
            buffers[-1].append(
                _decode_entities(
                    scanner.source[start : scanner.pos], start, meter
                )
            )
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
    scanner = _Scanner(source)
    try:
        scanner.meter = start_parse_meter(limits, source)
        _skip_misc(scanner)
        if scanner.startswith("<!DOCTYPE"):
            raise XMLParseError(
                "DOCTYPE declarations are not supported", scanner.pos
            )
        element = _parse_element(scanner, keep_whitespace)
        _skip_misc(scanner)
        if not scanner.at_end():
            raise XMLParseError(
                "trailing content after document element", scanner.pos
            )
    except ParseError as error:
        raise error.with_snippet(source) from None
    except (ValueError, IndexError, OverflowError) as error:
        # belt and braces: any scanner slip on adversarial input is
        # still reported as a parse error at the current offset
        raise XMLParseError(
            f"malformed XML: {error}",
            scanner.pos,
            source_snippet(source, scanner.pos),
        ) from error
    return element


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
