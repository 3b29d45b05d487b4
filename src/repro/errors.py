"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
downstream code can catch library failures with a single ``except`` clause
while still being able to distinguish parse errors from semantic ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


def source_snippet(source: str, position: int, radius: int = 24) -> str:
    """The slice of ``source`` around ``position``, for diagnostics.

    Ellipses mark truncation on either side; control characters are
    escaped so the snippet always stays a clean one-liner.
    """
    start = max(0, position - radius)
    end = min(len(source), position + radius)
    window = source[start:end]
    prefix = "..." if start > 0 else ""
    suffix = "..." if end < len(source) else ""
    clean = "".join(
        char if char.isprintable() and char not in "\r\n\t" else " "
        for char in window
    )
    return f"{prefix}{clean}{suffix}"


class ParseError(ReproError):
    """Malformed input text rejected by one of the front-end parsers.

    Every parser of the library — XML documents, label regexes,
    CoreXPath expressions, schema files — reports malformed input with
    a subclass of this error, carrying the byte ``position`` of the
    problem and a short ``snippet`` of the offending text.  Nothing
    else may escape a parser on bad input (the fuzz suite enforces
    this), so callers and the CLI can render a clean one-line
    diagnostic without catching ``ValueError``/``IndexError`` soup.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        snippet: str | None = None,
    ) -> None:
        self.message = message
        self.position = position
        self.snippet = snippet
        rendered = message
        if position is not None:
            rendered = f"{rendered} (at offset {position})"
        if snippet is not None:
            rendered = f"{rendered} near {snippet!r}"
        super().__init__(rendered)

    def with_snippet(self, source: str) -> "ParseError":
        """This error enriched with a snippet cut from ``source``.

        Entry points call this once on the way out, so inner raise
        sites only need a message and an offset.  No-op when the error
        already carries a snippet or has no position.
        """
        if self.snippet is not None or self.position is None:
            return self
        return type(self)(
            self.message, self.position, source_snippet(source, self.position)
        )


class ParseLimitError(ParseError):
    """Untrusted input exceeded a :class:`repro.limits.ParseBudget` cap.

    The guard layer of the front-end parsers: hostile or pathological
    input (multi-megabyte blobs, nesting bombs, entity floods, token
    floods) must surface as a *structured* parse error — position,
    snippet, the exceeded ``dimension`` and its ``limit`` — never as a
    raw ``RecursionError``/``MemoryError`` from parser internals.  One
    subclass per budget dimension, so callers can tell "the text is
    malformed" (other :class:`ParseError` subclasses) apart from "the
    text was refused for its size/shape" (this family) and audit front
    ends can classify the finding.
    """

    #: which :class:`~repro.limits.ParseBudget` dimension was exceeded
    dimension = "limit"

    def __init__(
        self,
        message: str,
        limit: float | int | None = None,
        position: int | None = None,
        snippet: str | None = None,
    ) -> None:
        self.limit = limit
        super().__init__(message, position, snippet)

    def with_snippet(self, source: str) -> "ParseLimitError":
        if self.snippet is not None or self.position is None:
            return self
        return type(self)(
            self.message,
            self.limit,
            self.position,
            source_snippet(source, self.position),
        )


class InputSizeLimitError(ParseLimitError):
    """The input text exceeds the budget's byte/character cap."""

    dimension = "input-bytes"


class DepthLimitError(ParseLimitError):
    """Nesting exceeds the budget's depth cap (or the structural rail
    that keeps recursive-descent parsers clear of ``RecursionError``)."""

    dimension = "depth"


class TokenLimitError(ParseLimitError):
    """The input contains more tokens than the budget allows."""

    dimension = "tokens"


class EntityExpansionLimitError(ParseLimitError):
    """Entity/character references expand past the budget's allowance."""

    dimension = "entity-expansion"


class XMLModelError(ReproError):
    """Violation of the tree-domain document model (Section 2.1)."""


class XMLParseError(ParseError):
    """Raised when XML text cannot be parsed into a document."""


class RegexError(ReproError):
    """Base class for regular-expression layer errors."""


class RegexParseError(RegexError, ParseError):
    """Raised when a regular expression over labels cannot be parsed."""


class ImproperRegexError(RegexError):
    """Raised when a pattern edge regex accepts the empty word.

    Definition 1 of the paper requires every edge expression to be
    *proper*: its language must not contain the empty word.
    """


class PatternError(ReproError):
    """Structural error in a regular tree pattern (Definition 1)."""


class FDError(ReproError):
    """Structural error in an XML functional dependency (Definition 4)."""


class UpdateError(ReproError):
    """Error in an update class or a concrete update operation.

    ``update_name`` names the offending :class:`repro.update.apply.Update`
    when the error arose while applying one (performer crash, timeout,
    or invalid performer output), so batch drivers can report exactly
    which update of a transaction failed.
    """

    def __init__(self, message: str, update_name: str | None = None) -> None:
        super().__init__(message)
        self.update_name = update_name


class SchemaError(ReproError):
    """Error in a schema definition or its compilation to an automaton."""


class SchemaParseError(SchemaError, ParseError):
    """Raised when schema text cannot be parsed into a :class:`Schema`.

    Subclasses both :class:`SchemaError` (callers catching semantic
    schema trouble keep working) and :class:`ParseError` (the malformed
    -input contract: position + snippet, one-line CLI rendering).
    """


class AutomatonError(ReproError):
    """Structural error in a word or hedge automaton."""


class XPathError(ReproError):
    """Error while parsing or translating a CoreXPath expression."""


class XPathParseError(XPathError, ParseError):
    """Raised when CoreXPath text cannot be parsed (position + snippet)."""


class IndependenceError(ReproError):
    """Error while setting up an update-FD independence analysis.

    Most prominently raised when the update class does not satisfy the
    paper's restriction that every updated node is a leaf of the update
    template (Section 5).
    """


class ResumeMismatchError(ReproError):
    """A checkpoint's manifest does not match the resuming run's inputs.

    Splicing journaled verdicts into a run that asks different
    questions (other FDs, another schema, a different budget or
    strategy, new code) would certify cells that were never computed —
    so ``resume`` refuses, structurally: ``mismatches`` lists every
    ``(field, stored, current)`` difference between the checkpoint's
    :class:`~repro.persistence.manifest.RunManifest` and the one built
    from the current inputs.  Start a fresh run (or point at the right
    checkpoint directory) to proceed.
    """

    def __init__(
        self, mismatches: list[tuple[str, object, object]]
    ) -> None:
        self.mismatches = list(mismatches)
        fields = ", ".join(field for field, _, _ in self.mismatches)
        super().__init__(
            f"checkpoint inputs differ from the current run in: {fields}; "
            f"refusing to splice cells from a different analysis"
        )


class StoreError(ReproError):
    """Error raised by the corpus storage layer (:mod:`repro.store`).

    Covers malformed stored document bodies, unusable or old-layout
    database files, unsupported store locations, and misuse of the
    :class:`~repro.store.corpus.CorpusStore` API.
    """
