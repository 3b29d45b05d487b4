"""Differential oracle: the XML parser against the reference parser.

``reference_parser`` is the character-at-a-time parser the library used
before its scanner moved to ``str.find`` and compiled patterns.  On
every input the two must agree: the same tree (labels, values, shape
and parent links), or the same error class, message, position, snippet
and budget limit — so a guarded parse refuses hostile input at the same
offset for the same reason.  Both also make the same parse-meter calls
in the same order.

One divergence is allowed.  A start tag cut off right after ``=``
(``<a b=``) made the reference read one past the end of the input and
report "unterminated construct, expected ''" at ``len(source) + 1``;
the library reports "attribute value must be quoted" at
``len(source)``.
"""

import pytest

from repro.errors import ParseError, XMLParseError, source_snippet
from repro.limits import ParseBudget
from repro.workload.library import generate_library
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document
from tests.test_fuzz_parsers import (
    ADVERSARIAL_DOCUMENTS,
    GUARDS,
    VALID_DOCUMENTS,
    _mutants,
)
from tests.xmlmodel import reference_parser

MODES = {
    "bare": {},
    "keep_whitespace": {"keep_whitespace": True},
    "default_budget": {"limits": ParseBudget.default()},
    "fuzz_guards": {"limits": GUARDS},
}


def _shape(document):
    """Every node as (depth, label, value, child count), in preorder."""
    rows = []
    stack = [(document.root, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        assert node.parent is parent
        rows.append((depth, node.label, node.value, len(node.children)))
        stack.extend(
            (child, node, depth + 1) for child in reversed(node.children)
        )
    return rows


def _outcome(parse, source, options):
    try:
        return ("tree", _shape(parse(source, **options)))
    except ParseError as error:
        return (
            "error",
            type(error),
            error.message,
            error.position,
            error.snippet,
            getattr(error, "limit", None),
        )


def _assert_same(source, options):
    expected = _outcome(reference_parser.parse_document, source, options)
    actual = _outcome(parse_document, source, options)
    if expected[:3] == (
        "error", XMLParseError, "unterminated construct, expected ''"
    ):
        # the truncated-attribute divergence the module docstring names
        assert expected[3] == len(source) + 1, source
        expected = (
            "error",
            XMLParseError,
            "attribute value must be quoted",
            len(source),
            source_snippet(source, len(source)),
            None,
        )
    assert actual == expected, source


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(10))
def test_mutations_parse_as_the_reference_does(seed, mode):
    for source in _mutants(VALID_DOCUMENTS, seed):
        _assert_same(source, MODES[mode])


@pytest.mark.parametrize("mode", ["bare", "fuzz_guards"])
def test_adversarial_documents_parse_as_the_reference_does(mode):
    for source in ADVERSARIAL_DOCUMENTS:
        _assert_same(source, MODES[mode])


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
@pytest.mark.parametrize("mode", MODES)
def test_library_corpus_parses_as_the_reference_does(mode, indent):
    for seed in range(24):
        document = generate_library(
            books=1 + seed % 13, seed=seed, violate_title=seed % 5 == 0
        )
        _assert_same(serialize_document(document, indent=indent), MODES[mode])


class _RecordingMeter:
    """A parse meter that logs every call instead of enforcing caps."""

    def __init__(self):
        self.calls = []

    def token(self, position=None):
        self.calls.append(("token", position))

    def enter(self, position=None):
        self.calls.append(("enter", position))

    def leave(self):
        self.calls.append(("leave",))

    def expand(self, characters, position=None):
        self.calls.append(("expand", characters, position))


class _RecordingBudget:
    """Hands each parse a fresh :class:`_RecordingMeter`."""

    def start_parse(self, source):
        self.meter = _RecordingMeter()
        return self.meter


def _meter_calls(parse, source):
    budget = _RecordingBudget()
    try:
        parse(source, limits=budget)
    except ParseError:
        pass
    return budget.meter.calls


@pytest.mark.parametrize("seed", range(3))
def test_meter_sees_the_reference_calls_in_order(seed):
    sources = list(_mutants(VALID_DOCUMENTS, seed)) + [
        serialize_document(generate_library(books=3, seed=seed), indent=2),
        "<a>" + "&amp;&#65;" * 5 + '<b c="&lt;"/>x<![CDATA[y]]>z</a>',
    ]
    for source in sources:
        assert _meter_calls(parse_document, source) == _meter_calls(
            reference_parser.parse_document, source
        ), source


def test_truncated_attribute_is_reported_at_the_end_of_the_input():
    for source in ("<a b=", "<a b= ", "<a b =\n\t"):
        with pytest.raises(XMLParseError) as info:
            parse_document(source)
        assert info.value.message == "attribute value must be quoted"
        assert info.value.position == len(source)
        assert info.value.snippet == source_snippet(source, len(source))
