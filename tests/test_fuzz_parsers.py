"""Mini-fuzz for every textual parser: mutate valid inputs, demand that
nothing but :class:`~repro.errors.ParseError` ever escapes.

The error-hardening contract of the front ends is *total*: malformed
input of any shape surfaces as a structured ``ParseError`` subclass
(with position and snippet where available) — never a bare
``ValueError``/``IndexError``/``KeyError``/``RecursionError`` from
parser internals, which the CLI would render as a traceback.  Each
parser gets a couple hundred seeded random mutations of known-valid
inputs; a successful parse is fine (many mutations stay well-formed),
any non-ParseError exception is the bug.
"""

import random

import pytest

from repro.errors import ParseError
from repro.regex.parser import parse_regex
from repro.schema.dtd import Schema
from repro.xmlmodel.parser import parse_document
from repro.xpath.parser import parse_xpath

MUTATIONS_PER_SEED = 200

#: characters the grammars care about, over-represented on purpose
SPECIALS = "<>&;()[]*|/@#\"'= !?+.-{},:\\\n\t"


VALID_DOCUMENTS = [
    '<library><book isbn="12"><title>AI</title></book></library>',
    "<session><candidate><level>3</level><exam/></candidate></session>",
    "<a><b>x &amp; y</b><b>&#65;</b><c/></a>",
    '<r one="1" two="&quot;2&quot;"><!-- note --><t>text</t></r>',
]

VALID_REGEXES = [
    "a b* (c | d)+",
    "@IDN level exam* (toBePassed | firstJob-Year)",
    "(a | b)* c? #text",
    "library.book price",
]

VALID_XPATHS = [
    "/library/book/title",
    "/session//candidate/exam",
    "//book/@isbn",
    "/a/b[c]/d",
]

VALID_SCHEMAS = [
    "!document library\nlibrary := book*\nbook := @isbn title\n"
    "title := #text",
    "# comment\nsession := candidate*\ncandidate := level exam*\n"
    "level := #text\nexam := #text",
]


def _mutate(rng: random.Random, source: str) -> str:
    """One random edit: delete/insert/replace/duplicate/truncate."""
    operation = rng.randrange(5)
    if not source:
        return rng.choice(SPECIALS)
    position = rng.randrange(len(source))
    if operation == 0:  # delete a slice
        end = min(len(source), position + rng.randrange(1, 4))
        return source[:position] + source[end:]
    if operation == 1:  # insert special characters
        payload = "".join(
            rng.choice(SPECIALS) for _ in range(rng.randrange(1, 4))
        )
        return source[:position] + payload + source[position:]
    if operation == 2:  # replace one character
        return source[:position] + rng.choice(SPECIALS) + source[position + 1 :]
    if operation == 3:  # duplicate a slice
        end = min(len(source), position + rng.randrange(1, 8))
        return source[:position] + source[position:end] + source[position:]
    return source[:position]  # truncate


def _mutants(seeds, seed):
    """``MUTATIONS_PER_SEED`` inputs, each 1-3 random edits of a seed."""
    rng = random.Random(seed)
    for _ in range(MUTATIONS_PER_SEED):
        source = rng.choice(seeds)
        for _ in range(rng.randrange(1, 4)):
            source = _mutate(rng, source)
        yield source


def _fuzz(parse, seeds, seed):
    for source in _mutants(seeds, seed):
        try:
            parse(source)
        except ParseError:
            pass  # the structured refusal we demand
        except Exception as error:  # pragma: no cover - the failure path
            pytest.fail(
                f"{parse.__name__} leaked {type(error).__name__}: {error!r} "
                f"on input {source!r}"
            )


@pytest.mark.parametrize("seed", range(3))
def test_xml_parser_only_raises_parse_errors(seed):
    _fuzz(parse_document, VALID_DOCUMENTS, seed)


@pytest.mark.parametrize("seed", range(3))
def test_regex_parser_only_raises_parse_errors(seed):
    _fuzz(parse_regex, VALID_REGEXES, seed)


@pytest.mark.parametrize("seed", range(3))
def test_xpath_parser_only_raises_parse_errors(seed):
    _fuzz(parse_xpath, VALID_XPATHS, seed)


@pytest.mark.parametrize("seed", range(3))
def test_schema_parser_only_raises_parse_errors(seed):
    _fuzz(Schema.parse_text, VALID_SCHEMAS, seed)


def test_parse_errors_carry_position_and_snippet():
    """The diagnostics the CLI renders: offset + source snippet."""
    with pytest.raises(ParseError) as excinfo:
        parse_document("<a><b></a>")
    assert excinfo.value.position is not None
    assert excinfo.value.snippet is not None
    assert "near" in str(excinfo.value)


# ----------------------------------------------------------------------
# adversarial corpora: crafted hostile inputs, guarded and unguarded
# ----------------------------------------------------------------------
#
# Where the mutation fuzz covers the malformed-input space statistically,
# these inputs are *engineered* against the parsers' resource use: deep
# nesting (stack), megabyte-scale attribute values (memory/time),
# pathological entity strings (expansion floods), and truncated
# multi-byte UTF-8.  Under guards (a ParseBudget) they must surface as
# the structured ParseLimitError family; unguarded they must still obey
# the only-ParseError contract.

from repro.errors import ParseLimitError  # noqa: E402
from repro.limits import ParseBudget  # noqa: E402

GUARDS = ParseBudget(
    max_input_bytes=1 << 20,
    max_depth=200,
    max_tokens=100_000,
    max_entity_expansion=4.0,
)

ADVERSARIAL_DOCUMENTS = [
    "<a>" * 10_000 + "</a>" * 10_000,  # deep nesting
    "<a>" * 10_000,  # deep nesting, truncated
    '<a b="' + "x" * 2_000_000 + '"/>',  # megabyte-scale attribute value
    "<a>" + "&amp;" * 50_000 + "</a>",  # entity flood
    "<a>" + "&#65;" * 50_000 + "</a>",  # character-reference flood
    "<a>&amp" + ";" * 3 + "&bogus;&#xZZ;&#; &#999999999;</a>",  # broken refs
    b"<p>caf\xc3</p>".decode("utf-8", errors="surrogateescape"),
    "<a " + " ".join(f'x{i}="v"' for i in range(60_000)) + "/>",  # attr flood
]

ADVERSARIAL_REGEXES = [
    "(" * 10_000 + "a" + ")" * 10_000,
    "(" * 10_000,
    "a " * 500_000,
    "a" + "*" * 10_000,
]

ADVERSARIAL_XPATHS = [
    "/a" + "[b" * 10_000 + "]" * 10_000,
    "/a" + "[b" * 10_000,
    "/" + "/".join("step" for _ in range(300_000)),
]

ADVERSARIAL_SCHEMAS = [
    "a := " + "(" * 10_000 + "b" + ")" * 10_000,
    "\n".join(f"e{i} := #text" for i in range(200_000)),
]


def _assert_only_parse_errors(parse, sources, limits):
    for source in sources:
        try:
            if limits is None:
                parse(source)
            else:
                parse(source, limits=limits)
        except ParseError:
            pass
        except Exception as error:  # pragma: no cover - the failure path
            pytest.fail(
                f"{parse.__name__} leaked {type(error).__name__}: {error!r} "
                f"on adversarial input of {len(source)} chars"
            )


@pytest.mark.parametrize(
    "parse, sources",
    [
        (parse_document, ADVERSARIAL_DOCUMENTS),
        (parse_regex, ADVERSARIAL_REGEXES),
        (parse_xpath, ADVERSARIAL_XPATHS),
        (Schema.parse_text, ADVERSARIAL_SCHEMAS),
    ],
    ids=["xml", "regex", "xpath", "schema"],
)
@pytest.mark.parametrize("guarded", [False, True], ids=["bare", "guarded"])
def test_adversarial_inputs_only_raise_parse_errors(parse, sources, guarded):
    _assert_only_parse_errors(parse, sources, GUARDS if guarded else None)


def test_guards_refuse_adversarial_inputs_structurally():
    """Under guards, each engineered input trips a ParseLimitError (not
    merely any ParseError): the audit front end classifies these as
    budget findings, so the subclass matters."""
    cases = [
        (parse_document, "<a>" * 10_000 + "</a>" * 10_000),
        (parse_document, '<a b="' + "x" * 2_000_000 + '"/>'),
        (parse_document, "<a>" + "&amp;" * 900_000 + "</a>"),
        (parse_regex, "(" * 10_000 + "a" + ")" * 10_000),
        (parse_xpath, "/a" + "[b" * 10_000 + "]" * 10_000),
        (Schema.parse_text, "a := " + "(" * 10_000 + "b" + ")" * 10_000),
    ]
    for parse, source in cases:
        with pytest.raises(ParseLimitError):
            parse(source, limits=GUARDS)


# ----------------------------------------------------------------------
# the event stream: the parser's scanner, so the parser's refusals
# ----------------------------------------------------------------------

from repro.xmlmodel.events import iter_events, parse_events  # noqa: E402


def _assert_stream_matches_parser(source):
    """``parse_events`` streams the tree ``parse_document`` builds, or
    raises the parser's error — with position and snippet — and nothing
    else."""
    try:
        expected = list(iter_events(parse_document(source)))
    except ParseError as error:
        expected = error
    try:
        actual = list(parse_events(source))
    except ParseError as error:
        assert error.position is not None, source
        assert error.snippet is not None, source
        assert isinstance(expected, ParseError), source
        assert (
            type(error), error.message, error.position, error.snippet
        ) == (
            type(expected), expected.message, expected.position,
            expected.snippet,
        ), source
        return
    except Exception as error:  # pragma: no cover - the failure path
        pytest.fail(
            f"parse_events leaked {type(error).__name__}: {error!r} "
            f"on input {source!r}"
        )
    assert actual == expected, source


@pytest.mark.parametrize("seed", range(3))
def test_event_stream_fails_as_the_parser_does(seed):
    for source in _mutants(VALID_DOCUMENTS, seed):
        _assert_stream_matches_parser(source)


def test_event_stream_refuses_adversarial_inputs_as_the_parser_does():
    for source in ADVERSARIAL_DOCUMENTS:
        _assert_stream_matches_parser(source)
