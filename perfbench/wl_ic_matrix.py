"""Workload ``ic-matrix``: the independence criterion over a schema
owner's matrix of FDs × update classes.

The inputs are texts, as ``repro-xml independence --matrix
--show-witness`` reads them: linear FDs over the library schema's paths
(one row each) against a fixed set of XPath update classes with ``//``
and ``*`` steps (the columns, in seeded order), under the library
schema.  The seed picks the book FDs; the columns and the two publisher
FDs are always the same, because a column's mean pair cost ranges from
12 to 78 ms and one publisher FD costs twice the other.  Book rows
still differ up to threefold, so a matrix has ten rows to average them.

Untraced, a run alternates two passes until its time is up:

* a matrix pass — clear the regex cache, parse the texts, run
  ``check_independence_matrix(schema=..., want_witness=True,
  parallelism=1)``;
* a pair pass — every cell again through ``check_independence``, the
  library front end, timing each pair.

A run makes at least three rounds.  The throughput is the cells over
the median matrix pass; the pair times are the latency samples.

Serial on purpose: on a two-CPU box, fan-out only shows how the
spawn-cost gate behaves.

Traced, one matrix pass is replayed as calls into the layers it runs:
parsing, trace/schema automaton construction, factor fixpoints, and per
cell ``explore_dangerous_factors`` once without the schema (a probe) and
once with it, so the schema-level product is the difference.  For
dependent cells a second probe without the witness isolates witness
construction.
"""

from __future__ import annotations

import dataclasses
import random
import time

from repro.fd.linear import LinearFD, translate_linear_fd
from repro.independence import (
    Verdict,
    check_independence,
    check_independence_matrix,
)
from repro.independence.language import explore_dangerous_factors
from repro.regex.cache import cache_stats, clear_caches
from repro.schema.automaton import schema_automaton
from repro.schema.dtd import Schema
from repro.tautomata.from_pattern import trace_automaton
from repro.tautomata.lazy import cached_factor
from repro.xpath.translate import update_class_from_xpath

import harness
from library_inputs import BOOK_PATHS, LIBRARY_SCHEMA, PUBLISHER_PATHS

NAME = "ic-matrix"
WHY = (
    "Seeded library FDs x XPath update classes under a schema, with "
    "witnesses; op: a matrix cell, point query: check_independence on "
    "one pair; loads regex, tautomata, independence; no store or serve."
)
IMPORTS = [
    "repro.fd.linear", "repro.independence", "repro.xpath.translate",
    "repro.schema.dtd",
]

#: the columns: every matrix has all of them, in seeded order
UPDATE_XPATHS = (
    "/library/book/price", "//title", "/library/*/city", "//review/grade",
    "/library/book/*", "//cites", "/library/book/review",
    "/library/publisher/@name", "//author", "/library/*/title",
    "/library/book/review/*", "//city",
)

#: both publisher FDs are rows of every matrix: one costs twice the
#: other, and a seeded pick of one moved a matrix's cost by about 9%
PUBLISHER_FDS = tuple(
    f"(/library, ((publisher/{condition}) -> publisher/{target}))"
    for condition, target in (PUBLISHER_PATHS, PUBLISHER_PATHS[::-1])
)

#: probes: work the traced replay adds to split a layer in two
PROBES = frozenset({"tautomata.flagged_product", "independence.witness_probe"})


#: FD rows of the benchmark's matrix and of the smallest one tests run
ROWS = 10
SMALLEST = 3
#: rounds a run makes at least: the throughput is a median of three
MIN_ROUNDS = 3


@dataclasses.dataclass
class Texts:
    fds: list[str]
    updates: list[str]
    schema: str


@dataclasses.dataclass
class Inputs:
    fds: list
    updates: list
    schema: Schema


def generate(seed: int, rows: int) -> Texts:
    """The matrix's texts: seeded book FD rows and both publisher FDs,
    in seeded order, and shuffled columns.

    Book rows alternate one and two conditions, so every seed draws the
    same mix of shapes.
    """
    rng = random.Random(seed)
    fds = list(PUBLISHER_FDS)
    while len(fds) < rows:
        conditions = 1 + (len(fds) - len(PUBLISHER_FDS)) % 2
        chosen = rng.sample(BOOK_PATHS, conditions + 1)
        condition = ", ".join(f"book/{path}" for path in chosen[:-1])
        text = f"(/library, (({condition}) -> book/{chosen[-1]}))"
        if text not in fds:
            fds.append(text)
    rng.shuffle(fds)
    updates = list(UPDATE_XPATHS)
    rng.shuffle(updates)
    return Texts(fds=fds, updates=updates, schema=LIBRARY_SCHEMA)


def parse(texts: Texts) -> Inputs:
    """Parse the texts with the CLI's names (``fd1``…, ``u1``…)."""
    return Inputs(
        fds=[
            translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
            for index, text in enumerate(texts.fds)
        ],
        updates=[
            update_class_from_xpath(xpath, name=f"u{index + 1}")
            for index, xpath in enumerate(texts.updates)
        ],
        schema=Schema.parse_text(texts.schema),
    )


def matrix_pass(texts: Texts):
    """One fresh ``independence --matrix --show-witness`` run."""
    clear_caches(reset_stats=True)
    inputs = parse(texts)
    matrix = check_independence_matrix(
        inputs.fds,
        inputs.updates,
        schema=inputs.schema,
        want_witness=True,
        parallelism=1,
    )
    return inputs, matrix


def pair_pass(texts: Texts) -> tuple[list, list[float]]:
    """Every pair through ``check_independence``; results and ms each."""
    clear_caches(reset_stats=True)
    inputs = parse(texts)
    results, millis = [], []
    for fd in inputs.fds:
        for update in inputs.updates:
            started = time.perf_counter()
            result = check_independence(
                fd, update, schema=inputs.schema, want_witness=True
            )
            millis.append((time.perf_counter() - started) * 1000.0)
            results.append(result)
    return results, millis


def check_round(outcome: harness.Outcome, inputs: Inputs, matrix, results):
    """The oracle: matrix cells equal the per-pair verdicts, cell for
    cell, nothing is UNKNOWN, and every witness is schema-valid."""
    cells = [cell for row in matrix.cells for cell in row]
    for cell, result in zip(cells, results, strict=True):
        where = f"cell ({cell.row},{cell.column})"
        decided = cell.verdict is not Verdict.UNKNOWN
        same = cell.verdict is result.verdict
        witness_ok = (cell.witness is None) == (
            cell.verdict is Verdict.INDEPENDENT
        ) and (cell.witness is None or inputs.schema.is_valid(cell.witness))
        outcome.count(
            decided and same and witness_ok,
            f"{where}: matrix {cell.verdict.value}, pair "
            f"{result.verdict.value}, witness ok {witness_ok}",
        )
        pair_witness_ok = result.witness is None or inputs.schema.is_valid(
            result.witness
        )
        outcome.count(
            result.verdict is not Verdict.UNKNOWN and pair_witness_ok,
            f"{where}: pair {result.verdict.value}, "
            f"witness ok {pair_witness_ok}",
        )


def describe(matrix) -> dict:
    """Workload shape: cells, verdict split, eager cells, witnesses."""
    cells = [cell for row in matrix.cells for cell in row]
    split: dict[str, int] = {}
    for cell in cells:
        split[cell.verdict.value] = split.get(cell.verdict.value, 0) + 1
    return {
        "rows": len(matrix.row_names),
        "columns": len(matrix.column_names),
        "cells": len(cells),
        "verdicts": split,
        "eager_cells": sum(
            cell.exploration is None and cell.decided for cell in cells
        ),
        "witnesses": sum(cell.witness is not None for cell in cells),
    }


def replay(texts: Texts, recorder: harness.SpanRecorder) -> None:
    """One matrix pass as calls into each layer, one span per call."""
    span = recorder.span
    with span("bench.matrix_pass"):
        clear_caches(reset_stats=True)
        with span("fd.parse"):
            fds = [
                translate_linear_fd(LinearFD.parse(text, name=f"fd{i + 1}"))
                for i, text in enumerate(texts.fds)
            ]
        with span("xpath.parse"):
            updates = [
                update_class_from_xpath(xpath, name=f"u{i + 1}")
                for i, xpath in enumerate(texts.updates)
            ]
        with span("schema.parse"):
            schema = Schema.parse_text(texts.schema)
        alphabet = set(schema.alphabet())
        for item in [*fds, *updates]:
            alphabet |= item.pattern.template.alphabet()
        alphabet = frozenset(alphabet)
        with span("tautomata.construct"):
            fd_automata = [
                trace_automaton(fd.pattern, alphabet, track_regions=True)
                for fd in fds
            ]
            update_automata = [
                trace_automaton(update.pattern, alphabet)
                for update in updates
            ]
            schema_hedge = schema_automaton(schema)
        factors: dict = {}
        with span("tautomata.factor"):
            for automaton in [*fd_automata, *update_automata]:
                cached_factor(automaton.automaton, cache=factors)
            cached_factor(schema_hedge, cache=factors)
        for fd_automaton in fd_automata:
            for update_automaton in update_automata:
                with span("tautomata.flagged_product"):
                    explore_dangerous_factors(
                        fd_automaton, update_automaton,
                        factor_cache=factors,
                    )
                with span("tautomata.schema_product") as cell_span:
                    explored = explore_dangerous_factors(
                        fd_automaton, update_automaton, schema_hedge,
                        want_witness=True, factor_cache=factors,
                    )
                    cell_span.set_attribute("dependent", not explored.empty)
                if not explored.empty:
                    with span("independence.witness_probe"):
                        explore_dangerous_factors(
                            fd_automaton, update_automaton, schema_hedge,
                            want_witness=False, factor_cache=factors,
                        )


def prepare(seed: int, rows: int) -> Texts:
    """Set-up: generate the texts and parse them once."""
    texts = generate(seed, rows)
    parse(texts)
    return texts


def run(
    seed: int,
    seconds: float,
    paths: harness.RunPaths,
    trace: bool,
    size: int = ROWS,
) -> harness.Outcome:
    outcome = harness.Outcome()
    setup = []
    for _ in range(harness.SETUP_REPEATS):
        texts, elapsed = harness.collect_and_time(prepare, seed, size)
        setup.append(elapsed)
    if trace:
        return _traced(outcome, texts, paths)
    setup_s = harness.import_seconds(paths.src, IMPORTS) + harness.median(
        setup
    )

    matrix_seconds: list[float] = []
    pair_ms: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(matrix_seconds) < MIN_ROUNDS or time.perf_counter() < deadline:
        (inputs, matrix), elapsed = harness.collect_and_time(
            matrix_pass, texts
        )
        matrix_seconds.append(elapsed)
        (results, millis), _ = harness.collect_and_time(pair_pass, texts)
        pair_ms.extend(millis)
        check_round(outcome, inputs, matrix, results)
    cells = len(texts.fds) * len(texts.updates)
    outcome.info["shape"] = describe(matrix)
    outcome.info["samples"] = {"matrix_passes": len(matrix_seconds)}
    harness.report_end_to_end(
        outcome,
        setup_s,
        harness.own_peak_rss_mb(),
        cells / harness.median(matrix_seconds),
        pair_ms,
    )
    return outcome


def _traced(outcome, texts, paths) -> harness.Outcome:
    inputs, matrix = matrix_pass(texts)
    results, _ = pair_pass(texts)
    check_round(outcome, inputs, matrix, results)
    # timed after one warm pass, as the replay below runs warm too
    (inputs, matrix), untraced = harness.collect_and_time(matrix_pass, texts)
    misses = cache_stats()["compile"]["misses"]

    recorder = harness.SpanRecorder(PROBES)
    _, traced = harness.collect_and_time(replay, texts, recorder)
    records = recorder.write_jsonl(paths.trace_file)
    layer = harness.self_ms(records)
    dependent = [
        record for record in records
        if record.get("attributes", {}).get("dependent")
    ]
    witness_ms = max(
        0.0,
        harness.self_ms(dependent).get("tautomata.schema_product", 0.0)
        - layer.get("independence.witness_probe", 0.0),
    )
    cells = [cell for row in matrix.cells for cell in row]
    explored = [cell.exploration for cell in cells if cell.exploration]
    shape = describe(matrix)
    outcome.info["shape"] = shape
    layer["independence.witness"] = witness_ms
    layer["tautomata.schema_product"] = max(
        0.0,
        layer["tautomata.schema_product"]
        - witness_ms
        - layer["tautomata.flagged_product"],
    )
    explored_rules = sum(stats.explored_rules for stats in explored)
    counts = {
        "regex.compile_misses": misses,
        "tautomata.explored_rules": explored_rules,
        "tautomata.explored_fraction": explored_rules
        / max(1, sum(stats.worst_case_rules for stats in explored)),
        "independence.eager_cells": shape["eager_cells"],
        "independence.dependent_cells": shape["verdicts"].get(
            Verdict.POSSIBLY_DEPENDENT.value, 0
        ),
    }
    harness.report_layers(
        outcome, recorder, layer, counts, (traced, untraced, untraced)
    )
    return outcome
