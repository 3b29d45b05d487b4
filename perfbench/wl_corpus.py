"""Workload ``corpus``: a library corpus through the store and the
audit front end.

Set-up writes a seeded corpus with ``generate_library``: most documents
hold one to three books, a fixed share is a tail of 12 to 24 books, and
a fixed share are seeded violators of ``isbn -> title``.  The seed decides
which file gets which shape and every document's content; the mix is
the same for every seed.

Untraced, a run repeats one pass until its time is up.  The five
commands of a pass are each timed, and the throughput is the documents
over the sum of their medians over passes:

1. ``CorpusStore.load_paths`` into a fresh SQLite store with
   ``ParseBudget.default()``, as ``repro-xml corpus load`` does;
2. a cold ``check_fd_corpus``, which indexes and persists FD state;
3. close, then several times: reopen and a warm ``check_fd_corpus``
   answered from the persisted state;
4. reopen and ``apply_guarded_corpus`` with one IC-certified update
   class (prices) and one dangerous one (titles);
5. ``audit_corpus`` over the same files with schema, FDs and update
   classes, with options built as ``repro-xml audit`` builds them.

Between apply and audit, every stored document is read back once with
``CorpusStore.get_document``, each read timed: the latency samples.

Traced, one pass is replayed as calls into each layer's public
functions (parser, encoder, backend, FD index, update batch, schema,
pattern matcher), one span per call.  An unguarded parse of each
document is the one probe: it prices the parse guards.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import time
from pathlib import Path

from repro.audit import AuditOptions, audit_corpus, discover_corpus
from repro.audit.findings import ERROR_KINDS, FD_VIOLATION
from repro.fd.index import FDIndex
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.fd.satisfaction import check_fd
from repro.independence import Verdict, check_independence_matrix
from repro.limits import ParseBudget
from repro.pattern.engine import enumerate_mappings
from repro.schema.dtd import Schema
from repro.store import (
    CorpusStore,
    FDIndexState,
    SqliteBackend,
    decode_document,
    encode_document,
    fingerprint_fd,
)
from repro.update.apply import Update
from repro.update.batch import UpdateBatch
from repro.update.operations import set_text
from repro.workload.library import generate_library
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document
from repro.xpath.parser import parse_xpath
from repro.xpath.translate import update_class_from_xpath

import harness
from library_inputs import ISBN_TITLE, LIBRARY_SCHEMA, PUBLISHER_CITY

NAME = "corpus"
WHY = (
    "Seeded library corpus loaded, FD-checked cold and warm, updated, "
    "read back and audited; op: a document, point query: get_document; "
    "loads xmlmodel, limits, store, fd, pattern, update, schema, audit."
)
IMPORTS = ["repro.store", "repro.audit", "repro.workload.library"]

FDS = (ISBN_TITLE, PUBLISHER_CITY)
#: ``corpus apply --set XPATH=VALUE``: certified, then dangerous
SETS = (("/library/book/price", "42"), ("/library/book/title", "Retitled"))

PROBES = frozenset({"xmlmodel.parse_unguarded"})

#: ``repro-xml corpus load``'s transaction size
CHUNK_SIZE = 64
PHASES = ("load", "check_cold", "check_warm", "apply", "audit")


#: documents of the benchmark's corpus and of the smallest one tests run
DOCUMENTS = 240
SMALLEST = 12
#: a twentieth of the documents is the tail; the rest hold one to three
#: books, so the p50 and p90 reads fall inside the two- and three-book
#: documents, away from the edges between document sizes
TAIL_SHARE = 0.05
VIOLATOR_SHARE = 0.05
#: warm checks per pass, each after its own reopen (a warm check is short)
WARM_REPEATS = 5
MIN_PASSES = 3


@dataclasses.dataclass
class Corpus:
    directory: Path
    violators: frozenset[str]  # file names
    input_bytes: int
    books: dict[str, int]  # file name -> books


@dataclasses.dataclass
class Inputs:
    fds: list
    updates: list
    schema: Schema
    audit: AuditOptions


def write_corpus(seed: int, directory: Path, documents: int) -> Corpus:
    """Write the seeded corpus; returns its shape and the violators."""
    rng = random.Random(seed)
    order = list(range(documents))
    rng.shuffle(order)
    tail = max(1, round(documents * TAIL_SHARE))
    violators = max(1, round(documents * VIOLATOR_SHARE))
    directory.mkdir(parents=True)
    shape: dict[str, int] = {}
    bad: set[str] = set()
    total = 0
    for rank, index in enumerate(order):
        name = f"doc{index:05d}.xml"
        books = 12 + rank % 13 if rank < tail else 1 + rank % 3
        violate = tail <= rank < tail + violators
        document = generate_library(
            books=books,
            seed=rng.randrange(1 << 30),
            violate_title=1 if violate else 0,
        )
        data = serialize_document(document).encode("utf-8")
        (directory / name).write_bytes(data)
        total += len(data)
        shape[name] = books
        if violate:
            bad.add(name)
    return Corpus(directory, frozenset(bad), total, shape)


def build_inputs() -> Inputs:
    """FDs, updates, schema and audit options, as the CLI builds them."""
    budget = ParseBudget.default()
    fds = [
        translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
        for index, text in enumerate(FDS)
    ]
    updates = [
        Update(
            update_class_from_xpath(xpath, name=f"u{index + 1}"),
            set_text(value),
            name=f"set{index + 1}",
        )
        for index, (xpath, value) in enumerate(SETS)
    ]
    schema = Schema.parse_text(LIBRARY_SCHEMA)
    audit = AuditOptions(
        schema=Schema.parse_text(LIBRARY_SCHEMA, limits=budget),
        fds=tuple(fds),
        update_classes=tuple(
            update_class_from_xpath(
                parse_xpath(xpath, limits=budget), name=f"u{index + 1}"
            )
            for index, (xpath, _) in enumerate(SETS)
        ),
        parse_budget=budget,
        recursive=True,
        max_violations=5,
    )
    return Inputs(fds, updates, schema, audit)


def store_bytes(db: Path) -> int:
    return sum(
        os.path.getsize(path)
        for path in (db, Path(f"{db}-wal"))
        if path.exists()
    )


def remove_store(db: Path) -> None:
    for path in (db, Path(f"{db}-wal"), Path(f"{db}-shm")):
        if path.exists():
            path.unlink()


def pipeline_pass(
    corpus: Corpus, inputs: Inputs, db: Path, warm_repeats: int
) -> tuple[dict[str, list[float]], dict]:
    """One pass of the five commands and the point reads; seconds per
    command (per document for ``point_read``) and the reports."""
    remove_store(db)
    seconds: dict[str, list[float]] = {
        phase: [] for phase in (*PHASES, "point_read")
    }
    reports: dict = {}
    store = CorpusStore(SqliteBackend(db))
    try:
        reports["load"], elapsed = harness.collect_and_time(
            store.load_paths,
            [str(corpus.directory)],
            recursive=True,
            parse_budget=ParseBudget.default(),
            chunk_size=CHUNK_SIZE,
        )
        seconds["load"].append(elapsed)
        reports["check_cold"], elapsed = harness.collect_and_time(
            store.check_fd_corpus, inputs.fds
        )
        seconds["check_cold"].append(elapsed)
    finally:
        store.close()
    reports["store_bytes"] = store_bytes(db)
    for _ in range(warm_repeats):
        with CorpusStore(SqliteBackend(db)) as store:
            reports["check_warm"], elapsed = harness.collect_and_time(
                store.check_fd_corpus, inputs.fds
            )
            seconds["check_warm"].append(elapsed)
    with CorpusStore(SqliteBackend(db)) as store:
        reports["apply"], elapsed = harness.collect_and_time(
            store.apply_guarded_corpus,
            inputs.updates,
            fds=inputs.fds,
            schema=inputs.schema,
        )
        seconds["apply"].append(elapsed)
        reports["rows"] = sum(
            store.stats()[table] for table in ("nodes", "edges", "attrs")
        )
    reports["point_read"] = {}
    with CorpusStore(SqliteBackend(db)) as store:
        gc.collect()
        for name in store.document_names():
            started = time.perf_counter()
            document = store.get_document(name)
            seconds["point_read"].append(time.perf_counter() - started)
            reports["point_read"][name] = document
    reports["audit"], elapsed = harness.collect_and_time(
        audit_corpus, [str(corpus.directory)], inputs.audit
    )
    seconds["audit"].append(elapsed)
    return seconds, reports


def check_pass(outcome: harness.Outcome, corpus: Corpus, reports: dict):
    """The oracle, one operation per document and phase."""
    names = sorted(corpus.books)
    load = reports["load"]
    load_failed = {Path(finding.path).name for finding in load.findings}
    for name in names:
        outcome.count(name not in load_failed, f"load {name}")
    outcome.count(
        load.loaded == len(names) and load.errors == 0,
        f"load: {load.loaded} loaded, {load.errors} errors",
    )
    cold = {Path(d.name).name: d.status for d in reports["check_cold"].documents}
    warm = {Path(d.name).name: d.status for d in reports["check_warm"].documents}
    for name in names:
        expected = "violated" if name in corpus.violators else "satisfied"
        outcome.count(cold.get(name) == expected, f"cold {name}: {cold.get(name)}")
        outcome.count(warm.get(name) == expected, f"warm {name}: {warm.get(name)}")
    applied = {Path(d.name).name: d for d in reports["apply"].documents}
    for name in names:
        # retitling every book makes isbn -> title hold everywhere, so
        # every document commits; a rollback is a wrong status
        record = applied.get(name)
        outcome.count(
            record is not None and record.committed,
            f"apply {name}: {record}",
        )
    read = {Path(name).name: doc for name, doc in reports["point_read"].items()}
    for name in names:
        books = read_back(read.get(name))
        # a violator carries one more book, the one breaking isbn -> title
        expected = corpus.books[name] + (name in corpus.violators)
        outcome.count(
            len(books) == expected
            and all(
                title == "Retitled" and prices <= {"42"}
                for title, prices in books
            ),
            f"get_document {name}: {len(books)} books",
        )
    audited = {Path(d.path).name: d for d in reports["audit"].documents}
    for name in names:
        report = audited.get(name)
        kinds = {f.kind for f in report.findings} if report else set()
        outcome.count(
            report is not None
            and (FD_VIOLATION in kinds) == (name in corpus.violators)
            and not kinds & ERROR_KINDS,
            f"audit {name}: {sorted(kinds)}",
        )


def read_back(document) -> list[tuple[str, set[str]]]:
    """The title and the set of price texts of every book."""
    if document is None:
        return []
    return [
        (
            book.find("title").text_value(),
            {price.text_value() for price in book.find_all("price")},
        )
        for book in document.document_element.find_all("book")
    ]


def describe(corpus: Corpus) -> dict:
    """Workload shape: documents, input bytes, size histogram, violators."""
    histogram: dict[str, int] = {}
    for books in corpus.books.values():
        bucket = str(books) if books <= 3 else "12-24"
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return {
        "documents": len(corpus.books),
        "input_bytes": corpus.input_bytes,
        "books_histogram": histogram,
        "violators": len(corpus.violators),
    }


def prepare(seed: int, directory: Path, documents: int):
    """Set-up: the corpus files and the parsed inputs."""
    return write_corpus(seed, directory, documents), build_inputs()


def run(
    seed: int,
    seconds: float,
    paths: harness.RunPaths,
    trace: bool,
    size: int = DOCUMENTS,
) -> harness.Outcome:
    outcome = harness.Outcome()
    setup = []
    for attempt in range(harness.SETUP_REPEATS):
        (corpus, inputs), elapsed = harness.collect_and_time(
            prepare, seed, paths.work / f"corpus-{attempt}", size
        )
        setup.append(elapsed)
    outcome.info["shape"] = describe(corpus)
    db = paths.work / "store.db"
    if trace:
        return _traced(outcome, corpus, inputs, db, paths)
    setup_s = harness.import_seconds(paths.src, IMPORTS) + harness.median(
        setup
    )

    phase_seconds: dict[str, list[float]] = {
        phase: [] for phase in (*PHASES, "point_read")
    }
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        timings, reports = pipeline_pass(
            corpus, inputs, db, WARM_REPEATS
        )
        for phase, values in timings.items():
            phase_seconds[phase].extend(values)
        check_pass(outcome, corpus, reports)
        passes += 1
    medians = {
        phase: harness.median(phase_seconds[phase]) for phase in PHASES
    }
    outcome.info["samples"] = {
        phase: len(values) for phase, values in phase_seconds.items()
    }
    outcome.info["command_docs_per_s"] = {
        phase: len(corpus.books) / value for phase, value in medians.items()
    }
    harness.report_end_to_end(
        outcome,
        setup_s,
        harness.own_peak_rss_mb(),
        len(corpus.books) / sum(medians.values()),
        [value * 1000.0 for value in phase_seconds["point_read"]],
    )
    return outcome


def replay(
    corpus: Corpus, inputs: Inputs, db: Path, recorder: harness.SpanRecorder
) -> dict:
    """One pass as calls into each layer; returns counts it observed."""
    span = recorder.span
    remove_store(db)
    budget = ParseBudget.default()
    fingerprints = [(fd, fingerprint_fd(fd)) for fd in inputs.fds]
    counts = {"state_bytes": 0, "checks_run": 0, "checks_skipped": 0}

    with span("bench.load"):
        names = discover_corpus(
            [str(corpus.directory)], recursive=True
        ).documents
        backend = SqliteBackend(db)
        backend.begin_chunk()
        for index, name in enumerate(names, start=1):
            raw = Path(name).read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            with span("store.read"):
                backend.get_sha(name)
            text = raw.decode("utf-8")
            with span("xmlmodel.parse"):
                document = parse_document(text, limits=budget)
            with span("xmlmodel.parse_unguarded"):
                parse_document(text)
            with span("store.encode"):
                rows = encode_document(document)
            with span("store.write"):
                backend.put_document(name, digest, rows)
                if index % CHUNK_SIZE == 0:
                    backend.commit_chunk()
                    backend.begin_chunk()
        with span("store.write"):
            backend.commit_chunk()

    with span("bench.check_cold"):
        for name in names:
            for _, fingerprint in fingerprints:
                with span("store.state_read"):
                    backend.get_index_state(name, fingerprint)
            with span("store.read"):
                rows = backend.get_rows(name)
            with span("store.decode"):
                document = decode_document(rows)
            for fd, fingerprint in fingerprints:
                with span("fd.index_build"):
                    index = FDIndex(fd, document)
                with span("store.state_write"):
                    state = FDIndexState.from_index(index).to_json_dict()
                    backend.put_index_state(name, fingerprint, state)
                index.close()
                counts["state_bytes"] += len(
                    json.dumps(state, sort_keys=True, separators=(",", ":"))
                )
    backend.close()

    with span("bench.check_warm"):
        backend = SqliteBackend(db)
        for name in names:
            for _, fingerprint in fingerprints:
                with span("store.state_read"):
                    state = backend.get_index_state(name, fingerprint)
                with span("store.state_decode"):
                    FDIndexState.from_json_dict(state)
        backend.close()

    with span("bench.apply"):
        store = CorpusStore(SqliteBackend(db))
        with span("independence.certify"):
            certified, _ = store.certify_batch(
                inputs.updates, inputs.fds, schema=inputs.schema
            )
        batch = UpdateBatch(inputs.updates)
        for name in names:
            with span("store.read"):
                rows = store.backend.get_rows(name)
            with span("store.decode"):
                document = decode_document(rows)
            with span("update.apply"):
                applied = batch.apply_guarded(
                    document,
                    fds=inputs.fds,
                    schema=inputs.schema,
                    certified=certified,
                )
            counts["checks_run"] += applied.checks_run
            counts["checks_skipped"] += applied.checks_skipped
            with span("store.encode"):
                rows = encode_document(applied.document)
                digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            with span("store.write"):
                store.backend.begin_chunk()
                store.backend.put_document(name, digest, rows)
                store.backend.commit_chunk()
        counts["rows"] = sum(
            store.stats()[table] for table in ("nodes", "edges", "attrs")
        )
        store.close()

    with span("bench.point_read"):
        store = CorpusStore(SqliteBackend(db))
        for name in store.document_names():
            with span("store.read"):
                rows = store.backend.get_rows(name)
            with span("store.decode"):
                decode_document(rows)
        store.close()

    with span("bench.audit"):
        options = inputs.audit
        with span("independence.certify"):
            matrix = check_independence_matrix(
                list(options.fds),
                list(options.update_classes),
                schema=options.schema,
                strategy=options.strategy,
            )
        risky = {
            options.update_classes[cell.column].name:
                options.update_classes[cell.column]
            for row in matrix.cells
            for cell in row
            if cell.verdict is not Verdict.INDEPENDENT
        }
        for name in discover_corpus(
            [str(corpus.directory)], recursive=options.recursive
        ).documents:
            with span("audit.document"):
                os.stat(name)
                text = Path(name).read_bytes().decode("utf-8")
                with span("xmlmodel.parse"):
                    document = parse_document(
                        text, limits=options.parse_budget
                    )
                with span("schema.validate"):
                    options.schema.is_valid(document)
                for fd in options.fds:
                    with span("fd.check"):
                        check_fd(
                            fd, document,
                            max_violations=options.max_violations,
                        )
                for update_class in risky.values():
                    with span("pattern.exposure"):
                        next(
                            iter(enumerate_mappings(
                                update_class.pattern, document
                            )),
                            None,
                        )
    return counts


def _traced(outcome, corpus, inputs, db, paths) -> harness.Outcome:
    timings, reports = pipeline_pass(corpus, inputs, db, warm_repeats=1)
    check_pass(outcome, corpus, reports)
    untraced = sum(timings[phase][0] for phase in PHASES) + sum(
        timings["point_read"]
    )

    recorder = harness.SpanRecorder(PROBES)
    counts, traced = harness.collect_and_time(
        replay, corpus, inputs, db, recorder
    )
    records = recorder.write_jsonl(paths.trace_file)
    layer = harness.self_ms(records)
    load = harness.self_ms(harness.subtree(records, "bench.load"))
    documents = len(corpus.books)
    checks = counts["checks_run"] + counts["checks_skipped"]
    layer_counts = {
        "limits.guard_ratio": load["xmlmodel.parse"]
        / load["xmlmodel.parse_unguarded"],
        "update.checks_skipped_share": counts["checks_skipped"] / checks,
        "store.rows": counts["rows"] / documents,
        "store.state_bytes": counts["state_bytes"] / documents,
        "store.bytes_per_input_byte": reports["store_bytes"]
        / corpus.input_bytes,
    }
    harness.report_layers(
        outcome, recorder, layer, layer_counts, (traced, untraced, untraced)
    )
    return outcome
