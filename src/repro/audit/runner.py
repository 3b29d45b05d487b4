"""The fault-isolated corpus audit runner.

:func:`audit_corpus` takes a corpus (files/directories), a schema, FDs
and update classes, and produces a :class:`~repro.audit.findings
.CorpusReport`.  Its two contracts:

**Per-document fault isolation.**  Every document is audited inside its
own try-boundary with its own fresh analysis
:class:`~repro.limits.Budget` meter and the shared (immutable)
:class:`~repro.limits.ParseBudget`.  Whatever happens to one document —
malformed text, a parser limit refusal, an exhausted analysis budget,
or an unexpected exception — is recorded as findings on *that*
document and the run moves on.  Unexpected exceptions additionally
quarantine the file path.  Consequently the verdicts for healthy
documents are bit-for-bit identical whether or not poisoned documents
share the corpus (the acceptance criterion of the audit front end).

**Clean partial results.**  ``max_errors`` caps the number of
error-severity findings tolerated; once exceeded the run stops
admitting documents and returns an ``aborted`` report that still
carries everything audited so far.  With a ``checkpoint_dir`` every
finished document report is journaled through the crash-safe
:class:`~repro.persistence.store.CheckpointStore`, and ``resume=True``
restores finished documents (re-auditing only those that previously
failed on a budget or an internal error, whose outcome could change)
under the usual manifest-match policy.

The schema is compiled once (content-model DFAs are cached on the
:class:`~repro.schema.dtd.Schema`), and the FD-vs-update independence
matrix is computed once per corpus — documents only pay for pattern
matching against it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time

from repro.audit.findings import (
    BUDGET_EXHAUSTED,
    DEPENDENT_UPDATE,
    FD_VIOLATION,
    INTERNAL_ERROR,
    IO_ERROR,
    PARSE_ERROR,
    SCHEMA_VIOLATION,
    CorpusReport,
    DocumentReport,
    Finding,
)
from repro.audit.walker import discover_corpus
from repro.errors import ParseError
from repro.fd.satisfaction import check_fd
from repro.limits import Budget, BudgetExceeded, ParseBudget
from repro.obs.trace import current_tracer
from repro.pattern.engine import enumerate_mappings
from repro.persistence.manifest import (
    RunManifest,
    budget_spec,
    fingerprint_pattern,
    fingerprint_schema,
)
from repro.persistence.store import CheckpointStore
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.tree import NodeType


@dataclasses.dataclass(frozen=True)
class AuditOptions:
    """Everything an audit run is parameterized by.

    ``fds`` / ``update_classes`` may be empty — a pure
    well-formedness/schema audit is a valid (and common) run.
    ``parse_budget=None`` disables the untrusted-input guards
    (``ParseBudget.default()`` is the CLI's default); ``budget``
    bounds the per-document *analysis* work (FD mapping enumeration,
    update exposure), a fresh meter per document.
    """

    schema: object | None = None  # repro.schema.dtd.Schema
    fds: tuple = ()
    update_classes: tuple = ()
    parse_budget: ParseBudget | None = None
    budget: Budget | None = None
    recursive: bool = False
    max_errors: int | None = None
    max_violations: int = 5
    strategy: str = "auto"
    checkpoint_dir: str | None = None
    resume: bool = False
    #: an open :class:`~repro.store.corpus.CorpusStore`; documents whose
    #: raw sha256 matches a stored document reuse its cached parse
    #: instead of re-parsing (the store is only read, never written)
    store: object | None = None


def _fingerprint_file(path: str) -> str:
    """SHA-256 of the raw file bytes (manifest row fingerprint).

    Unreadable files fingerprint as a constant marker — they still get
    a manifest row (and an ``io-error`` finding at audit time).
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError:
        return "unreadable"
    return digest.hexdigest()


def _parse_budget_spec(parse_budget: ParseBudget | None) -> dict | None:
    if parse_budget is None:
        return None
    return {
        "max_input_bytes": parse_budget.max_input_bytes,
        "max_depth": parse_budget.max_depth,
        "max_tokens": parse_budget.max_tokens,
        "max_entity_expansion": parse_budget.max_entity_expansion,
    }


def _config_fingerprint(options: AuditOptions) -> str:
    """One column fingerprint pinning everything a document verdict
    depends on beyond the manifest's global fields: the FDs, the update
    classes, the parse guards, and the violation cap."""
    parts = [
        "audit-config",
        "fds:" + ",".join(
            f"{fd.name}={fingerprint_pattern(fd.pattern)}"
            for fd in options.fds
        ),
        "updates:" + ",".join(
            f"{uc.name}={fingerprint_pattern(uc.pattern)}"
            for uc in options.update_classes
        ),
        f"parse:{sorted((_parse_budget_spec(options.parse_budget) or {}).items())}",
        f"max_violations:{options.max_violations}",
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _build_manifest(
    documents: list[str], options: AuditOptions
) -> RunManifest:
    from repro import __version__

    return RunManifest(
        kind="corpus-audit",
        row_names=tuple(documents),
        column_names=("audit",),
        row_fingerprints=tuple(
            _fingerprint_file(path) for path in documents
        ),
        column_fingerprints=(_config_fingerprint(options),),
        schema_fingerprint=fingerprint_schema(options.schema),
        strategy=options.strategy,
        want_witness=False,
        budget=budget_spec(options.budget),
        code_version=__version__,
    )


# ----------------------------------------------------------------------
# per-document checks
# ----------------------------------------------------------------------


def _node_position(node) -> str:
    return ".".join(map(str, node.position())) or "ε"


def _schema_findings(
    path: str, schema, document, cap: int
) -> list[Finding]:
    """A detail walk mirroring :meth:`Schema.is_valid`, but recording
    *where* validation fails (root mismatch, undeclared element,
    content-model rejection) instead of returning a bare boolean."""
    findings: list[Finding] = []
    children = document.root.children
    if len(children) != 1 or children[0].label != schema.document_element:
        actual = children[0].label if len(children) == 1 else (
            f"{len(children)} root children"
        )
        findings.append(
            Finding.make(
                SCHEMA_VIOLATION,
                path,
                f"document element is {actual!r}; schema requires "
                f"{schema.document_element!r}",
                node="ε",
            )
        )
        return findings
    stack = [children[0]]
    while stack and len(findings) < cap:
        node = stack.pop()
        if node.label not in schema.content_models:
            findings.append(
                Finding.make(
                    SCHEMA_VIOLATION,
                    path,
                    f"element {node.label!r} is not declared by the schema",
                    node=_node_position(node),
                )
            )
            continue
        word = tuple(child.label for child in node.children)
        if not schema.content_dfa(node.label).accepts(word):
            findings.append(
                Finding.make(
                    SCHEMA_VIOLATION,
                    path,
                    f"content of element {node.label!r} does not match "
                    f"its content model",
                    node=_node_position(node),
                    content=" ".join(word) or "(empty)",
                )
            )
        stack.extend(
            child
            for child in node.children
            if child.node_type is NodeType.ELEMENT
        )
    return findings


def _fd_findings(
    path: str, document, options: AuditOptions, meter, report: DocumentReport
) -> list[Finding]:
    findings: list[Finding] = []
    for fd in options.fds:
        fd_report = check_fd(
            fd,
            document,
            max_violations=options.max_violations,
            meter=meter,
        )
        report.fd_checked += 1
        report.fd_mappings += fd_report.mapping_count
        for violation in fd_report.violations:
            findings.append(
                Finding.make(
                    FD_VIOLATION,
                    path,
                    f"FD {fd.name} violated: {violation.describe()}",
                    fd=fd.name,
                )
            )
    return findings


def _exposure_findings(
    path: str, document, risky_pairs, meter
) -> list[Finding]:
    """One ``dependent-update`` finding per risky (FD, update) pair
    whose update class actually *applies* to this document (its pattern
    has at least one mapping — checked existentially, charging the
    document's meter per attempted mapping)."""
    findings: list[Finding] = []
    exposed_updates: dict[str, bool] = {}
    for fd_name, update_class, verdict in risky_pairs:
        applies = exposed_updates.get(update_class.name)
        if applies is None:
            applies = False
            for _ in enumerate_mappings(update_class.pattern, document):
                if meter is not None:
                    meter.charge_state()
                    meter.tick()
                applies = True
                break
            exposed_updates[update_class.name] = applies
        if applies:
            findings.append(
                Finding.make(
                    DEPENDENT_UPDATE,
                    path,
                    f"update class {update_class.name} applies here but "
                    f"is not independent of FD {fd_name} "
                    f"(verdict: {verdict})",
                    fd=fd_name,
                    update=update_class.name,
                    verdict=verdict,
                )
            )
    return findings


def _audit_document(
    path: str, options: AuditOptions, risky_pairs
) -> DocumentReport:
    """Audit one file; *everything* is caught and turned into findings.

    The only state shared with other documents is immutable (options,
    schema DFAs, the risky-pair list), so one document's failure cannot
    perturb another's verdicts.
    """
    started = time.perf_counter()
    findings: list[Finding] = []
    report = DocumentReport(path=path, status="ok", findings=findings)
    meter = None if options.budget is None else options.budget.start()
    try:
        # raw byte-size guard from a stat call alone: multi-gigabyte
        # files are refused without reading them
        cap = (
            None
            if options.parse_budget is None
            else options.parse_budget.max_input_bytes
        )
        try:
            size = os.stat(path).st_size
        except OSError as error:
            findings.append(
                Finding.make(
                    IO_ERROR,
                    path,
                    f"cannot stat file: {error.strerror or error}",
                )
            )
            return DocumentReport.from_findings(path, findings)
        if cap is not None and size > cap:
            findings.append(
                Finding.make(
                    BUDGET_EXHAUSTED,
                    path,
                    f"file is {size} bytes, limit is {cap}",
                    dimension="input-bytes",
                    limit=cap,
                )
            )
            return DocumentReport.from_findings(path, findings)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            findings.append(
                Finding.make(
                    IO_ERROR,
                    path,
                    f"cannot read file: {error.strerror or error}",
                )
            )
            return DocumentReport.from_findings(path, findings)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            findings.append(
                Finding.make(
                    PARSE_ERROR,
                    path,
                    f"not valid UTF-8: {error.reason} at byte {error.start}",
                    position=error.start,
                )
            )
            return DocumentReport.from_findings(path, findings)
        document = None
        store_hit: bool | None = None
        if options.store is not None:
            # the store lookup is name-agnostic: any stored document
            # with the same raw-content digest serves, so a corpus
            # loaded under different path roots still hits
            store_hit = False
            try:
                cached = options.store.get_document_by_sha(
                    hashlib.sha256(raw).hexdigest()
                )
            except Exception:
                cached = None  # a damaged store degrades to a re-parse
            if cached is not None:
                document = cached[1]
                store_hit = True
        if document is None:
            try:
                document = parse_document(text, limits=options.parse_budget)
            except ParseError as error:
                findings.append(Finding.from_parse_error(path, error))
                report = DocumentReport.from_findings(path, findings)
                report.store_hit = store_hit
                return report
        report.store_hit = store_hit
        if options.schema is not None:
            schema_findings = _schema_findings(
                path, options.schema, document, options.max_violations
            )
            report.schema_valid = not schema_findings
            findings.extend(schema_findings)
        findings.extend(
            _fd_findings(path, document, options, meter, report)
        )
        findings.extend(
            _exposure_findings(path, document, risky_pairs, meter)
        )
    except BudgetExceeded as exhausted:
        findings.append(
            Finding.make(
                BUDGET_EXHAUSTED,
                path,
                f"analysis {exhausted.partial.describe()}",
                dimension=exhausted.reason,
            )
        )
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
    final = DocumentReport.from_findings(
        path,
        findings,
        fd_checked=report.fd_checked,
        fd_mappings=report.fd_mappings,
        schema_valid=report.schema_valid,
        store_hit=report.store_hit,
    )
    final.elapsed_ms = elapsed_ms
    return final


# ----------------------------------------------------------------------
# the corpus driver
# ----------------------------------------------------------------------


def _independence_summary(matrix) -> dict:
    return {
        "row_names": list(matrix.row_names),
        "column_names": list(matrix.column_names),
        "verdicts": [
            [cell.verdict.value for cell in row] for row in matrix.cells
        ],
    }


def _risky_pairs(options: AuditOptions, tracer):
    """The (fd_name, update_class, verdict) triples not certified
    INDEPENDENT, from one matrix run shared by the whole corpus."""
    if not options.fds or not options.update_classes:
        return [], None
    from repro.independence.criterion import Verdict
    from repro.independence.matrix import check_independence_matrix

    with tracer.span("audit.independence"):
        matrix = check_independence_matrix(
            list(options.fds),
            list(options.update_classes),
            schema=options.schema,
            want_witness=False,
            strategy=options.strategy,
            budget=options.budget,
        )
    risky = []
    for row in matrix.cells:
        for cell in row:
            if cell.verdict is not Verdict.INDEPENDENT:
                risky.append(
                    (
                        matrix.row_names[cell.row],
                        options.update_classes[cell.column],
                        cell.verdict.value,
                    )
                )
    return risky, {
        **_independence_summary(matrix),
        "summary": (
            f"{len(risky)} risky pair(s) out of "
            f"{len(matrix.row_names) * len(matrix.column_names)}"
        ),
    }


#: document statuses a resume re-audits (their outcome could change:
#: deadline budgets are wall-clock dependent, internal errors may have
#: been fixed); everything else is deterministic and restores as-is
_RETRY_KINDS = frozenset({BUDGET_EXHAUSTED, INTERNAL_ERROR})


def _restorable(report: DocumentReport) -> bool:
    return not any(f.kind in _RETRY_KINDS for f in report.findings)


def audit_corpus(paths: list[str], options: AuditOptions) -> CorpusReport:
    """Audit a corpus of XML files; see the module docstring.

    Never raises for anything a document (or the walk) did; a
    :class:`~repro.errors.ResumeMismatchError` for a stale checkpoint
    still propagates — silently recomputing everything would hide an
    operator error.
    """
    started = time.perf_counter()
    tracer = current_tracer()
    with tracer.span("audit.corpus") as corpus_span:
        walk = discover_corpus(paths, recursive=options.recursive)
        corpus_findings = list(walk.findings)
        risky_pairs, independence = _risky_pairs(options, tracer)

        store = None
        restored: dict[int, DocumentReport] = {}
        if options.checkpoint_dir is not None:
            manifest = _build_manifest(walk.documents, options)
            store = CheckpointStore.open(
                options.checkpoint_dir,
                manifest,
                resume=options.resume,
                tracer=tracer,
            )
            if store is not None:
                for record in store.restored_cells:
                    document = record.get("report")
                    if not isinstance(document, dict):
                        continue
                    try:
                        report = DocumentReport.from_json_dict(
                            document, restored=True
                        )
                    except (KeyError, TypeError, ValueError):
                        continue
                    if _restorable(report):
                        restored[record["row"]] = report

        documents: list[DocumentReport] = []
        quarantined: list[str] = []
        aborted = False
        error_count = sum(
            1 for f in corpus_findings if f.severity == "error"
        )
        for index, path in enumerate(walk.documents):
            if (
                options.max_errors is not None
                and error_count > options.max_errors
            ):
                aborted = True
                break
            prior = restored.get(index)
            if prior is not None:
                documents.append(prior)
                error_count += prior.error_count
                continue
            with tracer.span("audit.document") as span:
                span.set_attribute("path", path)
                try:
                    report = _audit_document(path, options, risky_pairs)
                except Exception as error:  # the isolation boundary
                    report = DocumentReport.from_findings(
                        path,
                        [
                            Finding.make(
                                INTERNAL_ERROR,
                                path,
                                f"audit crashed: "
                                f"{type(error).__name__}: {error}",
                                exception=type(error).__name__,
                            )
                        ],
                    )
                    quarantined.append(path)
                span.set_attribute("status", report.status)
            documents.append(report)
            error_count += report.error_count
            if store is not None:
                store.record_cell(
                    {
                        "type": "cell",
                        "row": index,
                        "column": 0,
                        "verdict": report.status,
                        "report": report.to_json_dict(),
                    }
                )
        else:
            # every document admitted; a trailing cap check so a run
            # whose *last* document blew the cap still reports aborted
            if (
                options.max_errors is not None
                and error_count > options.max_errors
            ):
                aborted = True

        report = CorpusReport(
            documents=documents,
            corpus_findings=corpus_findings,
            quarantined=quarantined,
            aborted=aborted,
            max_errors=options.max_errors,
            restored_documents=sum(1 for d in documents if d.restored),
            elapsed_seconds=time.perf_counter() - started,
            independence=independence,
            checkpoint_dir=options.checkpoint_dir,
        )
        if store is not None:
            if aborted:
                # keep the journal so --resume can continue the run
                store.close()
            else:
                store.finalize(
                    {
                        "documents": len(documents),
                        "errors": report.error_count,
                        "warnings": report.warning_count,
                    }
                )
        corpus_span.set_attribute("documents", len(documents))
        corpus_span.set_attribute("errors", report.error_count)
        corpus_span.set_attribute("aborted", aborted)
    return report
