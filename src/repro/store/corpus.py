"""The corpus store: many documents, one analysis, amortized state.

:class:`CorpusStore` composes a storage backend
(:func:`~repro.store.backend.open_backend`) with the rest of the
pipeline into corpus-scale operations:

* :meth:`CorpusStore.load_paths` — chunked bulk load of files and
  directories through the tolerant audit walker and the
  :class:`~repro.limits.ParseBudget` untrusted-input guards.  Each
  file's raw sha256 is stored with its body; re-loading a path whose
  stored digest matches is a *skip*, which makes a load idempotent,
  incremental, and — because chunks commit atomically — resumable
  after a crash by simply running it again.

* :meth:`CorpusStore.check_fd_corpus` — "certify once, check per
  document": the FD set is fingerprinted once, and each document
  answers from its persisted :class:`~repro.store.fdstate
  .FDIndexState` when fresh (no parse, no matching) or is indexed and
  persisted when not.  Per-document verdicts are three-valued
  (``satisfied`` / ``violated`` / ``unknown`` on budget exhaustion),
  and runs journal through the crash-safe
  :class:`~repro.persistence.store.CheckpointStore`.

* :meth:`CorpusStore.apply_guarded_corpus` — one independence matrix
  certifies the batch against the FD set corpus-wide; each document
  then revalidates only the *uncertified* (POSSIBLY_DEPENDENT /
  UNKNOWN) pairs via :meth:`~repro.update.batch.UpdateBatch
  .apply_guarded`.  Committed documents are written back (journal
  record first, then the atomic store commit, gated by input/result
  digests on resume — exactly-once application across crashes).

Backend equivalence is a hard contract: every report produced by these
operations is bit-for-bit identical between the in-memory and SQLite
backends (the differential suite drives this over hundreds of random
corpora).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

from repro.audit.findings import (
    IO_ERROR,
    PARSE_ERROR,
    Finding,
)
from repro.audit.walker import discover_corpus
from repro.errors import ParseError, StoreError
from repro.fd.fd import FunctionalDependency
from repro.fd.satisfaction import check_fd
from repro.limits import Budget, BudgetExceeded, ParseBudget
from repro.obs.trace import current_tracer
from repro.persistence.manifest import (
    RunManifest,
    budget_spec,
    fingerprint_pattern,
    fingerprint_schema,
)
from repro.persistence.store import CheckpointStore
from repro.store.backend import StorageBackend, open_backend
from repro.store.encoding import (
    DocumentBody,
    decode_document,
    encode_document,
)
from repro.store.fdstate import FDIndexState, fingerprint_fd
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.tree import XMLDocument

#: documents committed per bulk-load transaction (the durability chunk)
DEFAULT_CHUNK_SIZE = 64

#: per-document verdicts of a corpus FD check
SATISFIED = "satisfied"
VIOLATED = "violated"
UNKNOWN = "unknown"


def _sha256_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _body_digest(body: DocumentBody) -> str:
    """Content digest of a stored body (for docs born in-store)."""
    return "body:" + _sha256_bytes(body.text.encode("utf-8"))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclasses.dataclass
class CorpusLoadReport:
    """Outcome of one bulk load."""

    documents_seen: int = 0
    loaded: int = 0
    unchanged: int = 0
    errors: int = 0
    chunks_committed: int = 0
    findings: list[Finding] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def docs_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.documents_seen / self.elapsed_seconds

    def to_json_dict(self) -> dict:
        """JSON-ready form (the ``--json-out`` payload)."""
        return {
            "documents_seen": self.documents_seen,
            "loaded": self.loaded,
            "unchanged": self.unchanged,
            "errors": self.errors,
            "chunks_committed": self.chunks_committed,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def describe(self) -> str:
        """One summary line for the CLI."""
        return (
            f"loaded {self.loaded} document(s) "
            f"({self.unchanged} unchanged, {self.errors} error(s), "
            f"{self.chunks_committed} chunk(s), "
            f"{self.docs_per_second:.0f} docs/s)"
        )


@dataclasses.dataclass
class DocumentCheck:
    """Per-document outcome of a corpus FD check."""

    name: str
    status: str  # satisfied | violated | unknown
    verdicts: dict[str, str]  # fd name -> verdict
    from_index: int = 0  # FDs answered from persisted state
    indexed: int = 0  # FDs indexed (and persisted) this run
    restored: bool = False

    def to_json_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "name": self.name,
            "status": self.status,
            "verdicts": dict(sorted(self.verdicts.items())),
            "from_index": self.from_index,
            "indexed": self.indexed,
            "restored": self.restored,
        }


@dataclasses.dataclass
class CorpusCheckReport:
    """Outcome of :meth:`CorpusStore.check_fd_corpus`."""

    fd_names: list[str]
    documents: list[DocumentCheck]
    elapsed_seconds: float = 0.0

    @property
    def satisfied_count(self) -> int:
        return sum(1 for d in self.documents if d.status == SATISFIED)

    @property
    def violated_count(self) -> int:
        return sum(1 for d in self.documents if d.status == VIOLATED)

    @property
    def unknown_count(self) -> int:
        return sum(1 for d in self.documents if d.status == UNKNOWN)

    @property
    def index_hits(self) -> int:
        return sum(d.from_index for d in self.documents)

    @property
    def indexed_documents(self) -> int:
        return sum(d.indexed for d in self.documents)

    def to_json_dict(self) -> dict:
        """JSON-ready form (the ``--json-out`` payload)."""
        return {
            "fd_names": list(self.fd_names),
            "documents": [d.to_json_dict() for d in self.documents],
            "summary": {
                "documents": len(self.documents),
                "satisfied": self.satisfied_count,
                "violated": self.violated_count,
                "unknown": self.unknown_count,
                "index_hits": self.index_hits,
                "indexed": self.indexed_documents,
            },
            "elapsed_seconds": self.elapsed_seconds,
        }

    def describe(self) -> str:
        """One summary line for the CLI."""
        return (
            f"checked {len(self.fd_names)} FD(s) on "
            f"{len(self.documents)} document(s): "
            f"{self.satisfied_count} satisfied, "
            f"{self.violated_count} violated, "
            f"{self.unknown_count} unknown "
            f"({self.index_hits} index hit(s), "
            f"{self.indexed_documents} indexed)"
        )


@dataclasses.dataclass
class DocumentApply:
    """Per-document outcome of a corpus-wide guarded batch."""

    name: str
    committed: bool
    failed_fd_names: list[str]
    schema_violation: bool
    checks_run: int
    checks_skipped: int
    result_sha: str
    restored: bool = False

    def to_json_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "name": self.name,
            "committed": self.committed,
            "failed_fd_names": list(self.failed_fd_names),
            "schema_violation": self.schema_violation,
            "checks_run": self.checks_run,
            "checks_skipped": self.checks_skipped,
            "result_sha": self.result_sha,
            "restored": self.restored,
        }


@dataclasses.dataclass
class CorpusApplyReport:
    """Outcome of :meth:`CorpusStore.apply_guarded_corpus`."""

    update_names: list[str]
    fd_names: list[str]
    certified_pairs: list[tuple[str, str]]
    uncertified_pairs: list[tuple[str, str]]
    documents: list[DocumentApply]
    elapsed_seconds: float = 0.0

    @property
    def committed_count(self) -> int:
        return sum(1 for d in self.documents if d.committed)

    @property
    def rolled_back_count(self) -> int:
        return sum(1 for d in self.documents if not d.committed)

    @property
    def checks_run(self) -> int:
        return sum(d.checks_run for d in self.documents)

    @property
    def checks_skipped(self) -> int:
        return sum(d.checks_skipped for d in self.documents)

    def to_json_dict(self) -> dict:
        """JSON-ready form (the ``--json-out`` payload)."""
        return {
            "update_names": list(self.update_names),
            "fd_names": list(self.fd_names),
            "certified_pairs": [list(p) for p in self.certified_pairs],
            "uncertified_pairs": [list(p) for p in self.uncertified_pairs],
            "documents": [d.to_json_dict() for d in self.documents],
            "summary": {
                "documents": len(self.documents),
                "committed": self.committed_count,
                "rolled_back": self.rolled_back_count,
                "checks_run": self.checks_run,
                "checks_skipped": self.checks_skipped,
            },
            "elapsed_seconds": self.elapsed_seconds,
        }

    def describe(self) -> str:
        """One summary line for the CLI."""
        return (
            f"applied batch of {len(self.update_names)} update(s) to "
            f"{len(self.documents)} document(s): "
            f"{self.committed_count} committed, "
            f"{self.rolled_back_count} rolled back "
            f"({self.checks_run} FD check(s) run, "
            f"{self.checks_skipped} skipped via IC)"
        )


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


class CorpusStore:
    """A corpus of stored documents behind a storage backend.

    Each document is kept as one encoded body (:mod:`repro.store
    .encoding`) under its name and content digest; every read
    materializes a whole document, and nothing queries inside one.
    """

    def __init__(self, backend: StorageBackend) -> None:
        self.backend = backend

    @classmethod
    def open(cls, location: str) -> "CorpusStore":
        """Open a store at a location string (see ``open_backend``)."""
        return cls(open_backend(location))

    def close(self) -> None:
        """Release the backend (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single documents ----------------------------------------------

    def put_document(
        self, name: str, document: XMLDocument, sha256: str | None = None
    ) -> str:
        """Store one document; returns the recorded content digest."""
        body = encode_document(document)
        digest = sha256 if sha256 is not None else _body_digest(body)
        self.backend.put_document(name, digest, body)
        return digest

    def get_document(self, name: str) -> XMLDocument | None:
        """Materialize one stored document (``None`` when absent)."""
        body = self.backend.get_rows(name)
        return None if body is None else decode_document(body)

    def get_document_by_sha(
        self, sha256: str
    ) -> tuple[str, XMLDocument] | None:
        """Find a stored document by content digest (the audit hook)."""
        name = self.backend.find_by_sha(sha256)
        if name is None:
            return None
        body = self.backend.get_rows(name)
        if body is None:
            return None
        return name, decode_document(body)

    def document_names(self) -> list[str]:
        """All stored document names, sorted."""
        return [name for name, _ in self.backend.list_documents()]

    def stats(self) -> dict:
        """The backend's document, node and index-state counts."""
        return self.backend.stats()

    # -- bulk load ------------------------------------------------------

    def load_paths(
        self,
        paths: list[str],
        recursive: bool = False,
        parse_budget: ParseBudget | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        keep_whitespace: bool = False,
        _per_document_delay_seconds: float = 0.0,
    ) -> CorpusLoadReport:
        """Bulk-load files/directories; see the module docstring.

        Loading never raises for anything a corpus member did: parse
        and IO failures become :class:`~repro.audit.findings.Finding`
        records on the report (same taxonomy as the audit front end)
        and the load moves on.  ``_per_document_delay_seconds`` is the
        crash-harness hook (same pattern as the matrix fan-out's
        ``_per_cell_delay_seconds``).
        """
        started = time.perf_counter()
        tracer = current_tracer()
        report = CorpusLoadReport()
        chunk_size = max(1, int(chunk_size))
        with tracer.span("corpus.load") as span:
            walk = discover_corpus(paths, recursive=recursive)
            report.findings.extend(walk.findings)
            in_chunk = 0
            self.backend.begin_chunk()
            for path in walk.documents:
                report.documents_seen += 1
                if _per_document_delay_seconds:
                    time.sleep(_per_document_delay_seconds)
                try:
                    raw = open(path, "rb").read()
                except OSError as error:
                    report.errors += 1
                    report.findings.append(
                        Finding.make(
                            IO_ERROR,
                            path,
                            f"cannot read file: {error.strerror or error}",
                        )
                    )
                    continue
                digest = _sha256_bytes(raw)
                if self.backend.get_sha(path) == digest:
                    report.unchanged += 1
                    continue
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as error:
                    report.errors += 1
                    report.findings.append(
                        Finding.make(
                            PARSE_ERROR,
                            path,
                            f"not valid UTF-8: {error.reason} at byte "
                            f"{error.start}",
                            position=error.start,
                        )
                    )
                    continue
                try:
                    document = parse_document(
                        text,
                        keep_whitespace=keep_whitespace,
                        limits=parse_budget,
                    )
                except ParseError as error:
                    report.errors += 1
                    report.findings.append(
                        Finding.from_parse_error(path, error)
                    )
                    continue
                self.backend.put_document(
                    path, digest, encode_document(document)
                )
                report.loaded += 1
                in_chunk += 1
                if in_chunk >= chunk_size:
                    self.backend.commit_chunk()
                    report.chunks_committed += 1
                    if tracer.enabled:
                        tracer.event(
                            "corpus.chunk", {"loaded": report.loaded}
                        )
                    in_chunk = 0
                    self.backend.begin_chunk()
            self.backend.commit_chunk()
            if in_chunk:
                report.chunks_committed += 1
            report.elapsed_seconds = time.perf_counter() - started
            span.set_attribute("documents", report.documents_seen)
            span.set_attribute("loaded", report.loaded)
            span.set_attribute("unchanged", report.unchanged)
            span.set_attribute("errors", report.errors)
        return report

    # -- corpus FD checking --------------------------------------------

    def _check_manifest(
        self,
        names: list[str],
        fds: list[FunctionalDependency],
        budget: Budget | None,
    ) -> RunManifest:
        from repro import __version__

        return RunManifest(
            kind="corpus-fd-check",
            row_names=tuple(names),
            column_names=tuple(fd.name for fd in fds),
            row_fingerprints=tuple(
                self.backend.get_sha(name) or "missing" for name in names
            ),
            column_fingerprints=tuple(fingerprint_fd(fd) for fd in fds),
            schema_fingerprint=None,
            strategy="index",
            want_witness=False,
            budget=budget_spec(budget),
            code_version=__version__,
        )

    def check_fd_corpus(
        self,
        fds: list[FunctionalDependency],
        budget: Budget | None = None,
        max_violations: int = 5,
        use_index: bool = True,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        _after_document=None,
    ) -> CorpusCheckReport:
        """Check an FD set on every stored document; see module doc.

        ``_after_document`` is a test hook called after each document
        lands (the differential suite interrupts runs with it to
        exercise resume).
        """
        started = time.perf_counter()
        tracer = current_tracer()
        fds = list(fds)
        if not fds:
            raise StoreError("check_fd_corpus needs at least one FD")
        report = CorpusCheckReport(
            fd_names=[fd.name for fd in fds], documents=[]
        )
        fingerprints = [fingerprint_fd(fd) for fd in fds]
        with tracer.span("corpus.check") as span:
            names = self.document_names()
            store = None
            restored: dict[int, DocumentCheck] = {}
            if checkpoint_dir is not None:
                manifest = self._check_manifest(names, fds, budget)
                store = CheckpointStore.open(
                    checkpoint_dir, manifest, resume=resume, tracer=tracer
                )
                if store is not None:
                    for record in store.restored_cells:
                        check = self._restore_check(record)
                        # UNKNOWN re-attempted on resume, like matrix cells
                        if check is not None and check.status != UNKNOWN:
                            restored[record["row"]] = check
            try:
                for index, name in enumerate(names):
                    prior = restored.get(index)
                    if prior is not None:
                        report.documents.append(prior)
                        continue
                    check = self._check_one(
                        name,
                        fds,
                        fingerprints,
                        budget=budget,
                        max_violations=max_violations,
                        use_index=use_index,
                    )
                    report.documents.append(check)
                    if store is not None:
                        store.record_cell(
                            {
                                "type": "cell",
                                "row": index,
                                "column": 0,
                                "verdict": check.status,
                                "check": check.to_json_dict(),
                            }
                        )
                    if _after_document is not None:
                        _after_document(index, check)
            except BaseException:
                # keep the journal so resume=True can continue the run
                if store is not None:
                    store.close()
                raise
            if store is not None:
                store.finalize(
                    {
                        "documents": len(report.documents),
                        "violated": report.violated_count,
                        "unknown": report.unknown_count,
                    }
                )
            report.elapsed_seconds = time.perf_counter() - started
            span.set_attribute("documents", len(report.documents))
            span.set_attribute("violated", report.violated_count)
            span.set_attribute("unknown", report.unknown_count)
        return report

    @staticmethod
    def _restore_check(record: dict) -> DocumentCheck | None:
        payload = record.get("check")
        if not isinstance(payload, dict):
            return None
        try:
            return DocumentCheck(
                name=str(payload["name"]),
                status=str(payload["status"]),
                verdicts=dict(payload["verdicts"]),
                from_index=int(payload["from_index"]),
                indexed=int(payload["indexed"]),
                restored=True,
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _check_one(
        self,
        name: str,
        fds: list[FunctionalDependency],
        fingerprints: list[str],
        budget: Budget | None,
        max_violations: int,
        use_index: bool,
    ) -> DocumentCheck:
        verdicts: dict[str, str] = {}
        from_index = 0
        indexed = 0
        document: XMLDocument | None = None
        meter = None if budget is None else budget.start()
        for fd, fingerprint in zip(fds, fingerprints):
            if use_index:
                persisted = self.backend.get_index_state(name, fingerprint)
                if persisted is not None:
                    try:
                        state = FDIndexState.from_json_dict(persisted)
                    except StoreError:
                        state = None
                    if state is not None:
                        verdicts[fd.name] = (
                            SATISFIED if state.satisfied else VIOLATED
                        )
                        from_index += 1
                        continue
            if document is None:
                document = self.get_document(name)
                if document is None:
                    raise StoreError(f"document {name!r} vanished mid-check")
            if budget is not None:
                # budgeted: answer from check_fd under the meter; an
                # exhausted budget is UNKNOWN for this and every later
                # FD of the document (the meter is per document)
                try:
                    outcome = check_fd(
                        fd,
                        document,
                        max_violations=max_violations,
                        meter=meter,
                    )
                except BudgetExceeded:
                    for later in fds[fds.index(fd) :]:
                        verdicts.setdefault(later.name, UNKNOWN)
                    break
                verdicts[fd.name] = (
                    SATISFIED if outcome.satisfied else VIOLATED
                )
                continue
            state = FDIndexState.from_document(fd, document)
            if use_index:
                self.backend.put_index_state(
                    name, fingerprint, state.to_json_dict()
                )
            indexed += 1
            verdicts[fd.name] = SATISFIED if state.satisfied else VIOLATED
        if any(verdict == VIOLATED for verdict in verdicts.values()):
            status = VIOLATED
        elif any(verdict == UNKNOWN for verdict in verdicts.values()):
            status = UNKNOWN
        else:
            status = SATISFIED
        return DocumentCheck(
            name=name,
            status=status,
            verdicts=verdicts,
            from_index=from_index,
            indexed=indexed,
        )

    # -- corpus-wide guarded batches -----------------------------------

    def _apply_manifest(
        self,
        names: list[str],
        updates,
        fds: list[FunctionalDependency],
        schema,
        budget: Budget | None,
        strategy: str,
    ) -> RunManifest:
        from repro import __version__

        return RunManifest(
            kind="corpus-apply",
            row_names=tuple(names),
            column_names=tuple(
                update.update_class.name for update in updates
            )
            + tuple(fd.name for fd in fds),
            # an apply rewrites stored digests as it commits, so sha
            # fingerprints would make every resume look like a foreign
            # corpus; rows are instead gated individually at restore
            # time (_restore_apply honors a record only when the stored
            # digest equals its result_sha)
            row_fingerprints=tuple("content-gated" for _ in names),
            column_fingerprints=tuple(
                fingerprint_pattern(update.update_class.pattern)
                for update in updates
            )
            + tuple(fingerprint_fd(fd) for fd in fds),
            schema_fingerprint=fingerprint_schema(schema),
            strategy=strategy,
            want_witness=False,
            budget=budget_spec(budget),
            code_version=__version__,
        )

    def certify_batch(
        self,
        updates,
        fds: list[FunctionalDependency],
        schema=None,
        strategy: str = "auto",
        budget: Budget | None = None,
    ) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
        """One IC matrix for the whole corpus.

        Returns ``(certified, uncertified)`` sets of ``(fd_name,
        update_class_name)`` pairs: certified cells were proved
        INDEPENDENT; everything else (POSSIBLY_DEPENDENT, or UNKNOWN
        from an exhausted budget) stays dirty and is revalidated per
        document.
        """
        from repro.independence.criterion import Verdict
        from repro.independence.matrix import check_independence_matrix

        update_classes = [update.update_class for update in updates]
        if not fds or not update_classes:
            return set(), set()
        matrix = check_independence_matrix(
            fds,
            update_classes,
            schema=schema,
            want_witness=False,
            strategy=strategy,
            budget=budget,
        )
        certified: set[tuple[str, str]] = set()
        uncertified: set[tuple[str, str]] = set()
        for row in matrix.cells:
            for cell in row:
                pair = (
                    matrix.row_names[cell.row],
                    matrix.column_names[cell.column],
                )
                if cell.verdict is Verdict.INDEPENDENT:
                    certified.add(pair)
                else:
                    uncertified.add(pair)
        return certified, uncertified

    def apply_guarded_corpus(
        self,
        updates,
        fds: list[FunctionalDependency] = (),
        schema=None,
        strategy: str = "auto",
        budget: Budget | None = None,
        certified: set[tuple[str, str]] | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        _after_document=None,
    ) -> CorpusApplyReport:
        """Apply a guarded update batch to every stored document.

        ``certified`` overrides the one-shot certification (pass the
        pairs from a previous :meth:`certify_batch`); ``None`` runs
        the matrix here.  Per-document commit/rollback semantics are
        :meth:`~repro.update.batch.UpdateBatch.apply_guarded`'s; a
        committed result replaces the stored document atomically.
        """
        from repro.update.batch import UpdateBatch

        started = time.perf_counter()
        tracer = current_tracer()
        updates = list(updates)
        fds = list(fds)
        if not updates:
            raise StoreError("apply_guarded_corpus needs at least one update")
        with tracer.span("corpus.apply") as span:
            if certified is None:
                certified, uncertified = self.certify_batch(
                    updates,
                    fds,
                    schema=schema,
                    strategy=strategy,
                    budget=budget,
                )
            else:
                certified = set(certified)
                uncertified = {
                    (fd.name, update.update_class.name)
                    for fd in fds
                    for update in updates
                } - certified
            report = CorpusApplyReport(
                update_names=[u.update_class.name for u in updates],
                fd_names=[fd.name for fd in fds],
                certified_pairs=sorted(certified),
                uncertified_pairs=sorted(uncertified),
                documents=[],
            )
            names = self.document_names()
            store = None
            restored: dict[int, DocumentApply] = {}
            if checkpoint_dir is not None:
                manifest = self._apply_manifest(
                    names, updates, fds, schema, budget, strategy
                )
                store = CheckpointStore.open(
                    checkpoint_dir, manifest, resume=resume, tracer=tracer
                )
                if store is not None:
                    for record in store.restored_cells:
                        outcome = self._restore_apply(record)
                        if outcome is None:
                            continue
                        # honor the record only when the store content
                        # proves the apply really committed (or the doc
                        # was rolled back and is untouched)
                        current = self.backend.get_sha(outcome.name)
                        if current == outcome.result_sha:
                            restored[record["row"]] = outcome
            batch = UpdateBatch(updates)
            try:
                for index, name in enumerate(names):
                    prior = restored.get(index)
                    if prior is not None:
                        report.documents.append(prior)
                        continue
                    document = self.get_document(name)
                    if document is None:
                        raise StoreError(
                            f"document {name!r} vanished mid-apply"
                        )
                    outcome = batch.apply_guarded(
                        document,
                        fds=fds,
                        schema=schema,
                        certified=certified,
                    )
                    if outcome.committed:
                        body = encode_document(outcome.document)
                        result_sha = _body_digest(body)
                    else:
                        body = None
                        result_sha = self.backend.get_sha(name) or "missing"
                    record = DocumentApply(
                        name=name,
                        committed=outcome.committed,
                        failed_fd_names=list(outcome.failed_fd_names),
                        schema_violation=outcome.schema_violation,
                        checks_run=outcome.checks_run,
                        checks_skipped=outcome.checks_skipped,
                        result_sha=result_sha,
                    )
                    # journal the intent first, then commit the store
                    # write: a crash between the two re-applies from the
                    # unchanged input (the record is ignored because the
                    # stored digest still names the input), never twice
                    if store is not None:
                        store.record_cell(
                            {
                                "type": "cell",
                                "row": index,
                                "column": 0,
                                "verdict": (
                                    "committed"
                                    if record.committed
                                    else "rolled-back"
                                ),
                                "apply": record.to_json_dict(),
                            }
                        )
                    if outcome.committed:
                        self.backend.begin_chunk()
                        self.backend.put_document(name, result_sha, body)
                        self.backend.commit_chunk()
                    report.documents.append(record)
                    if _after_document is not None:
                        _after_document(index, record)
            except BaseException:
                # keep the journal so resume=True can continue the run
                if store is not None:
                    store.close()
                raise
            if store is not None:
                store.finalize(
                    {
                        "documents": len(report.documents),
                        "committed": report.committed_count,
                        "rolled_back": report.rolled_back_count,
                    }
                )
            report.elapsed_seconds = time.perf_counter() - started
            span.set_attribute("documents", len(report.documents))
            span.set_attribute("committed", report.committed_count)
        return report

    @staticmethod
    def _restore_apply(record: dict) -> DocumentApply | None:
        payload = record.get("apply")
        if not isinstance(payload, dict):
            return None
        try:
            return DocumentApply(
                name=str(payload["name"]),
                committed=bool(payload["committed"]),
                failed_fd_names=[
                    str(name) for name in payload["failed_fd_names"]
                ],
                schema_violation=bool(payload["schema_violation"]),
                checks_run=int(payload["checks_run"]),
                checks_skipped=int(payload["checks_skipped"]),
                result_sha=str(payload["result_sha"]),
                restored=True,
            )
        except (KeyError, TypeError, ValueError):
            return None


def open_corpus(location: str) -> CorpusStore:
    """Convenience alias for :meth:`CorpusStore.open`."""
    return CorpusStore.open(location)
