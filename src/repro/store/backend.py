"""The corpus storage backend contract and the URL-style factory.

A backend stores each document as one
:class:`~repro.store.encoding.DocumentBody` keyed by document name,
beside its content digest (``sha256`` of the source bytes, the
skip-unchanged key of warm reopens), plus persisted
:class:`~repro.store.fdstate.FDIndexState` blobs keyed by ``(document,
fd fingerprint)``.

The contract is deliberately small and *deterministic*: every read
returns canonical ordering regardless of backend, so the differential
suite can demand bit-for-bit identical behaviour from the in-memory
and SQLite implementations on every corpus operation.

Durability boundary: mutations between :meth:`StorageBackend
.begin_chunk` and :meth:`StorageBackend.commit_chunk` become durable
atomically at the commit.  A process killed mid-chunk leaves the store
at the previous chunk boundary — the crash-safety suite SIGKILLs a
bulk load and asserts exactly that prefix survives.

Backends resolve from a location string::

    ":memory:" / "memory://"   in-process, dies with the process
    "corpus.db" / "sqlite://corpus.db"   stdlib sqlite3, WAL mode

Any other ``scheme://`` location is a :class:`~repro.errors.StoreError`
naming these forms.
"""

from __future__ import annotations

import re

from repro.errors import StoreError
from repro.store.encoding import DocumentBody

#: a URL scheme prefix (RFC 3986), as in ``sqlite://`` or ``postgres://``
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


class StorageBackend:
    """Abstract corpus storage; see the module docstring.

    Subclasses implement every method; the base class only fixes the
    shared pieces of the contract (name validation and the default
    no-op transaction hooks for backends without real transactions).
    """

    #: short backend identifier (``stats()["backend"]``)
    name = "abstract"

    # -- documents ------------------------------------------------------

    def put_document(
        self, doc_name: str, sha256: str, body: DocumentBody
    ) -> None:
        """Insert or replace one document (invalidates its FD states)."""
        raise NotImplementedError

    def get_rows(self, doc_name: str) -> DocumentBody | None:
        """The stored body of ``doc_name``, or ``None`` when absent."""
        raise NotImplementedError

    def get_sha(self, doc_name: str) -> str | None:
        """The stored content digest, or ``None`` when absent."""
        raise NotImplementedError

    def find_by_sha(self, sha256: str) -> str | None:
        """A document name whose content digest equals ``sha256``.

        Deterministic: the lexicographically smallest matching name
        (shared content across names is legal).
        """
        raise NotImplementedError

    def delete_document(self, doc_name: str) -> None:
        """Remove a document and its dependent state (idempotent)."""
        raise NotImplementedError

    def list_documents(self) -> list[tuple[str, str]]:
        """All ``(name, sha256)`` pairs, sorted by name."""
        raise NotImplementedError

    # -- persisted FD index state --------------------------------------

    def put_index_state(
        self, doc_name: str, fd_fingerprint: str, state: dict
    ) -> None:
        """Persist one FD's index state for one document."""
        raise NotImplementedError

    def get_index_state(
        self, doc_name: str, fd_fingerprint: str
    ) -> dict | None:
        """The persisted index state, or ``None``."""
        raise NotImplementedError

    # -- metadata -------------------------------------------------------

    def put_meta(self, key: str, value: str) -> None:
        """Store one corpus-level metadata string."""
        raise NotImplementedError

    def get_meta(self, key: str) -> str | None:
        """Read one corpus-level metadata string."""
        raise NotImplementedError

    # -- transactions (the bulk-load durability boundary) --------------

    def begin_chunk(self) -> None:
        """Start an atomic mutation group (no-op by default)."""

    def commit_chunk(self) -> None:
        """Make the mutation group durable (no-op by default)."""

    # -- lifecycle / introspection -------------------------------------

    def stats(self) -> dict:
        """Counts and identity: documents/nodes/edges/attrs/...

        ``nodes`` counts element and text nodes, ``edges`` their parent
        edges (``nodes - documents``) and ``attrs`` attribute nodes.
        """
        raise NotImplementedError

    def dump(self) -> dict:
        """The *entire* store as one canonical JSON-ready dict.

        The differential and crash suites compare stores with this:
        two stores are bit-for-bit equal iff their dumps are.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent; no-op by default)."""

    # -- shared helpers -------------------------------------------------

    @staticmethod
    def _check_name(doc_name: str) -> str:
        if not doc_name:
            raise StoreError("document names must be non-empty")
        return doc_name


def open_backend(location: str) -> StorageBackend:
    """Resolve a location string to a live backend (see module doc)."""
    if not isinstance(location, str) or not location:
        raise StoreError(f"not a storage location: {location!r}")
    if location == ":memory:" or location.startswith("memory://"):
        from repro.store.memory import MemoryBackend

        return MemoryBackend()
    if location.startswith("sqlite://"):
        location = location[len("sqlite://") :]
        if not location:
            raise StoreError("sqlite:// needs a database path")
    elif _SCHEME.match(location):
        raise StoreError(
            f"unsupported storage location {location!r}: use a sqlite "
            f"database path, 'sqlite://PATH', ':memory:' or 'memory://'"
        )
    from repro.store.sqlite import SqliteBackend

    return SqliteBackend(location)
