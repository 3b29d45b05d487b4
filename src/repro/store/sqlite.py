"""The stdlib ``sqlite3`` storage backend.

One database file per corpus, three tables::

    documents(name PRIMARY KEY, sha256, nodes, attrs, body)
    index_states(doc, fd_fingerprint, state)      -- FDIndexState JSON
    meta(key PRIMARY KEY, value)

Each document is one ``documents`` row: its body (the flat preorder
triples of :mod:`repro.store.encoding`) and the node counts
``stats()`` sums.  No query ever selects part of a document, so a
read is one primary-key lookup, and a write is one insert after
dropping the document's FD index states.

Engineering choices, all load-bearing:

* **WAL journal mode** — readers do not block the bulk-loading writer,
  and a crash mid-transaction rolls back to the last committed chunk
  (the durability boundary the crash suite pins).
* **``synchronous=NORMAL``** — fsync at WAL checkpoints, not at every
  commit; with WAL this keeps commits durable against process crash
  (the failure mode we defend), an order of magnitude faster than
  FULL for 10^4-document loads.
* **Old layouts are refused** — a database written in the earlier
  shredded layout (it has a ``nodes`` table) raises
  :class:`~repro.errors.StoreError` on open, before anything is
  written to it: its files must be loaded into a new store.

Reads return rows in canonical ``ORDER BY`` order so SQLite and the
in-memory backend are indistinguishable to callers — the property the
differential suite enforces bit-for-bit.
"""

from __future__ import annotations

import json
import os
import sqlite3

from repro.errors import StoreError
from repro.store.backend import StorageBackend
from repro.store.encoding import DocumentBody

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    name TEXT PRIMARY KEY,
    sha256 TEXT NOT NULL,
    nodes INTEGER NOT NULL,
    attrs INTEGER NOT NULL,
    body TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS documents_sha ON documents(sha256);
CREATE TABLE IF NOT EXISTS index_states (
    doc TEXT NOT NULL,
    fd_fingerprint TEXT NOT NULL,
    state TEXT NOT NULL,
    PRIMARY KEY (doc, fd_fingerprint)
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class SqliteBackend(StorageBackend):
    """Durable corpus storage on one stdlib-``sqlite3`` database file."""

    name = "sqlite"

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        try:
            self._connection = sqlite3.connect(self.path)
            old_layout = self._connection.execute(
                "SELECT 1 FROM sqlite_master "
                "WHERE type = 'table' AND name = 'nodes'"
            ).fetchone()
            if old_layout is None:
                self._connection.execute("PRAGMA journal_mode=WAL")
                self._connection.execute("PRAGMA synchronous=NORMAL")
                self._connection.execute("PRAGMA foreign_keys=ON")
                self._connection.executescript(_SCHEMA)
                self._connection.commit()
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open sqlite corpus store at {self.path}: {error}"
            ) from error
        if old_layout is not None:
            self._connection.close()
            self._connection = None
            raise StoreError(
                f"corpus store {self.path} uses the old node/edge/attr "
                f"layout, which this version cannot read; load the files "
                f"into a new store with 'repro-xml corpus load'"
            )
        self._in_chunk = False

    # -- low-level helpers ---------------------------------------------

    def _execute(self, sql: str, parameters: tuple = ()):
        try:
            return self._connection.execute(sql, parameters)
        except sqlite3.Error as error:
            raise StoreError(f"sqlite operation failed: {error}") from error

    def _autocommit(self) -> None:
        if not self._in_chunk:
            self._connection.commit()

    # -- documents ------------------------------------------------------

    def put_document(
        self, doc_name: str, sha256: str, body: DocumentBody
    ) -> None:
        self._check_name(doc_name)
        self._execute(
            "DELETE FROM index_states WHERE doc = ?", (doc_name,)
        )
        self._execute(
            "INSERT OR REPLACE INTO documents(name, sha256, nodes, attrs, "
            "body) VALUES (?,?,?,?,?)",
            (doc_name, sha256, body.nodes, body.attrs, body.text),
        )
        self._autocommit()

    def get_rows(self, doc_name: str) -> DocumentBody | None:
        row = self._execute(
            "SELECT body, nodes, attrs FROM documents WHERE name = ?",
            (doc_name,),
        ).fetchone()
        return None if row is None else DocumentBody(*row)

    def get_sha(self, doc_name: str) -> str | None:
        row = self._execute(
            "SELECT sha256 FROM documents WHERE name = ?", (doc_name,)
        ).fetchone()
        return None if row is None else row[0]

    def find_by_sha(self, sha256: str) -> str | None:
        row = self._execute(
            "SELECT name FROM documents WHERE sha256 = ? "
            "ORDER BY name LIMIT 1",
            (sha256,),
        ).fetchone()
        return None if row is None else row[0]

    def delete_document(self, doc_name: str) -> None:
        self._execute("DELETE FROM documents WHERE name = ?", (doc_name,))
        self._execute(
            "DELETE FROM index_states WHERE doc = ?", (doc_name,)
        )
        self._autocommit()

    def list_documents(self) -> list[tuple[str, str]]:
        return [
            (row[0], row[1])
            for row in self._execute(
                "SELECT name, sha256 FROM documents ORDER BY name"
            )
        ]

    # -- persisted FD index state --------------------------------------

    def put_index_state(
        self, doc_name: str, fd_fingerprint: str, state: dict
    ) -> None:
        self._execute(
            "INSERT OR REPLACE INTO index_states(doc, fd_fingerprint, state) "
            "VALUES (?,?,?)",
            (
                doc_name,
                fd_fingerprint,
                json.dumps(state, sort_keys=True, separators=(",", ":")),
            ),
        )
        self._autocommit()

    def get_index_state(
        self, doc_name: str, fd_fingerprint: str
    ) -> dict | None:
        row = self._execute(
            "SELECT state FROM index_states "
            "WHERE doc = ? AND fd_fingerprint = ?",
            (doc_name, fd_fingerprint),
        ).fetchone()
        if row is None:
            return None
        try:
            state = json.loads(row[0])
        except ValueError:
            return None
        return state if isinstance(state, dict) else None

    # -- metadata -------------------------------------------------------

    def put_meta(self, key: str, value: str) -> None:
        self._execute(
            "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
            (key, value),
        )
        self._autocommit()

    def get_meta(self, key: str) -> str | None:
        row = self._execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    # -- transactions ---------------------------------------------------

    def begin_chunk(self) -> None:
        self._in_chunk = True

    def commit_chunk(self) -> None:
        self._in_chunk = False
        try:
            self._connection.commit()
        except sqlite3.Error as error:
            raise StoreError(f"sqlite commit failed: {error}") from error

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        documents, nodes, attrs = self._execute(
            "SELECT COUNT(*), COALESCE(SUM(nodes), 0), "
            "COALESCE(SUM(attrs), 0) FROM documents"
        ).fetchone()
        return {
            "backend": self.name,
            "documents": documents,
            "nodes": nodes,
            "edges": nodes - documents,
            "attrs": attrs,
            "index_states": self._execute(
                "SELECT COUNT(*) FROM index_states"
            ).fetchone()[0],
        }

    def dump(self) -> dict:
        documents = {
            name: {
                "sha256": sha,
                "body": body,
                "nodes": nodes,
                "attrs": attrs,
            }
            for name, sha, body, nodes, attrs in self._execute(
                "SELECT name, sha256, body, nodes, attrs FROM documents "
                "ORDER BY name"
            )
        }
        index_states = {
            f"{row[0]}::{row[1]}": json.loads(row[2])
            for row in self._execute(
                "SELECT doc, fd_fingerprint, state FROM index_states "
                "ORDER BY doc, fd_fingerprint"
            )
        }
        meta = {
            row[0]: row[1]
            for row in self._execute("SELECT key, value FROM meta ORDER BY key")
        }
        return {
            "documents": documents,
            "index_states": index_states,
            "meta": meta,
        }

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.commit()
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
