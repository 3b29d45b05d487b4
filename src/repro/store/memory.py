"""The in-process storage backend.

Plain dictionaries behind the :class:`~repro.store.backend
.StorageBackend` contract.  It exists for two reasons: zero-setup
corpora (tests, one-shot scripts) and as the *oracle* the differential
suite holds the SQLite backend against — every operation must behave
bit-for-bit identically on both.

``begin_chunk``/``commit_chunk`` stage mutations and apply them only
at the commit, mirroring the SQLite transaction boundary, so even the
(unobservable, since memory does not survive a crash) intermediate
states line up with the durable backend's.
"""

from __future__ import annotations

from repro.store.backend import StorageBackend
from repro.store.encoding import DocumentBody


class MemoryBackend(StorageBackend):
    """Dictionary-backed corpus storage (process lifetime)."""

    name = "memory"

    def __init__(self) -> None:
        self._bodies: dict[str, DocumentBody] = {}
        self._shas: dict[str, str] = {}
        self._index_states: dict[tuple[str, str], dict] = {}
        self._meta: dict[str, str] = {}
        self._staged: list[tuple] = []
        self._in_chunk = False

    # -- documents ------------------------------------------------------

    def put_document(
        self, doc_name: str, sha256: str, body: DocumentBody
    ) -> None:
        self._check_name(doc_name)
        if self._in_chunk:
            self._staged.append(("put", doc_name, sha256, body))
            return
        self._apply_put(doc_name, sha256, body)

    def _apply_put(
        self, doc_name: str, sha256: str, body: DocumentBody
    ) -> None:
        self._bodies[doc_name] = body
        self._shas[doc_name] = sha256
        # replacing content invalidates every persisted index state
        for key in [k for k in self._index_states if k[0] == doc_name]:
            del self._index_states[key]

    def get_rows(self, doc_name: str) -> DocumentBody | None:
        return self._bodies.get(doc_name)

    def get_sha(self, doc_name: str) -> str | None:
        return self._shas.get(doc_name)

    def find_by_sha(self, sha256: str) -> str | None:
        matches = [
            name for name, sha in self._shas.items() if sha == sha256
        ]
        return min(matches) if matches else None

    def delete_document(self, doc_name: str) -> None:
        if self._in_chunk:
            self._staged.append(("delete", doc_name))
            return
        self._apply_delete(doc_name)

    def _apply_delete(self, doc_name: str) -> None:
        self._bodies.pop(doc_name, None)
        self._shas.pop(doc_name, None)
        for key in [k for k in self._index_states if k[0] == doc_name]:
            del self._index_states[key]

    def list_documents(self) -> list[tuple[str, str]]:
        return sorted(self._shas.items())

    # -- persisted FD index state --------------------------------------

    def put_index_state(
        self, doc_name: str, fd_fingerprint: str, state: dict
    ) -> None:
        if self._in_chunk:
            self._staged.append(("index", doc_name, fd_fingerprint, state))
            return
        self._index_states[(doc_name, fd_fingerprint)] = state

    def get_index_state(
        self, doc_name: str, fd_fingerprint: str
    ) -> dict | None:
        return self._index_states.get((doc_name, fd_fingerprint))

    # -- metadata -------------------------------------------------------

    def put_meta(self, key: str, value: str) -> None:
        if self._in_chunk:
            self._staged.append(("meta", key, value))
            return
        self._meta[key] = value

    def get_meta(self, key: str) -> str | None:
        return self._meta.get(key)

    # -- transactions ---------------------------------------------------

    def begin_chunk(self) -> None:
        self._in_chunk = True

    def commit_chunk(self) -> None:
        staged, self._staged = self._staged, []
        self._in_chunk = False
        for entry in staged:
            if entry[0] == "put":
                self._apply_put(entry[1], entry[2], entry[3])
            elif entry[0] == "delete":
                self._apply_delete(entry[1])
            elif entry[0] == "index":
                self._index_states[(entry[1], entry[2])] = entry[3]
            else:
                self._meta[entry[1]] = entry[2]

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        nodes = sum(body.nodes for body in self._bodies.values())
        return {
            "backend": self.name,
            "documents": len(self._bodies),
            "nodes": nodes,
            "edges": nodes - len(self._bodies),
            "attrs": sum(body.attrs for body in self._bodies.values()),
            "index_states": len(self._index_states),
        }

    def dump(self) -> dict:
        return {
            "documents": {
                name: {
                    "sha256": self._shas[name],
                    "body": body.text,
                    "nodes": body.nodes,
                    "attrs": body.attrs,
                }
                for name, body in sorted(self._bodies.items())
            },
            "index_states": {
                f"{name}::{fingerprint}": state
                for (name, fingerprint), state in sorted(
                    self._index_states.items()
                )
            },
            "meta": dict(sorted(self._meta.items())),
        }
