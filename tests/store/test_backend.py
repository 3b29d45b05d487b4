"""The StorageBackend contract, exercised uniformly on both backends.

Every test in :class:`TestBackendContract` runs twice — once against
:class:`~repro.store.memory.MemoryBackend`, once against
:class:`~repro.store.sqlite.SqliteBackend` — which is the contract's
first line of defense: a behavior either backend grew on its own fails
here before the differential suite ever runs.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.store import MemoryBackend, SqliteBackend, open_backend
from repro.store.encoding import encode_document
from repro.workload.library import generate_library
from repro.workload.random_docs import random_document


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        instance = MemoryBackend()
    else:
        instance = SqliteBackend(tmp_path / "corpus.db")
    yield instance
    instance.close()


def _rows(seed: int = 0):
    return encode_document(random_document(seed=seed))


class TestBackendContract:
    def test_put_get_roundtrip(self, backend):
        rows = _rows(1)
        backend.put_document("a.xml", "sha-a", rows)
        assert backend.get_rows("a.xml") == rows
        assert backend.get_sha("a.xml") == "sha-a"

    def test_missing_document(self, backend):
        assert backend.get_rows("absent.xml") is None
        assert backend.get_sha("absent.xml") is None
        assert backend.find_by_sha("nope") is None

    def test_replace_overwrites(self, backend):
        backend.put_document("a.xml", "sha-1", _rows(1))
        replacement = _rows(2)
        backend.put_document("a.xml", "sha-2", replacement)
        assert backend.get_sha("a.xml") == "sha-2"
        assert backend.get_rows("a.xml") == replacement
        assert backend.stats()["documents"] == 1

    def test_replace_drops_index_states(self, backend):
        backend.put_document("a.xml", "sha-1", _rows(1))
        backend.put_index_state("a.xml", "fp", {"satisfied": True})
        assert backend.get_index_state("a.xml", "fp") == {"satisfied": True}
        backend.put_document("a.xml", "sha-2", _rows(2))
        assert backend.get_index_state("a.xml", "fp") is None

    def test_delete_document(self, backend):
        backend.put_document("a.xml", "sha-1", _rows(1))
        backend.put_index_state("a.xml", "fp", {"satisfied": True})
        backend.delete_document("a.xml")
        assert backend.get_rows("a.xml") is None
        assert backend.get_index_state("a.xml", "fp") is None
        assert backend.stats()["documents"] == 0

    def test_list_documents_sorted(self, backend):
        for name in ("c.xml", "a.xml", "b.xml"):
            backend.put_document(name, f"sha-{name}", _rows(1))
        assert [name for name, _ in backend.list_documents()] == [
            "a.xml",
            "b.xml",
            "c.xml",
        ]

    def test_find_by_sha_smallest_name_wins(self, backend):
        backend.put_document("b.xml", "same", _rows(1))
        backend.put_document("a.xml", "same", _rows(1))
        assert backend.find_by_sha("same") == "a.xml"

    def test_meta_roundtrip(self, backend):
        assert backend.get_meta("k") is None
        backend.put_meta("k", "v1")
        backend.put_meta("k", "v2")
        assert backend.get_meta("k") == "v2"

    def test_empty_name_rejected(self, backend):
        with pytest.raises(StoreError):
            backend.put_document("", "sha", _rows(1))

    def test_dump_shape(self, backend):
        backend.put_document("a.xml", "sha-a", _rows(1))
        backend.put_index_state("a.xml", "fp", {"satisfied": True})
        backend.put_meta("k", "v")
        dump = backend.dump()
        assert set(dump) == {"documents", "index_states", "meta"}
        assert dump["documents"]["a.xml"]["sha256"] == "sha-a"
        assert dump["index_states"]["a.xml::fp"] == {"satisfied": True}
        assert dump["meta"] == {"k": "v"}

    def test_chunk_commit_boundary(self, backend):
        backend.begin_chunk()
        backend.put_document("a.xml", "sha-a", _rows(1))
        backend.commit_chunk()
        assert backend.get_sha("a.xml") == "sha-a"


class TestSqliteDurability:
    def test_committed_chunks_survive_reopen(self, tmp_path):
        path = tmp_path / "corpus.db"
        first = SqliteBackend(path)
        first.begin_chunk()
        first.put_document("a.xml", "sha-a", _rows(1))
        first.commit_chunk()
        first.close()
        second = SqliteBackend(path)
        assert second.get_sha("a.xml") == "sha-a"
        second.close()

    def test_close_is_idempotent(self, tmp_path):
        backend = SqliteBackend(tmp_path / "corpus.db")
        backend.close()
        backend.close()

    def test_bad_location_is_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            SqliteBackend(tmp_path / "missing-dir" / "corpus.db")


class TestOpenBackend:
    def test_memory_locations(self):
        for location in (":memory:", "memory://"):
            backend = open_backend(location)
            assert backend.name == "memory"
            backend.close()

    def test_path_is_sqlite(self, tmp_path):
        backend = open_backend(str(tmp_path / "x.db"))
        assert backend.name == "sqlite"
        backend.close()

    def test_sqlite_prefix(self, tmp_path):
        backend = open_backend(f"sqlite://{tmp_path / 'y.db'}")
        assert backend.name == "sqlite"
        backend.close()

    @staticmethod
    def _assert_refused(location):
        with pytest.raises(StoreError) as info:
            open_backend(location)
        message = str(info.value)
        assert location in message
        for form in ("sqlite://PATH", ":memory:", "memory://"):
            assert form in message

    def test_postgres_degrades_structurally(self):
        # no Postgres backend ships: one StoreError naming the location
        # and every accepted form, not an import failure
        self._assert_refused("postgres://localhost/corpus")

    def test_postgresql_scheme_also_recognized(self, tmp_path, monkeypatch):
        # taken as a scheme, not as a relative SQLite path that happens
        # to be openable here
        monkeypatch.chdir(tmp_path)
        (tmp_path / "postgresql:" / "localhost").mkdir(parents=True)
        self._assert_refused("postgresql://localhost/corpus")
        assert not (tmp_path / "postgresql:" / "localhost" / "corpus").exists()

    def test_unknown_scheme_names_the_accepted_forms(self):
        for location in ("mysql://db", "s3://bucket/corpus.db"):
            self._assert_refused(location)


def test_backends_store_identical_rows(tmp_path):
    """The same documents produce byte-identical dumps on both backends."""
    memory = MemoryBackend()
    sqlite = SqliteBackend(tmp_path / "corpus.db")
    for index in range(8):
        document = (
            generate_library(books=3, seed=index)
            if index % 2
            else random_document(seed=index)
        )
        rows = encode_document(document)
        memory.put_document(f"doc{index}.xml", f"sha-{index}", rows)
        sqlite.put_document(f"doc{index}.xml", f"sha-{index}", rows)
    assert memory.dump() == sqlite.dump()
    memory.close()
    sqlite.close()
