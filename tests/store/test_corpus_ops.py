"""Corpus operation semantics: load skipping, check statuses, apply
guarding, checkpoint resume, and exactly-once store commits.

Everything here runs on the in-memory backend (the differential suite
proves SQLite behaves identically), so the suite stays fast enough for
tier-1 while pinning the behavioral contract of each operation.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.limits import Budget
from repro.store import CorpusStore, MemoryBackend, SqliteBackend
from repro.store.corpus import (
    DEFAULT_CHUNK_SIZE,
    SATISFIED,
    UNKNOWN,
    VIOLATED,
)
from repro.update.apply import Update
from repro.update.operations import set_text
from repro.workload.library import (
    generate_library,
    library_fds,
    library_update_classes,
)
from repro.xmlmodel.serializer import serialize_document


@pytest.fixture
def store():
    instance = CorpusStore(MemoryBackend())
    yield instance
    instance.close()


def _write_corpus(directory, count=6, violate_every=0):
    directory.mkdir(exist_ok=True)
    for index in range(count):
        violate = 1 if violate_every and index % violate_every == 0 else 0
        document = generate_library(
            books=1 + index % 3, seed=index, violate_key=violate
        )
        (directory / f"doc{index:02d}.xml").write_text(
            serialize_document(document), encoding="utf-8"
        )
    return str(directory)


def _price_update():
    return Update(
        library_update_classes()["price-updates"],
        set_text("9.99"),
        name="set-price",
    )


class TestLoad:
    def test_reload_skips_unchanged_by_digest(self, store, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus", count=6)
        first = store.load_paths([corpus], recursive=True, chunk_size=2)
        assert first.loaded == 6
        assert first.errors == 0
        assert first.chunks_committed == 3
        again = store.load_paths([corpus], recursive=True)
        assert again.loaded == 0
        assert again.unchanged == 6
        # touching one file reloads exactly that file
        target = tmp_path / "corpus" / "doc03.xml"
        target.write_text(
            serialize_document(generate_library(books=5, seed=99)),
            encoding="utf-8",
        )
        third = store.load_paths([corpus], recursive=True)
        assert third.loaded == 1
        assert third.unchanged == 5

    def test_bad_members_become_findings_not_exceptions(
        self, store, tmp_path
    ):
        corpus = tmp_path / "corpus"
        _write_corpus(corpus, count=3)
        (corpus / "broken.xml").write_text(
            "<library><book></library>", encoding="utf-8"
        )
        (corpus / "binary.xml").write_bytes(b"\xff\xfe\x00 not utf-8")
        report = store.load_paths([str(corpus)], recursive=True)
        assert report.loaded == 3
        assert report.errors == 2
        assert len(report.findings) == 2
        assert sorted(store.document_names()) == store.document_names()
        assert len(store.document_names()) == 3

    def test_docs_per_second_is_populated(self, store, tmp_path):
        corpus = _write_corpus(tmp_path / "corpus", count=3)
        report = store.load_paths([corpus], recursive=True)
        assert report.elapsed_seconds > 0
        assert report.docs_per_second > 0


class TestCheck:
    def test_statuses_and_verdicts(self, store):
        store.put_document("good.xml", generate_library(books=2, seed=1))
        store.put_document(
            "bad.xml", generate_library(books=2, seed=2, violate_key=1)
        )
        report = store.check_fd_corpus(library_fds())
        by_name = {d.name: d for d in report.documents}
        assert by_name["good.xml"].status == SATISFIED
        assert by_name["bad.xml"].status == VIOLATED
        assert by_name["bad.xml"].verdicts["isbn-key"] == VIOLATED
        assert report.satisfied_count == 1
        assert report.violated_count == 1
        assert report.unknown_count == 0

    def test_warm_check_answers_from_persisted_index(self, store):
        for index in range(4):
            store.put_document(
                f"d{index}.xml", generate_library(books=2, seed=index)
            )
        fds = library_fds()[:2]
        cold = store.check_fd_corpus(fds)
        assert cold.indexed_documents == 4 * len(fds)
        assert cold.index_hits == 0
        warm = store.check_fd_corpus(fds)
        assert warm.index_hits == 4 * len(fds)
        assert warm.indexed_documents == 0
        # verdicts are identical either way
        assert [d.verdicts for d in warm.documents] == [
            d.verdicts for d in cold.documents
        ]

    def test_exhausted_budget_is_unknown_not_wrong(self, store):
        store.put_document("d.xml", generate_library(books=2, seed=0))
        report = store.check_fd_corpus(
            library_fds()[:2], budget=Budget(max_explored_states=1)
        )
        assert report.unknown_count == 1
        assert report.documents[0].status == UNKNOWN
        assert UNKNOWN in report.documents[0].verdicts.values()

    def test_empty_fd_set_is_loud(self, store):
        store.put_document("d.xml", generate_library(books=1, seed=0))
        with pytest.raises(StoreError):
            store.check_fd_corpus([])

    def test_resume_restores_finished_documents(self, store, tmp_path):
        for index in range(4):
            store.put_document(
                f"d{index}.xml", generate_library(books=2, seed=index)
            )

        class Stop(RuntimeError):
            pass

        def interrupt(index, check):
            if index >= 1:
                raise Stop()

        checkpoint = str(tmp_path / "ck")
        with pytest.raises(Stop):
            store.check_fd_corpus(
                library_fds()[:1],
                checkpoint_dir=checkpoint,
                _after_document=interrupt,
            )
        resumed = store.check_fd_corpus(
            library_fds()[:1], checkpoint_dir=checkpoint, resume=True
        )
        assert len(resumed.documents) == 4
        assert [d.restored for d in resumed.documents] == [
            True,
            True,
            False,
            False,
        ]


class _CountingConnection:
    """A ``sqlite3`` connection that counts its commits."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.commits = 0

    def commit(self) -> None:
        self.commits += 1
        self._inner.commit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counting_store(path, documents):
    backend = SqliteBackend(str(path))
    store = CorpusStore(backend)
    backend.begin_chunk()
    for index in range(documents):
        store.put_document(
            f"d{index:03d}.xml", generate_library(books=1, seed=index)
        )
    backend.commit_chunk()
    counter = _CountingConnection(backend._connection)
    backend._connection = counter
    return store, counter


class TestIndexStateCommits:
    """A cold check stages index states and commits them a load chunk
    at a time — not once per (document, FD)."""

    def test_cold_check_commits_once_per_load_chunk(self, tmp_path):
        documents = DEFAULT_CHUNK_SIZE + 6
        fds = library_fds()[:2]
        store, counter = _counting_store(tmp_path / "c.db", documents)
        with store:
            cold = store.check_fd_corpus(fds)
            assert cold.indexed_documents == documents * len(fds)
            assert counter.commits == 2
            warm = store.check_fd_corpus(fds)
            assert warm.index_hits == documents * len(fds)
            assert [d.verdicts for d in warm.documents] == [
                d.verdicts for d in cold.documents
            ]

    def test_interrupted_check_commits_the_states_it_computed(self, tmp_path):
        fds = library_fds()[:2]
        store, counter = _counting_store(tmp_path / "c.db", 5)

        class Stop(RuntimeError):
            pass

        def interrupt(index, check):
            if index == 2:
                raise Stop()

        with store:
            with pytest.raises(Stop):
                store.check_fd_corpus(fds, _after_document=interrupt)
            assert counter.commits == 1
            warm = store.check_fd_corpus(fds)
            assert [d.from_index for d in warm.documents] == [
                2, 2, 2, 0, 0
            ]


class TestApply:
    def test_certified_pairs_skip_rechecks(self, store):
        for index in range(3):
            store.put_document(
                f"d{index}.xml", generate_library(books=2, seed=index)
            )
        fds = library_fds()[:2]
        update = _price_update()
        certified = {
            (fd.name, update.update_class.name) for fd in fds
        }
        skipping = store.apply_guarded_corpus(
            [update], fds, certified=certified
        )
        assert skipping.committed_count == 3
        assert skipping.checks_run == 0
        assert skipping.checks_skipped == len(fds) * 3
        # with nothing certified every pair is rechecked per document
        rechecking = store.apply_guarded_corpus(
            [update], fds, certified=set()
        )
        assert rechecking.checks_run == len(fds) * 3
        assert rechecking.checks_skipped == 0

    def test_empty_batch_is_loud(self, store):
        store.put_document("d.xml", generate_library(books=1, seed=0))
        with pytest.raises(StoreError):
            store.apply_guarded_corpus([], library_fds())

    def test_committed_apply_replaces_stored_document(self, store):
        store.put_document("d.xml", generate_library(books=2, seed=3))
        report = store.apply_guarded_corpus(
            [_price_update()], [], certified=set()
        )
        assert report.committed_count == 1
        document = store.get_document("d.xml")
        prices = {
            child.children[0].value
            for book in document.root.children[0].children
            if book.label == "book"
            for child in book.children
            if child.label == "price"
        }
        assert prices == {"9.99"}
        # the stored digest now names the updated content
        assert store.backend.get_sha("d.xml") == report.documents[0].result_sha

    def test_crash_between_journal_and_commit_reapplies_once(
        self, store, tmp_path
    ):
        """The exactly-once gate: a journaled outcome is honored only
        when the stored digest proves the store commit happened."""
        original = generate_library(books=2, seed=7)
        input_sha = store.put_document("d.xml", original)

        class Stop(RuntimeError):
            pass

        def interrupt(index, record):
            raise Stop()

        checkpoint = str(tmp_path / "ck")
        with pytest.raises(Stop):
            store.apply_guarded_corpus(
                [_price_update()],
                certified=set(),
                checkpoint_dir=checkpoint,
                _after_document=interrupt,
            )
        committed_sha = store.backend.get_sha("d.xml")
        assert committed_sha != input_sha  # the store commit landed

        # crash case A: commit landed after the journal record — resume
        # restores the outcome without touching the document again
        resumed = store.apply_guarded_corpus(
            [_price_update()],
            certified=set(),
            checkpoint_dir=checkpoint,
            resume=True,
        )
        assert resumed.documents[0].restored
        assert store.backend.get_sha("d.xml") == committed_sha

        # crash case B: journal record written but the store commit was
        # lost — simulated by reverting the document to its input form;
        # resume must re-apply (the record's result_sha no longer
        # matches) and converge on the same result
        store.put_document("d.xml", original, sha256=input_sha)
        reapplied = store.apply_guarded_corpus(
            [_price_update()],
            certified=set(),
            checkpoint_dir=checkpoint,
            resume=True,
        )
        assert not reapplied.documents[0].restored
        assert reapplied.documents[0].committed
        assert store.backend.get_sha("d.xml") == committed_sha
