"""Auditing against a corpus store: cached parses, pinned hard.

The regression this suite pins: the audit used to re-parse every file
even when its exact bytes were already stored in a corpus store.
With ``AuditOptions.store`` set, a loaded corpus audits with *zero*
``parse_document`` calls (counted via monkeypatch, not inferred), the
report carries the hit/miss tallies, and the verdicts are identical
with and without the store.
"""

from __future__ import annotations

import pytest

import repro.audit.runner as runner_module
from repro.audit import AuditOptions, audit_corpus
from repro.cli import main
from repro.store import CorpusStore, MemoryBackend
from repro.workload.library import generate_library
from repro.xmlmodel.serializer import serialize_document

ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"


@pytest.fixture
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for index in range(5):
        document = generate_library(
            books=2, seed=index, violate_key=1 if index == 3 else 0
        )
        (directory / f"doc{index:02d}.xml").write_text(
            serialize_document(document), encoding="utf-8"
        )
    return directory


@pytest.fixture
def loaded_store(corpus_dir):
    store = CorpusStore(MemoryBackend())
    report = store.load_paths([str(corpus_dir)], recursive=True)
    assert report.loaded == 5
    yield store
    store.close()


def _count_parses(monkeypatch):
    """Count every parse_document the audit runner performs."""
    calls = []
    original = runner_module.parse_document

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner_module, "parse_document", counting)
    return calls


class TestNoReparse:
    def test_loaded_corpus_audits_with_zero_parses(
        self, corpus_dir, loaded_store, monkeypatch
    ):
        calls = _count_parses(monkeypatch)
        report = audit_corpus(
            [str(corpus_dir)],
            AuditOptions(recursive=True, store=loaded_store),
        )
        assert len(report.documents) == 5
        assert calls == [], (
            f"{len(calls)} document(s) re-parsed despite being in the store"
        )
        assert report.store_parse_hits == 5
        assert report.store_parse_misses == 0
        assert all(d.store_hit is True for d in report.documents)

    def test_store_miss_falls_back_to_parsing(
        self, corpus_dir, loaded_store, monkeypatch
    ):
        # touch one file after the load: its bytes are no longer in the
        # store, so exactly that one is re-parsed (counted, not assumed)
        target = corpus_dir / "doc01.xml"
        target.write_text(
            serialize_document(generate_library(books=4, seed=77)),
            encoding="utf-8",
        )
        calls = _count_parses(monkeypatch)
        report = audit_corpus(
            [str(corpus_dir)],
            AuditOptions(recursive=True, store=loaded_store),
        )
        assert len(calls) == 1
        assert report.store_parse_hits == 4
        assert report.store_parse_misses == 1

    def test_no_store_leaves_hit_field_unset(self, corpus_dir):
        report = audit_corpus(
            [str(corpus_dir)], AuditOptions(recursive=True)
        )
        assert all(d.store_hit is None for d in report.documents)
        assert report.store_parse_hits == 0
        assert report.store_parse_misses == 0

    def test_damaged_store_degrades_to_reparse(
        self, corpus_dir, loaded_store, monkeypatch
    ):
        def explode(sha):
            raise RuntimeError("store is on fire")

        monkeypatch.setattr(
            loaded_store, "get_document_by_sha", explode
        )
        calls = _count_parses(monkeypatch)
        report = audit_corpus(
            [str(corpus_dir)],
            AuditOptions(recursive=True, store=loaded_store),
        )
        assert len(calls) == 5
        assert report.store_parse_misses == 5


class TestVerdictEquivalence:
    def test_verdicts_identical_with_and_without_store(
        self, corpus_dir, loaded_store
    ):
        from repro.fd.linear import LinearFD, translate_linear_fd

        fds = [
            translate_linear_fd(
                LinearFD.parse(
                    "(/library, ((book/@isbn) -> book))", name="isbn-key"
                )
            )
        ]
        plain = audit_corpus(
            [str(corpus_dir)], AuditOptions(recursive=True, fds=fds)
        )
        cached = audit_corpus(
            [str(corpus_dir)],
            AuditOptions(recursive=True, fds=fds, store=loaded_store),
        )
        strip = {"store_hit", "elapsed_ms"}

        def comparable(corpus_report):
            documents = []
            for document in corpus_report.documents:
                payload = document.to_json_dict()
                for key in strip:
                    payload.pop(key, None)
                documents.append(payload)
            return documents

        assert comparable(plain) == comparable(cached)
        # the violating document is flagged on both sides
        assert plain.documents[3].findings
        assert cached.documents[3].findings


class TestCLIStoreFlag:
    def test_audit_store_flag_end_to_end(
        self, tmp_path, corpus_dir, capsys
    ):
        db = str(tmp_path / "store.db")
        assert (
            main(["corpus", "load", db, str(corpus_dir), "--recursive"])
            == 0
        )
        capsys.readouterr()
        import json

        out_path = tmp_path / "audit.json"
        code = main(
            [
                "audit",
                str(corpus_dir),
                "--recursive",
                "--fd",
                ISBN_TITLE,
                "--store",
                db,
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["store_parse_hits"] == 5
        assert payload["summary"]["store_parse_misses"] == 0
