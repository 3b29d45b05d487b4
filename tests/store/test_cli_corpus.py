"""The ``repro-xml corpus`` subcommand: exit codes and outputs.

Load: 0 clean / 2 member errors.  Check-fd: 0 satisfied / 2 violated /
3 unknown.  Apply: 0 all committed / 2 rollbacks.  ``--json-out``
payloads round-trip the library reports; a second load of the same
corpus is recognized as unchanged.  A store in the old shredded layout
is refused with exit 64 by every command that opens a store.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import main
from repro.errors import StoreError
from repro.store import CorpusStore
from repro.workload.library import generate_library
from repro.xmlmodel.serializer import serialize_document

ISBN_KEY = "(/library, ((book/@isbn) -> book))"
ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"


def _write_corpus(directory, count=4, violate_every=0):
    directory.mkdir(exist_ok=True)
    for index in range(count):
        violate = 1 if violate_every and index % violate_every == 0 else 0
        document = generate_library(
            books=2, seed=index, violate_key=violate
        )
        (directory / f"doc{index:02d}.xml").write_text(
            serialize_document(document), encoding="utf-8"
        )
    return str(directory)


@pytest.fixture
def loaded_store(tmp_path):
    """A sqlite store with four clean documents already loaded."""
    corpus = _write_corpus(tmp_path / "corpus", count=4)
    db = str(tmp_path / "store.db")
    assert main(["corpus", "load", db, corpus, "--recursive"]) == 0
    return db


class TestLoad:
    def test_clean_load_and_unchanged_reload(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "corpus", count=4)
        db = str(tmp_path / "store.db")
        assert main(["corpus", "load", db, corpus, "--recursive"]) == 0
        assert "loaded 4 document(s)" in capsys.readouterr().out
        assert main(["corpus", "load", db, corpus, "--recursive"]) == 0
        assert "4 unchanged" in capsys.readouterr().out

    def test_member_errors_exit_two(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "corpus", count=2)
        (tmp_path / "corpus" / "broken.xml").write_text(
            "<library><book></library>", encoding="utf-8"
        )
        db = str(tmp_path / "store.db")
        out_path = tmp_path / "load.json"
        code = main(
            [
                "corpus",
                "load",
                db,
                corpus,
                "--recursive",
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 2
        assert "1 error(s)" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["loaded"] == 2
        assert payload["errors"] == 1
        assert payload["findings"][0]["kind"] == "parse-error"

    def test_metrics_flag_prints_counters(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "corpus", count=2)
        db = str(tmp_path / "store.db")
        code = main(
            ["corpus", "load", db, corpus, "--recursive", "--metrics"]
        )
        assert code == 0
        assert "corpus.load.documents" in capsys.readouterr().err


class TestCheckFD:
    def test_satisfied_corpus_exits_zero(self, loaded_store, capsys):
        code = main(
            ["corpus", "check-fd", loaded_store, "--fd", ISBN_TITLE]
        )
        assert code == 0
        assert "4 satisfied" in capsys.readouterr().out

    def test_violations_exit_two(self, tmp_path, capsys):
        corpus = _write_corpus(
            tmp_path / "corpus", count=4, violate_every=2
        )
        db = str(tmp_path / "store.db")
        assert main(["corpus", "load", db, corpus, "--recursive"]) == 0
        capsys.readouterr()
        out_path = tmp_path / "check.json"
        code = main(
            [
                "corpus",
                "check-fd",
                db,
                "--fd",
                ISBN_KEY,
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 2
        assert "violated" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["violated"] == 2
        assert payload["summary"]["satisfied"] == 2

    def test_exhausted_budget_exits_three(self, loaded_store, capsys):
        code = main(
            [
                "corpus",
                "check-fd",
                loaded_store,
                "--fd",
                ISBN_TITLE,
                "--max-explored",
                "1",
            ]
        )
        assert code == 3
        assert "unknown" in capsys.readouterr().out

    def test_warm_check_reports_index_hits(self, loaded_store, capsys):
        assert (
            main(["corpus", "check-fd", loaded_store, "--fd", ISBN_TITLE])
            == 0
        )
        capsys.readouterr()
        assert (
            main(["corpus", "check-fd", loaded_store, "--fd", ISBN_TITLE])
            == 0
        )
        assert "4 index hit(s)" in capsys.readouterr().out


class TestApply:
    def test_clean_apply_exits_zero(self, loaded_store, capsys):
        out = None
        code = main(
            [
                "corpus",
                "apply",
                loaded_store,
                "--set",
                "/library/book/price=9.99",
                "--fd",
                ISBN_TITLE,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 committed, 0 rolled back" in out

    def test_bad_set_spec_exits_sixtyfour(self, loaded_store, capsys):
        code = main(
            ["corpus", "apply", loaded_store, "--set", "no-equals-sign"]
        )
        assert code == 64
        assert "XPATH=VALUE" in capsys.readouterr().err

    def test_rollbacks_exit_two(self, tmp_path, capsys):
        # setting every isbn to one value breaks the isbn key on every
        # multi-book document: the batch must roll back corpus-wide
        corpus = _write_corpus(tmp_path / "corpus", count=3)
        db = str(tmp_path / "store.db")
        assert main(["corpus", "load", db, corpus, "--recursive"]) == 0
        capsys.readouterr()
        out_path = tmp_path / "apply.json"
        code = main(
            [
                "corpus",
                "apply",
                db,
                "--set",
                "/library/book/@isbn=same",
                "--fd",
                ISBN_KEY,
                "--json-out",
                str(out_path),
            ]
        )
        assert code == 2
        assert "rolled back" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["rolled_back"] == 3
        assert payload["summary"]["committed"] == 0


class TestStats:
    def test_stats_reports_row_counts(self, loaded_store, capsys):
        code = main(["corpus", "stats", loaded_store])
        assert code == 0
        out = capsys.readouterr().out
        assert "documents: 4" in out
        assert "backend: sqlite" in out


#: the tables of the earlier shredded layout, as it created them
OLD_LAYOUT = """
CREATE TABLE documents (
    name TEXT PRIMARY KEY, sha256 TEXT NOT NULL, node_count INTEGER NOT NULL
);
CREATE TABLE nodes (
    doc TEXT NOT NULL, node_id INTEGER NOT NULL, kind TEXT NOT NULL,
    label TEXT NOT NULL, value TEXT, PRIMARY KEY (doc, node_id)
);
CREATE TABLE edges (
    doc TEXT NOT NULL, parent_id INTEGER NOT NULL, child_id INTEGER NOT NULL,
    position INTEGER NOT NULL, PRIMARY KEY (doc, parent_id, child_id)
);
CREATE TABLE attrs (
    doc TEXT NOT NULL, owner_id INTEGER NOT NULL, position INTEGER NOT NULL,
    name TEXT NOT NULL, value TEXT NOT NULL, PRIMARY KEY (doc, owner_id, position)
);
CREATE TABLE index_states (
    doc TEXT NOT NULL, fd_fingerprint TEXT NOT NULL, state TEXT NOT NULL,
    PRIMARY KEY (doc, fd_fingerprint)
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
INSERT INTO documents VALUES ('a.xml', 'sha-a', 2);
INSERT INTO nodes VALUES ('a.xml', 0, 'e', '/', NULL), ('a.xml', 1, 'e', 'a', NULL);
INSERT INTO edges VALUES ('a.xml', 0, 1, 0);
"""


class TestOldLayout:
    @pytest.fixture
    def old_store(self, tmp_path):
        db = tmp_path / "old.db"
        connection = sqlite3.connect(db)
        connection.executescript(OLD_LAYOUT)
        connection.commit()
        connection.close()
        return db

    def test_backend_refuses_without_writing(self, old_store):
        before = old_store.read_bytes()
        with pytest.raises(StoreError, match="into a new store"):
            CorpusStore.open(str(old_store))
        assert old_store.read_bytes() == before

    @pytest.mark.parametrize(
        "command",
        [
            ["corpus", "load", "{db}", "{corpus}"],
            ["corpus", "check-fd", "{db}", "--fd", ISBN_TITLE],
            ["corpus", "apply", "{db}", "--set", "/library/book/price=1"],
            ["corpus", "stats", "{db}"],
            ["audit", "{corpus}", "--store", "{db}"],
        ],
        ids=["load", "check-fd", "apply", "stats", "audit"],
    )
    def test_every_entry_point_exits_64(
        self, old_store, tmp_path, capsys, command
    ):
        corpus = _write_corpus(tmp_path / "corpus", count=1)
        argv = [
            part.format(db=old_store, corpus=corpus) for part in command
        ]
        assert main(argv) == 64
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert "old node/edge/attr layout" in lines[0]
        assert "into a new store" in lines[0]
