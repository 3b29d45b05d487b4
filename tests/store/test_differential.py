"""Differential backend equivalence: memory vs SQLite, 200+ corpora.

Every test here builds the *same* randomized corpus in a
:class:`~repro.store.memory.MemoryBackend` store and a
:class:`~repro.store.sqlite.SqliteBackend` store, runs the same corpus
operation on both, and demands two equalities:

* the operation reports are identical (modulo ``elapsed_seconds``,
  the only wall-clock field);
* the backend :meth:`dump` snapshots are identical bit-for-bit —
  stored bodies and counts, content digests, persisted FD index
  states.

The corpus population spans plain checks (120 seeds), budget-starved
checks that land UNKNOWN (30), checkpoint-interrupted-and-resumed
checks (30), guarded applies (30), and resumed applies (10) — 220
corpora total, satisfying the suite's >= 200 floor.
"""

from __future__ import annotations

import functools

import pytest

from repro.limits import Budget
from repro.store import CorpusStore, MemoryBackend, SqliteBackend
from repro.update.apply import Update
from repro.update.operations import set_text
from repro.workload.library import (
    generate_library,
    library_fds,
    library_update_classes,
)
from repro.workload.random_docs import random_document

PLAIN_SEEDS = range(120)
BUDGET_SEEDS = range(120, 150)
RESUME_SEEDS = range(150, 180)
APPLY_SEEDS = range(180, 210)
APPLY_RESUME_SEEDS = range(210, 220)

TINY_BUDGET = Budget(max_explored_states=1)


class _Interrupt(RuntimeError):
    """Raised from the ``_after_document`` hook to abort a run."""


def _fds():
    return library_fds()[:2]


def _updates():
    classes = library_update_classes()
    return [
        Update(classes["price-updates"], set_text("9.99"), name="set-price")
    ]


@functools.lru_cache(maxsize=1)
def _certified():
    """One shared IC certification (the matrix is corpus-independent)."""
    with CorpusStore.open(":memory:") as probe:
        certified, _ = probe.certify_batch(_updates(), _fds())
    return frozenset(certified)


def _corpus_documents(seed: int):
    """A small deterministic corpus: libraries (some violating) + noise."""
    documents = []
    count = 2 + seed % 3
    for index in range(count):
        local = seed * 31 + index
        if local % 3 == 2:
            document = random_document(
                seed=local, max_depth=2 + local % 2, max_children=2
            )
        else:
            document = generate_library(
                books=1 + local % 3,
                seed=local,
                violate_key=1 if local % 5 == 0 else 0,
                violate_title=1 if local % 7 == 0 else 0,
            )
        documents.append((f"doc{index:02d}.xml", document))
    return documents


def _twin_stores(tmp_path, seed: int):
    """The same corpus behind a memory backend and a sqlite backend."""
    memory = CorpusStore(MemoryBackend())
    sqlite = CorpusStore(SqliteBackend(tmp_path / f"corpus-{seed}.db"))
    for name, document in _corpus_documents(seed):
        sha_memory = memory.put_document(name, document)
        sha_sqlite = sqlite.put_document(name, document)
        assert sha_memory == sha_sqlite
    return memory, sqlite


def _payload(report) -> dict:
    """A report's JSON form minus the wall-clock field."""
    data = report.to_json_dict()
    data.pop("elapsed_seconds", None)
    return data


class TestCheckDifferential:
    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_check_reports_and_dumps_agree(self, tmp_path, seed):
        memory, sqlite = _twin_stores(tmp_path, seed)
        try:
            first = _payload(memory.check_fd_corpus(_fds()))
            second = _payload(sqlite.check_fd_corpus(_fds()))
            assert first == second
            assert memory.backend.dump() == sqlite.backend.dump()
            if seed % 8 == 0:
                # warm re-check: persisted index states answer on both
                warm_memory = memory.check_fd_corpus(_fds())
                warm_sqlite = sqlite.check_fd_corpus(_fds())
                assert _payload(warm_memory) == _payload(warm_sqlite)
                assert warm_memory.index_hits == len(_fds()) * len(
                    memory.document_names()
                )
        finally:
            memory.close()
            sqlite.close()


class TestBudgetedDifferential:
    @pytest.mark.parametrize("seed", BUDGET_SEEDS)
    def test_starved_checks_agree(self, tmp_path, seed):
        memory, sqlite = _twin_stores(tmp_path, seed)
        try:
            first = memory.check_fd_corpus(_fds(), budget=TINY_BUDGET)
            second = sqlite.check_fd_corpus(_fds(), budget=TINY_BUDGET)
            assert _payload(first) == _payload(second)
            assert memory.backend.dump() == sqlite.backend.dump()
        finally:
            memory.close()
            sqlite.close()


class TestResumeDifferential:
    @pytest.mark.parametrize("seed", RESUME_SEEDS)
    def test_interrupted_then_resumed_checks_agree(self, tmp_path, seed):
        memory, sqlite = _twin_stores(tmp_path, seed)
        stop_after = seed % 2  # interrupt after the 1st or 2nd document

        def interrupt(index, check):
            if index >= stop_after:
                raise _Interrupt(f"stop after document {index}")

        try:
            finished = []
            for store, label in ((memory, "memory"), (sqlite, "sqlite")):
                checkpoint = str(tmp_path / f"ck-{label}")
                with pytest.raises(_Interrupt):
                    store.check_fd_corpus(
                        _fds(),
                        checkpoint_dir=checkpoint,
                        _after_document=interrupt,
                    )
                finished.append(
                    store.check_fd_corpus(
                        _fds(), checkpoint_dir=checkpoint, resume=True
                    )
                )
            first, second = finished
            assert _payload(first) == _payload(second)
            assert memory.backend.dump() == sqlite.backend.dump()
            # the interrupted prefix really was restored, not re-run
            restored = [d for d in first.documents if d.restored]
            assert len(restored) == len(
                [d for d in second.documents if d.restored]
            )
            assert restored, "resume restored nothing — journal lost"
        finally:
            memory.close()
            sqlite.close()


class TestApplyDifferential:
    @pytest.mark.parametrize("seed", APPLY_SEEDS)
    def test_guarded_applies_agree(self, tmp_path, seed):
        memory, sqlite = _twin_stores(tmp_path, seed)
        try:
            first = memory.apply_guarded_corpus(
                _updates(), _fds(), certified=_certified()
            )
            second = sqlite.apply_guarded_corpus(
                _updates(), _fds(), certified=_certified()
            )
            assert _payload(first) == _payload(second)
            assert memory.backend.dump() == sqlite.backend.dump()
            # committed documents must materialize identically afterwards
            for name in memory.document_names():
                left = memory.get_document(name)
                right = sqlite.get_document(name)
                assert (left is None) == (right is None)
        finally:
            memory.close()
            sqlite.close()


class TestApplyResumeDifferential:
    @pytest.mark.parametrize("seed", APPLY_RESUME_SEEDS)
    def test_interrupted_then_resumed_applies_agree(self, tmp_path, seed):
        memory, sqlite = _twin_stores(tmp_path, seed)

        def interrupt(index, record):
            if index >= 0:
                raise _Interrupt(f"stop after document {index}")

        try:
            finished = []
            for store, label in ((memory, "memory"), (sqlite, "sqlite")):
                checkpoint = str(tmp_path / f"ck-{label}")
                with pytest.raises(_Interrupt):
                    store.apply_guarded_corpus(
                        _updates(),
                        _fds(),
                        certified=_certified(),
                        checkpoint_dir=checkpoint,
                        _after_document=interrupt,
                    )
                finished.append(
                    store.apply_guarded_corpus(
                        _updates(),
                        _fds(),
                        certified=_certified(),
                        checkpoint_dir=checkpoint,
                        resume=True,
                    )
                )
            first, second = finished
            assert _payload(first) == _payload(second)
            assert memory.backend.dump() == sqlite.backend.dump()
            # exactly-once: the journaled first document was honored,
            # not re-applied (its restored flag says so on both sides)
            assert first.documents[0].restored
            assert second.documents[0].restored
        finally:
            memory.close()
            sqlite.close()
