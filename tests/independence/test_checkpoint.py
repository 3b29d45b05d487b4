"""Checkpoint/resume integration for the independence matrix.

These tests drive the public ``checkpoint_dir``/``resume`` surface of
:func:`check_independence_matrix`: fresh runs leave a complete run
directory behind, resume splices certified cells without recomputing
them, UNKNOWN records are re-attempted rather than trusted, manifest
mismatches refuse loudly, and persistence failures degrade to an
in-memory run with a single warning instead of losing verdicts.
"""

import random
import warnings

import pytest

from repro.errors import ResumeMismatchError
from repro.independence.matrix import (
    cell_to_record,
    check_independence_matrix,
    check_view_independence_matrix,
)
from repro.independence.criterion import Verdict
from repro.limits import Budget
from repro.persistence import (
    COMPLETE_NAME,
    CheckpointStore,
    JOURNAL_NAME,
    MANIFEST_NAME,
    PersistenceWarning,
    RunManifest,
    SNAPSHOT_NAME,
    load_snapshot,
    scan_journal,
)
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_update_class,
)
from tests.independence.test_matrix import _workload

LABELS = ("a", "b", "c")
ROWS = 3
COLUMNS = 2


@pytest.fixture
def workload():
    rng = random.Random(1234)
    fds = [
        random_functional_dependency(rng, LABELS, node_count=3, max_length=2)
        for _ in range(ROWS)
    ]
    update_classes = [
        random_update_class(rng, LABELS, node_count=2, max_length=2)
        for _ in range(COLUMNS)
    ]
    return fds, update_classes


def _matrix_manifest(fds, update_classes, **overrides):
    # the manifest a default run writes: it records the resolved strategy
    settings = dict(
        kind="independence-matrix",
        patterns=[fd.pattern for fd in fds],
        row_names=[fd.name for fd in fds],
        update_classes=update_classes,
        schema=None,
        strategy="lazy",
        want_witness=False,
        budget=None,
    )
    settings.update(overrides)
    return RunManifest.for_matrix(**settings)


def _assert_same_verdicts(matrix, reference):
    assert matrix.row_names == reference.row_names
    assert matrix.column_names == reference.column_names
    for row, reference_row in zip(matrix.cells, reference.cells):
        for cell, reference_cell in zip(row, reference_row):
            assert (cell.row, cell.column) == (
                reference_cell.row,
                reference_cell.column,
            )
            assert cell.verdict == reference_cell.verdict


class TestFreshRun:
    def test_checkpointed_run_matches_plain_run(self, workload, tmp_path):
        fds, update_classes = workload
        reference = check_independence_matrix(fds, update_classes)
        matrix = check_independence_matrix(
            fds, update_classes, checkpoint_dir=tmp_path / "run"
        )
        _assert_same_verdicts(matrix, reference)

    def test_complete_run_dir_layout(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        assert (run_dir / MANIFEST_NAME).is_file()
        assert (run_dir / COMPLETE_NAME).is_file()
        # finalize compacts: all cells live in the snapshot, journal empty
        snapshot = load_snapshot(run_dir / SNAPSHOT_NAME)
        assert len(snapshot["cells"]) == ROWS * COLUMNS
        assert scan_journal(run_dir / JOURNAL_NAME) == ([], 0, 0)

    def test_rerun_without_resume_starts_fresh(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        # a second run over the same dir with resume=False must not splice
        matrix = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir
        )
        assert len(matrix.cells) == ROWS
        assert (run_dir / COMPLETE_NAME).is_file()


class TestResume:
    def test_resume_restores_cells_without_recomputing(
        self, workload, tmp_path
    ):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        first = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir
        )
        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True
        )
        _assert_same_verdicts(resumed, first)
        for row, first_row in zip(resumed.cells, first.cells):
            for cell, first_cell in zip(row, first_row):
                # wall-time equality proves the cell was restored, not rerun
                assert cell.elapsed_seconds == first_cell.elapsed_seconds

    def test_resume_recomputes_the_missing_cells_only(
        self, workload, tmp_path
    ):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        reference = check_independence_matrix(fds, update_classes)
        # simulate an interrupted run: journal only part of the matrix
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest)
        journaled = {(0, 0), (0, 1), (2, 1)}
        for row, column in sorted(journaled):
            store.record_cell(cell_to_record(reference.cells[row][column]))
        store.close()

        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True
        )
        _assert_same_verdicts(resumed, reference)
        for row, column in journaled:
            restored = resumed.cells[row][column]
            original = reference.cells[row][column]
            assert restored.elapsed_seconds == original.elapsed_seconds

    def test_unknown_records_are_reattempted(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest)
        store.record_cell(
            {
                "type": "cell",
                "row": 0,
                "column": 0,
                "verdict": "unknown",
                "elapsed_seconds": 123.0,
                "exploration": None,
                "partial": None,
                "witness": None,
            }
        )
        store.close()

        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True
        )
        cell = resumed.cells[0][0]
        # the UNKNOWN record was dropped and the cell actually recomputed
        assert cell.verdict is not Verdict.UNKNOWN
        assert cell.elapsed_seconds != 123.0

    def test_damaged_cell_records_are_recomputed(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        reference = check_independence_matrix(fds, update_classes)
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest)
        store.record_cell(
            {"type": "cell", "row": 0, "column": 0, "verdict": "certainly!"}
        )
        store.close()
        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True
        )
        _assert_same_verdicts(resumed, reference)

    def test_parallel_resume_matches_reference(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        reference = check_independence_matrix(fds, update_classes)
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest)
        store.record_cell(cell_to_record(reference.cells[1][0]))
        store.close()
        resumed = check_independence_matrix(
            fds,
            update_classes,
            parallelism=2,
            checkpoint_dir=run_dir,
            resume=True,
        )
        _assert_same_verdicts(resumed, reference)

    def test_witness_survives_the_round_trip(self, workload, tmp_path):
        from repro.independence.matrix import _witness_to_json

        fds, update_classes = workload
        run_dir = tmp_path / "run"
        first = check_independence_matrix(
            fds, update_classes, want_witness=True, checkpoint_dir=run_dir
        )
        resumed = check_independence_matrix(
            fds,
            update_classes,
            want_witness=True,
            checkpoint_dir=run_dir,
            resume=True,
        )
        witnessed = [
            (cell, resumed.cells[cell.row][cell.column])
            for row in first.cells
            for cell in row
            if cell.witness is not None
        ]
        assert witnessed  # the workload produces dependent cells
        for original, restored in witnessed:
            assert restored.witness is not None
            assert _witness_to_json(restored.witness) == _witness_to_json(
                original.witness
            )


class TestResolvedStrategy:
    """A matrix records the strategy its cells ran, never ``"auto"``."""

    def test_default_run_resumes_under_lazy(self, tmp_path):
        fds, update_classes = _workload(1, rows=2, columns=2)
        run_dir = tmp_path / "run"
        first = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir
        )
        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True,
            strategy="lazy",
        )
        assert first.strategy == resumed.strategy == "lazy"
        _assert_same_verdicts(resumed, first)
        assert resumed.recomputed_cells == 0
        for row, first_row in zip(resumed.cells, first.cells):
            for cell, first_cell in zip(row, first_row):
                assert cell.elapsed_seconds == first_cell.elapsed_seconds

    def test_default_run_refuses_an_eager_resume(self, tmp_path):
        fds, update_classes = _workload(1, rows=2, columns=2)
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        with pytest.raises(ResumeMismatchError):
            check_independence_matrix(
                fds, update_classes, checkpoint_dir=run_dir, resume=True,
                strategy="eager",
            )


class TestMismatchRefusal:
    def test_changed_budget_refused(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        with pytest.raises(ResumeMismatchError) as excinfo:
            check_independence_matrix(
                fds,
                update_classes,
                budget=Budget(max_explored_states=10),
                checkpoint_dir=run_dir,
                resume=True,
            )
        assert [f for f, _, _ in excinfo.value.mismatches] == ["budget"]

    def test_changed_workload_refused(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        with pytest.raises(ResumeMismatchError):
            check_independence_matrix(
                fds[:-1], update_classes, checkpoint_dir=run_dir, resume=True
            )

    def test_fd_checkpoint_never_spliced_into_view_run(
        self, workload, tmp_path
    ):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        check_independence_matrix(fds, update_classes, checkpoint_dir=run_dir)
        with pytest.raises(ResumeMismatchError) as excinfo:
            check_view_independence_matrix(
                [fd.pattern for fd in fds],
                update_classes,
                view_names=[fd.name for fd in fds],
                checkpoint_dir=run_dir,
                resume=True,
            )
        assert "kind" in [f for f, _, _ in excinfo.value.mismatches]

    def test_resume_into_empty_dir_is_a_fresh_run(self, workload, tmp_path):
        fds, update_classes = workload
        matrix = check_independence_matrix(
            fds,
            update_classes,
            checkpoint_dir=tmp_path / "never-existed",
            resume=True,
        )
        assert len(matrix.cells) == ROWS


class TestDegradedPersistence:
    def test_unusable_checkpoint_dir_degrades_to_memory(
        self, workload, tmp_path
    ):
        fds, update_classes = workload
        reference = check_independence_matrix(fds, update_classes)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.warns(PersistenceWarning, match="checkpointing disabled"):
            matrix = check_independence_matrix(
                fds, update_classes, checkpoint_dir=blocker
            )
        _assert_same_verdicts(matrix, reference)

    def test_enospc_mid_run_warns_once_and_keeps_verdicts(
        self, workload, tmp_path, monkeypatch
    ):
        fds, update_classes = workload
        reference = check_independence_matrix(fds, update_classes)

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monkeypatch.setattr(
                "repro.persistence.journal.os.fsync", full_disk
            )
            matrix = check_independence_matrix(
                fds, update_classes, checkpoint_dir=tmp_path / "run"
            )
        persistence = [
            w for w in caught if issubclass(w.category, PersistenceWarning)
        ]
        assert len(persistence) == 1  # exactly one warning, not one per cell
        _assert_same_verdicts(matrix, reference)

    def test_torn_journal_tail_warns_and_resumes(self, workload, tmp_path):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        reference = check_independence_matrix(fds, update_classes)
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest)
        store.record_cell(cell_to_record(reference.cells[0][0]))
        store.record_cell(cell_to_record(reference.cells[0][1]))
        store.close()
        journal = run_dir / JOURNAL_NAME
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-3])  # tear the second record
        with pytest.warns(PersistenceWarning, match="torn"):
            resumed = check_independence_matrix(
                fds, update_classes, checkpoint_dir=run_dir, resume=True
            )
        _assert_same_verdicts(resumed, reference)
        # the torn cell (0,1) was recomputed; the intact one restored
        assert (
            resumed.cells[0][0].elapsed_seconds
            == reference.cells[0][0].elapsed_seconds
        )


class TestCompaction:
    def test_journal_compacts_at_the_requested_cadence(
        self, workload, tmp_path
    ):
        fds, update_classes = workload
        run_dir = tmp_path / "run"
        reference = check_independence_matrix(fds, update_classes)
        manifest = _matrix_manifest(fds, update_classes)
        store = CheckpointStore.open(run_dir, manifest, snapshot_every=2)
        store.record_cell(cell_to_record(reference.cells[0][0]))
        assert scan_journal(run_dir / JOURNAL_NAME)[0]  # not yet compacted
        store.record_cell(cell_to_record(reference.cells[0][1]))
        # cadence reached: snapshot holds both cells, journal truncated
        snapshot = load_snapshot(run_dir / SNAPSHOT_NAME)
        assert len(snapshot["cells"]) == 2
        assert scan_journal(run_dir / JOURNAL_NAME) == ([], 0, 0)
        store.record_cell(cell_to_record(reference.cells[1][0]))
        assert len(scan_journal(run_dir / JOURNAL_NAME)[0]) == 1
        store.close()
