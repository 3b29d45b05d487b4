"""The persistent warm pool: share-once contexts, reuse, and the gate.

BENCH_T3 recorded ``--jobs 2`` losing ~3x to serial because every
matrix call paid pool spawn plus per-worker reconstruction of the
shared automata.  These tests pin the three fixes:

* **materialize-once** — each pool worker builds a run's shared
  automata at most once, however many chunks it processes (asserted
  through the ``log_path`` hook: one log line per materialization);
* **pool reuse** — a second parallel matrix run reuses the first run's
  executor instead of spawning a fresh one;
* **the spawn-cost gate** — matrices too small to amortize the fan-out
  overhead degrade to the serial path (and an explicit threshold of
  ``0.0`` disables the gate for tests like these that *must* fan out).
"""

import random

import pytest

from repro.independence import pool
from repro.independence.matrix import check_independence_matrix
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_update_class,
)

LABELS = ("a", "b", "c")


def _workload(seed, rows=4, columns=2):
    rng = random.Random(seed)
    fds = [
        random_functional_dependency(rng, LABELS, node_count=3, max_length=2)
        for _ in range(rows)
    ]
    update_classes = [
        random_update_class(rng, LABELS, node_count=2, max_length=2)
        for _ in range(columns)
    ]
    return fds, update_classes


class TestShareOnceContext:
    def test_workers_materialize_each_run_exactly_once(self, tmp_path):
        """One log line per (worker, run): the automata are shared.

        With CHUNK_OVERSUBSCRIPTION the run ships more chunks than
        workers, so a per-chunk reconstruction would log more lines
        than distinct (pid, token) pairs — the pre-fix behaviour.
        """
        fds, update_classes = _workload(5, rows=8)
        log_path = tmp_path / "materializations.log"
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
            _worker_log_path=str(log_path),
        )
        assert matrix.parallelism == 2
        lines = log_path.read_text().splitlines()
        assert lines, "the pool never materialized the shared context"
        pairs = [tuple(line.split()) for line in lines]
        # exactly once per (worker, run): no (pid, token) repeats
        assert len(pairs) == len(set(pairs))
        tokens = {token for _, token in pairs}
        assert len(tokens) == 1  # one published context for the run
        assert len(pairs) <= 2  # at most one materialization per worker

    def test_repeated_identical_run_hits_the_content_cache(self, tmp_path):
        """A rerun over the same inputs materializes *nothing*.

        The worker cache is keyed by the context's content digest, not
        the run token, so a reused pool serving the same workload again
        (bench loops, retried batches) skips the automaton construction
        entirely — no new log lines on the second run.
        """
        fds, update_classes = _workload(6, rows=6)
        log_path = tmp_path / "materializations.log"
        for _ in range(2):
            check_independence_matrix(
                fds, update_classes, parallelism=2,
                parallel_threshold_seconds=0.0,
                _worker_log_path=str(log_path),
            )
        pairs = [
            tuple(line.split())
            for line in log_path.read_text().splitlines()
        ]
        assert len(pairs) == len(set(pairs))
        # one token only: every line stems from the first run, because
        # the second run's identical content was already cached
        assert len({token for _, token in pairs}) == 1

    def test_distinct_workloads_materialize_separately(self, tmp_path):
        log_path = tmp_path / "materializations.log"
        for seed in (61, 62):
            fds, update_classes = _workload(seed, rows=6)
            check_independence_matrix(
                fds, update_classes, parallelism=2,
                parallel_threshold_seconds=0.0,
                _worker_log_path=str(log_path),
            )
        pairs = [
            tuple(line.split())
            for line in log_path.read_text().splitlines()
        ]
        assert len(pairs) == len(set(pairs))  # once per (worker, content)
        assert len({token for _, token in pairs}) == 2  # one per workload


class TestReusedContextCache:
    @pytest.mark.parametrize("with_schema", (False, True))
    def test_rows_leave_only_the_shared_factors_behind(self, with_schema):
        """A worker reuses one materialized context, factor cache
        included, across runs over the same update classes and schema;
        each run's rows must not leave their own factors in it."""
        from repro.independence.matrix import _explore_rows
        from repro.schema.dtd import Schema

        _, update_classes = _workload(3, rows=0, columns=2)
        schema = (
            Schema.from_rules("a", {"a": "b* c?", "b": "a? c*", "c": "#text"})
            if with_schema
            else None
        )
        token, context_bytes = pool.publish_context(
            pool.SharedWorkContext(
                update_classes=tuple(update_classes),
                schema=schema,
                alphabet=frozenset(LABELS),
            )
        )
        try:
            sizes = []
            for run in range(3):
                fds, _ = _workload(50 + run, rows=3, columns=0)
                shared = pool.resolve_context(token, context_bytes)
                _explore_rows(
                    [fd.pattern for fd in fds], 0, shared, "lazy", False
                )
                sizes.append(len(shared.factor_cache))
        finally:
            pool.release_context(token)
        # one factor per update class, plus the schema's
        assert sizes == [len(update_classes) + with_schema] * 3


class TestPoolReuse:
    def test_second_run_reuses_the_warm_executor(self):
        fds, update_classes = _workload(7, rows=4)
        check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        before = pool.pool_stats()
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        after = pool.pool_stats()
        assert matrix.parallelism == 2
        assert after["pools_created"] == before["pools_created"]
        assert after["pools_reused"] > before["pools_reused"]

    def test_released_context_is_dropped_from_the_registry(self):
        fds, update_classes = _workload(8, rows=4)
        check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        # the run released its token on the way out
        assert not pool._parent_contexts


class TestSpawnCostGate:
    def test_explicit_threshold_degrades_tiny_matrix_to_serial(self):
        fds, update_classes = _workload(9, rows=4)
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=30.0,
        )
        assert matrix.parallelism == 1

    def test_zero_threshold_forces_the_fanout(self):
        fds, update_classes = _workload(10, rows=4)
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        assert matrix.parallelism == 2

    def test_gated_run_matches_forced_run_cell_for_cell(self):
        fds, update_classes = _workload(11, rows=4)
        gated = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=30.0,
        )
        forced = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        assert [[c.verdict for c in row] for row in gated.cells] == [
            [c.verdict for c in row] for row in forced.cells
        ]

    def test_worthwhile_rejects_degenerate_shapes(self):
        assert not pool.parallel_worthwhile(0, 2, 1)
        assert not pool.parallel_worthwhile(4, 1, 1)

    def test_threshold_semantics(self):
        # 0.0 disables the gate outright
        assert pool.parallel_worthwhile(1, 2, 1, threshold_seconds=0.0)
        # a huge threshold keeps everything serial
        assert not pool.parallel_worthwhile(
            100, 2, 4, threshold_seconds=1e9
        )
        # a tiny positive threshold lets real work through
        assert pool.parallel_worthwhile(
            10_000, 2, 4, threshold_seconds=1e-9
        )

    def test_learned_gate_never_fans_out_on_one_core(self, monkeypatch):
        """Workers beyond the core count only timeshare: always serial.

        On a one-core container two workers each run at half speed, so
        the fan-out tax buys nothing — however big the matrix is.
        """
        monkeypatch.setattr(pool, "available_cpus", lambda: 1)
        assert not pool.parallel_worthwhile(1_000_000, 2, 4)

    def test_learned_gate_fans_out_big_work_on_many_cores(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool, "available_cpus", lambda: 8)
        assert pool.parallel_worthwhile(1_000_000, 2, 4)
        # ...but still keeps tiny matrices serial
        assert not pool.parallel_worthwhile(1, 2, 1)


@pytest.fixture(autouse=True, scope="module")
def _shutdown_pools_after_module():
    yield
    pool.shutdown_all()
