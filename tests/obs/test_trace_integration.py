"""End-to-end traces: CLI ``--trace-out``, coverage, fault tolerance.

The trace of a matrix run must be *complete* (named phases account for
>= 95% of the root span's wall time — no large anonymous gaps),
*attributed* (every serially computed cell span carries its verdict and
explored counts), and *durable* (a run that loses a pool worker
mid-flight still writes a well-formed, line-parseable JSONL trace with
the recovery events in it).
"""

import gc
import json
import random
import time

import pytest

from repro.cli import main
from repro.independence.criterion import Verdict, check_independence
from repro.independence.matrix import (
    FaultInjection,
    check_independence_matrix,
)
from repro.independence.views import check_view_independence
from repro.limits import Budget
from repro.obs.trace import (
    InMemorySpanCollector,
    JsonlSpanExporter,
    Tracer,
    installed_tracer,
    read_trace,
)
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_update_class,
)

LABELS = ("a", "b", "c")

FDS = [
    "(/orders, ((order/@id) -> order/customer/name))",
    "(/orders, ((order/@id) -> order/total))",
    "(/orders, ((order/customer/name) -> order/customer/address))",
]
UPDATES = [
    "/orders/order/status",
    "/orders/order/customer/name",
    "/orders/order/total",
]


def _cli_args(trace_path) -> list[str]:
    args = ["independence", "--matrix", "--trace-out", str(trace_path)]
    for fd in FDS:
        args += ["--fd", fd]
    for update in UPDATES:
        args += ["--update-xpath", update]
    return args


@pytest.fixture(scope="module")
def traced_cli_run(tmp_path_factory):
    """One 3x3 CLI matrix run with --trace-out; (records, wall_seconds).

    The cyclic garbage collector is paused around the run: a full
    collection of the session's allocation history can take several
    times the whole matrix span, and would count against the coverage
    bounds wherever it landed.
    """
    trace_path = tmp_path_factory.mktemp("trace") / "matrix.jsonl"
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        exit_code = main(_cli_args(trace_path))
        wall = time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()
    assert exit_code in (0, 2, 3)
    return read_trace(trace_path), wall


class TestCliTraceCoverage:
    def test_root_span_covers_the_run(self, traced_cli_run):
        records, wall = traced_cli_run
        (root,) = [r for r in records if r["name"] == "matrix.run"]
        assert root["parent_id"] is None
        # the matrix span is the run: it must cover the bulk of the
        # command's wall clock (argparse + FD parsing are the rest)
        assert root["duration_ns"] / 1e9 >= 0.5 * wall

    def test_named_phases_cover_95_percent_of_root(self, traced_cli_run):
        records, _ = traced_cli_run
        (root,) = [r for r in records if r["name"] == "matrix.run"]
        children = [
            r for r in records if r["parent_id"] == root["span_id"]
        ]
        assert children, "the root span must have phase children"
        covered = sum(r["duration_ns"] for r in children)
        assert covered >= 0.95 * root["duration_ns"], (
            f"named phases cover only "
            f"{100 * covered / root['duration_ns']:.1f}% of the run"
        )

    def test_every_cell_span_carries_verdict_and_counts(self, traced_cli_run):
        records, _ = traced_cli_run
        cells = [r for r in records if r["name"] == "matrix.cell"]
        assert len(cells) == 9  # 3x3, serial run: every cell is spanned
        seen = set()
        for cell in cells:
            attributes = cell["attributes"]
            assert attributes["verdict"] in (
                "independent", "possibly-dependent", "unknown"
            )
            assert attributes["explored_rules"] >= 0
            assert attributes["worst_case_rules"] >= (
                attributes["explored_rules"]
            )
            assert attributes["elapsed_ms"] >= 0
            seen.add((attributes["row"], attributes["column"]))
        assert seen == {(r, c) for r in range(3) for c in range(3)}

    def test_trace_report_summarizes_the_trace(self, traced_cli_run, tmp_path):
        records, _ = traced_cli_run
        report = _trace_report().build_report(records, top_k=3)
        assert report["spans"] == len(records)
        assert len(report["slowest_cells"]) == 3
        names = {row["name"] for row in report["phases"]}
        assert "matrix.cell" in names
        assert "product.explore" in names
        # self time partitions the root exactly: no negative phases
        assert all(row["self_ms"] >= 0 for row in report["phases"])

    def test_trace_report_names_a_single_pair(self, tmp_path):
        """A per-pair ``--trace-out`` report ranks the ``ic.check`` span
        like a matrix cell: verdict, strategy and counts."""
        trace_path = tmp_path / "pair.jsonl"
        exit_code = main(
            [
                "independence", "--strategy", "eager",
                "--trace-out", str(trace_path),
                "--fd", FDS[0], "--update-xpath", UPDATES[1],
            ]
        )
        assert exit_code == 2  # the update rewrites the FD's target
        trace_report = _trace_report()
        report = trace_report.build_report(read_trace(trace_path))
        (pair,) = report["slowest_cells"]
        assert pair["name"] == "ic.check"
        assert (pair["fd"], pair["update_class"]) == ("fd1", "u1")
        assert pair["verdict"] == "possibly-dependent"
        assert pair["strategy"] == "eager"
        assert pair["automaton_size"] > 0
        names = {row["name"] for row in report["phases"]}
        assert {"ic.eager_product", "ic.eager_emptiness"} <= names
        assert (
            "ic.check(fd1, u1) possibly-dependent [eager]"
            in trace_report.render(report)
        )

    def test_trace_report_names_derived_cells(self, tmp_path):
        """``/orders/order/status`` lies inside ``/orders/*/status``,
        which both FDs leave alone: its two cells are derived."""
        trace_path = tmp_path / "derived.jsonl"
        args = ["independence", "--matrix", "--trace-out", str(trace_path)]
        for fd in FDS[:2]:
            args += ["--fd", fd]
        for update in ("/orders/order/status", "/orders/order/total",
                       "/orders/*/status"):
            args += ["--update-xpath", update]
        assert main(args) == 2
        trace_report = _trace_report()
        report = trace_report.build_report(read_trace(trace_path), top_k=6)
        derived = {
            (cell["row"], cell["column"]): cell["derived_from"]
            for cell in report["slowest_cells"]
            if cell["derived_from"] is not None
        }
        assert derived == {(0, 0): 2, (1, 0): 2}
        assert "derived from cell(0,2)" in trace_report.render(report)


def _trace_report():
    """``scripts/trace_report.py``, imported as a module."""
    import importlib.util
    import pathlib

    spec = importlib.util.spec_from_file_location(
        "trace_report",
        pathlib.Path(__file__).resolve().parents[2]
        / "scripts"
        / "trace_report.py",
    )
    trace_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_report)
    return trace_report


class TestPairSpanAttributes:
    """``ic.check`` and ``view.check`` carry a cell's outcome attributes,
    the unknown reason of a budget-exhausted pair included."""

    @pytest.mark.parametrize("strategy", ("lazy", "eager"))
    def test_exhausted_pair_spans_name_the_reason(self, figures, strategy):
        collector = InMemorySpanCollector()
        budget = Budget(max_explored_rules=1)
        with installed_tracer(Tracer(collector)):
            pair = check_independence(
                figures.fd5, figures.update_class, strategy=strategy,
                budget=budget,
            )
            view = check_view_independence(
                figures.fd5.pattern, figures.update_class,
                strategy=strategy, budget=budget,
            )
        for result, name in ((pair, "ic.check"), (view, "view.check")):
            assert result.verdict is Verdict.UNKNOWN
            (span,) = collector.by_name(name)
            assert span.attributes["verdict"] == "unknown"
            assert span.attributes["strategy"] == strategy
            assert span.attributes["unknown_reason"] == result.unknown_reason
            assert "explored_rules" not in span.attributes


class TestFaultInjectedTrace:
    def test_worker_death_leaves_a_well_formed_trace(self, tmp_path):
        rng = random.Random(7)
        fds = [
            random_functional_dependency(rng, LABELS, node_count=3, max_length=2)
            for _ in range(4)
        ]
        update_classes = [
            random_update_class(rng, LABELS, node_count=2, max_length=2)
            for _ in range(2)
        ]
        trace_path = tmp_path / "faulted.jsonl"
        fault = FaultInjection(
            kind="crash-once", flag_path=str(tmp_path / "armed")
        )
        tracer = Tracer(JsonlSpanExporter(trace_path))
        try:
            with installed_tracer(tracer):
                matrix = check_independence_matrix(
                    fds,
                    update_classes,
                    parallelism=2,
                    _fault_injection=fault,
                )
        finally:
            tracer.close()
        assert matrix.worker_faults >= 1
        reference = check_independence_matrix(fds, update_classes)
        for row, reference_row in zip(matrix.cells, reference.cells):
            for cell, reference_cell in zip(row, reference_row):
                assert cell.verdict == reference_cell.verdict
        # the trace survived the incident: every line parses strictly
        for line_number, line in enumerate(
            trace_path.read_text().splitlines(), start=1
        ):
            json.loads(line), line_number
        records = read_trace(trace_path)
        (root,) = [r for r in records if r["name"] == "matrix.run"]
        assert root["attributes"]["worker_faults"] >= 1
        pools = [r for r in records if r["name"] == "matrix.pool"]
        assert pools, "pool attempts must be spanned"
        # re-emitted worker cells carry the same outcome attributes
        worker_cells = [
            r for r in records
            if r["name"] == "matrix.cell" and r["attributes"].get("worker")
        ]
        assert worker_cells
        for cell in worker_cells:
            assert cell["attributes"]["strategy"] == "lazy"
            assert cell["attributes"]["explored_rules"] >= 0
        events = [
            event["name"]
            for record in records
            for event in record.get("events", ())
        ]
        assert "pool.worker_fault" in events
