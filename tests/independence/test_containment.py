"""Matrix cells derived from update-class containment.

An INDEPENDENT cell decides every cell of its row whose linear update
class it contains.  These tests hold the bounded inclusion test to
``language_included`` on compiled chain DFAs, hold every derived cell
to the per-pair criterion, and pin where derivation runs: unbudgeted
lazy runs, serial or fanned out, resumed or spliced, and nowhere else.
"""

import random

import pytest

from repro.independence import pool
from repro.independence.containment import (
    MAX_PRODUCT_STATES,
    column_containment,
    linear_path,
    path_inclusion,
)
from repro.independence.criterion import Verdict, check_independence
from repro.independence.matrix import (
    DERIVED_STATS,
    cell_from_record,
    cell_to_record,
    check_independence_matrix,
)
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.limits import Budget
from repro.obs.trace import InMemorySpanCollector, Tracer
from repro.pattern.builder import PatternBuilder
from repro.regex.ast import AnySymbol, Concat, Star, Union
from repro.regex.dfa import compile_regex
from repro.regex.ops import language_included
from repro.update.update_class import UpdateClass
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_proper_regex,
)
from repro.xpath.translate import update_class_from_xpath
from tests.independence.test_matrix import _schema

LABELS = ("a", "b", "c")

ORDER_FDS = (
    "(/orders, ((order/@id) -> order/customer/name))",
    "(/orders, ((order/@id) -> order/total))",
)
#: u3 contains u1 and both FDs leave it alone, so (0,0) and (1,0)
#: derive from column 2
ORDER_UPDATES = (
    "/orders/order/status", "/orders/order/total", "/orders/*/status",
)


def _orders(updates=ORDER_UPDATES):
    fds = [
        translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
        for index, text in enumerate(ORDER_FDS)
    ]
    update_classes = [
        update_class_from_xpath(xpath, name=f"u{index + 1}")
        for index, xpath in enumerate(updates)
    ]
    return fds, update_classes


def _chain_class(edges, name):
    builder = PatternBuilder()
    position = builder.root
    for edge in edges:
        position = builder.child(position, edge)
    return UpdateClass(builder.pattern(position), name=name)


def _generalize(rng, edges):
    """A chain whose path language contains ``edges``' more often than
    not: one edge widened to ``~``, prefixed by ``~*``, or united with
    another regex (``~`` widens only single-label edges)."""
    edges = list(edges)
    index = rng.randrange(len(edges))
    kind = rng.choice(("wildcard", "prefix", "union"))
    if kind == "wildcard":
        edges[index] = AnySymbol()
    elif kind == "prefix":
        edges[index] = Concat([Star(AnySymbol()), edges[index]])
    else:
        edges[index] = Union(
            [edges[index], random_proper_regex(rng, LABELS, max_length=2)]
        )
    return edges


def _random_chains(seed, count=4):
    """Edge lists of random linear classes, half of them generalizations
    of the others."""
    rng = random.Random(seed)
    chains = []
    while len(chains) < count:
        if chains and rng.random() < 0.5:
            chains.append(_generalize(rng, rng.choice(chains)))
        else:
            chains.append(
                [
                    random_proper_regex(rng, LABELS, max_length=2)
                    for _ in range(rng.randint(1, 3))
                ]
            )
    return chains


def _included(inner_edges, outer_edges) -> bool:
    """The reference: inclusion of the compiled concatenations."""
    return language_included(
        compile_regex(Concat(inner_edges)), compile_regex(Concat(outer_edges))
    )


class TestPathInclusion:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_compiled_chains(self, seed):
        chains = _random_chains(seed)
        paths = [
            linear_path(_chain_class(edges, f"u{index}"))
            for index, edges in enumerate(chains)
        ]
        for inner, inner_edges in zip(paths, chains):
            for outer, outer_edges in zip(paths, chains):
                found = path_inclusion(inner, outer)
                assert found.contained == _included(inner_edges, outer_edges)
                assert found.states <= MAX_PRODUCT_STATES

    def test_reference_sees_both_answers(self):
        answers = set()
        for seed in range(30):
            chains = _random_chains(seed)
            answers |= {
                _included(inner, outer)
                for inner in chains
                for outer in chains
                if inner is not outer
            }
        assert answers == {True, False}

    def test_the_cap_stops_a_deep_wildcard_pair(self):
        """``/library/book/*×14 ⊆ //book/*×14`` holds, but the outer
        side tracks every ``book`` among the last 15 labels: the search
        stops undecided at the cap, not after 2^14 states."""
        deep_descendant, deep_child, price = (
            linear_path(update_class_from_xpath(xpath))
            for xpath in (
                "//book" + "/*" * 14,
                "/library/book" + "/*" * 14,
                "/library/book/price",
            )
        )
        assert path_inclusion(deep_child, deep_descendant) == (
            None, MAX_PRODUCT_STATES
        )
        for inner, outer in (
            (deep_descendant, deep_child),
            (price, deep_descendant),
            (price, deep_child),
            (deep_child, price),
        ):
            found = path_inclusion(inner, outer)
            assert found.contained is False
            assert found.states < 10
        # the same pair with 3 wildcards fits under the cap
        shallow = [
            linear_path(update_class_from_xpath(xpath))
            for xpath in ("/library/book/*/*/*", "//book/*/*/*")
        ]
        assert path_inclusion(*shallow).contained is True
        # an undecided test relates nothing
        deep = [
            update_class_from_xpath(xpath)
            for xpath in (
                "//book" + "/*" * 14,
                "/library/book" + "/*" * 14,
                "/library/book/price",
            )
        ]
        assert column_containment(deep).containers == ((), (), ())

    def test_only_linear_classes_have_a_path(self):
        assert linear_path(update_class_from_xpath("/a/b")) is not None
        assert linear_path(update_class_from_xpath("/a[c]/b")) is None
        two_selected = PatternBuilder()
        first = two_selected.child(two_selected.root, "a")
        second = two_selected.child(first, "b")
        assert linear_path(UpdateClass(two_selected.pattern(first))) is None
        assert (
            linear_path(UpdateClass(two_selected.pattern(first, second)))
            is None
        )

    def test_equal_columns_derive_one_way(self):
        _, update_classes = _orders(
            ("/orders/order/status", "/orders/order/status", "//status")
        )
        containment = column_containment(update_classes)
        # u1 and u2 contain each other: the walk cuts the cycle once
        assert containment.order == (2, 1, 0)
        assert containment.containers == ((1, 2), (2,), ())


class TestDerivedCells:
    @pytest.mark.parametrize("with_schema", (False, True))
    def test_derived_cells_match_per_pair_checks(self, with_schema):
        schema = _schema() if with_schema else None
        derived = 0
        for seed in range(12):
            rng = random.Random(seed + 500)
            fds = [
                random_functional_dependency(
                    rng, LABELS, node_count=3, max_length=2
                )
                for _ in range(2)
            ]
            chains = _random_chains(seed + 500)
            update_classes = [
                _chain_class(edges, f"u{index}")
                for index, edges in enumerate(chains)
            ]
            matrix = check_independence_matrix(
                fds, update_classes, schema=schema, want_witness=True
            )
            for i, fd in enumerate(fds):
                for j, update_class in enumerate(update_classes):
                    cell = matrix.cell(i, j)
                    single = check_independence(
                        fd, update_class, schema=schema, want_witness=False
                    )
                    assert cell.verdict is single.verdict
                    if cell.derived_from is None:
                        continue
                    derived += 1
                    container = cell.derived_from
                    assert cell.witness is None
                    assert cell.exploration == DERIVED_STATS
                    assert matrix.verdict(i, container) is Verdict.INDEPENDENT
                    assert _included(chains[j], chains[container])
        assert derived > 0

    def test_orders_matrix_derives_two_cells(self):
        matrix = check_independence_matrix(*_orders())
        assert _derived(matrix) == {(0, 0): 2, (1, 0): 2}
        assert matrix.independent_count() == 5
        # derived cells count as lazy cells, never as eager ones
        assert all(
            cell.exploration is not None for row in matrix.cells for cell in row
        )

    def test_cells_keep_column_order_and_json_shape(self):
        fds, update_classes = _orders()
        derived = check_independence_matrix(fds, update_classes).to_json_dict()
        eager = check_independence_matrix(
            fds, update_classes, strategy="eager"
        ).to_json_dict()
        assert derived.keys() == eager.keys()
        assert derived["verdicts"] == eager["verdicts"]


def _derived(matrix) -> dict:
    return {
        (cell.row, cell.column): cell.derived_from
        for row in matrix.cells
        for cell in row
        if cell.derived_from is not None
    }


class TestWhereDerivationRuns:
    def test_budgets_and_eager_runs_derive_nothing(self):
        fds, update_classes = _orders()
        capped = check_independence_matrix(
            fds, update_classes, budget=Budget(max_explored_rules=10_000)
        )
        eager = check_independence_matrix(
            fds, update_classes, strategy="eager"
        )
        unbounded = check_independence_matrix(
            fds, update_classes, budget=Budget()
        )
        assert _derived(capped) == {} and _derived(eager) == {}
        assert _derived(unbounded) == {(0, 0): 2, (1, 0): 2}
        for matrix in (capped, eager):
            assert [[c.verdict for c in row] for row in matrix.cells] == [
                [c.verdict for c in row] for row in unbounded.cells
            ]

    def test_fanout_derives_what_serial_derives(self):
        fds, update_classes = _orders()
        serial = check_independence_matrix(fds, update_classes)
        collector = InMemorySpanCollector()
        parallel = check_independence_matrix(
            fds, update_classes, parallelism=2,
            parallel_threshold_seconds=0.0, tracer=Tracer(collector),
        )
        assert parallel.parallelism == 2
        assert _derived(parallel) == _derived(serial)
        spans = {
            (span.attributes["row"], span.attributes["column"]):
                span.attributes.get("derived_from")
            for span in collector.by_name("matrix.cell")
        }
        assert {
            key: value for key, value in spans.items() if value is not None
        } == _derived(serial)

    def test_resume_restores_derived_cells(self, tmp_path):
        fds, update_classes = _orders()
        run_dir = tmp_path / "run"
        first = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir
        )
        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=run_dir, resume=True
        )
        assert _derived(resumed) == _derived(first) == {(0, 0): 2, (1, 0): 2}
        assert resumed.recomputed_cells == 0
        for row, first_row in zip(resumed.cells, first.cells):
            for cell, first_cell in zip(row, first_row):
                assert cell.elapsed_seconds == first_cell.elapsed_seconds

    def test_a_restored_container_still_derives(self, tmp_path):
        """Only the containers were journaled: the contained cells are
        derived from the restored verdicts, as in the first run."""
        from repro.persistence import CheckpointStore, RunManifest

        fds, update_classes = _orders()
        reference = check_independence_matrix(fds, update_classes)
        manifest = RunManifest.for_matrix(
            "independence-matrix", [fd.pattern for fd in fds],
            [fd.name for fd in fds], update_classes, None, "lazy",
            False, None,
        )
        store = CheckpointStore.open(tmp_path / "run", manifest)
        for row in range(2):
            store.record_cell(cell_to_record(reference.cells[row][2]))
        store.close()
        resumed = check_independence_matrix(
            fds, update_classes, checkpoint_dir=tmp_path / "run", resume=True
        )
        assert _derived(resumed) == _derived(reference)
        assert resumed.recomputed_cells == 4

    def test_a_spliced_cell_names_its_container_by_current_index(
        self, tmp_path
    ):
        fds, update_classes = _orders()
        baseline = tmp_path / "baseline"
        check_independence_matrix(fds, update_classes, checkpoint_dir=baseline)
        # same columns, new order: u3 is now column 0 and u1 column 2
        reordered = [update_classes[2], update_classes[1], update_classes[0]]
        drift = check_independence_matrix(
            fds, reordered, baseline_dir=baseline
        )
        assert drift.spliced_cells == drift.cell_count
        assert _derived(drift) == {(0, 2): 0, (1, 2): 0}

    def test_records_carry_derived_from(self):
        matrix = check_independence_matrix(*_orders())
        record = cell_to_record(matrix.cell(0, 0))
        assert record["derived_from"] == 2
        assert cell_from_record(record) == matrix.cell(0, 0)
        del record["derived_from"]  # a record written before derivation
        assert cell_from_record(record).derived_from is None

    def test_the_relation_ships_with_the_shared_context(self):
        _, update_classes = _orders()
        shared = pool.SharedWorkContext(
            update_classes=tuple(update_classes),
            schema=None,
            alphabet=frozenset(),
        ).materialize()
        first = shared.containment()
        assert shared.containment() is first
        assert first.containers == ((2,), (), ())
