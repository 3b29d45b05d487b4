"""T15 — hardened corpus audit: throughput and fault-isolation overhead.

The audit front end promises two things at once: adversarial documents
in a corpus become findings instead of failures, and the *healthy*
documents' verdicts are unaffected — bit-for-bit — by the poison
sharing the run.  This bench measures what that promise costs:

* **throughput** — documents/second over a healthy corpus of OPC-style
  package manifests (schema + 2 FDs + exposure check per document),
  swept over corpus sizes;
* **poison overhead** — the same corpus with the full poisoned fixture
  set mixed in: every poison kind must land as exactly one finding, the
  run must complete unaborted, and the healthy documents' JSON reports
  (modulo wall-clock) must equal the healthy-only run's;
* **guard overhead** — healthy-corpus audit with ``ParseBudget``
  guards on vs off (``parse_budget=None``), isolating the per-token
  metering cost.

One untimed audit warms the caches first.  Then the guarded, unguarded
and mixed audits run interleaved for :data:`ROUNDS` rounds, rotating
their order so each runs first, second and last equally often, and
every time reported is a median with its quartiles: one timing per
audit put noise of ±20% into the guard overhead, which is a few
percent at most.  Every audit of every round is checked, not just
timed.

The measured table is written machine-readably to ``BENCH_T15.json``
(path overridable via the ``BENCH_T15_JSON`` environment variable).
``BENCH_QUICK=1`` shrinks the sweep; every correctness assertion runs
in both modes.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.audit import AuditOptions, audit_corpus
from repro.limits import Budget, ParseBudget
from repro.workload.packages import (
    package_fds,
    package_schema,
    package_update_classes,
    write_package_corpus,
    write_poison_corpus,
)

from benchmarks.conftest import emit_table

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: corpus sizes swept (documents per corpus)
SIZES = (8,) if QUICK else (8, 32, 128)
#: parts per manifest (~2-3 KiB of XML each)
PARTS = 12
#: interleaved timing rounds per corpus size (a multiple of the three
#: audits, so the rotation gives each audit each position equally often)
ROUNDS = 9


def _options(parse_budget=ParseBudget.default()):
    updates = package_update_classes()
    return AuditOptions(
        schema=package_schema(),
        fds=tuple(package_fds()),
        update_classes=(
            updates["size-refresh"],
            updates["content-type-rewrite"],
        ),
        parse_budget=parse_budget,
        budget=Budget(max_explored_states=100_000),
    )


def _canonical(report, paths):
    """Healthy-document verdicts with wall-clock stripped."""
    keep = set(paths)
    return json.dumps(
        [
            {**doc.to_json_dict(), "elapsed_ms": 0}
            for doc in report.documents
            if doc.path in keep
        ],
        sort_keys=True,
    )


def _measure_corpus(documents, tmp_path):
    healthy = write_package_corpus(
        tmp_path / f"healthy-{documents}", documents=documents, parts=PARTS
    )
    poison = write_poison_corpus(tmp_path / f"poison-{documents}")

    reference = audit_corpus(list(healthy), _options())
    assert reference.exit_code() in (0, 2)
    assert not reference.aborted
    expected = _canonical(reference, healthy)

    audits = {
        "healthy": (list(healthy), _options()),
        "unguarded": (list(healthy), _options(parse_budget=None)),
        "mixed": (list(healthy) + sorted(poison.values()), _options()),
    }
    names = list(audits)
    samples = {name: [] for name in names}
    for round_index in range(ROUNDS):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            paths, options = audits[name]
            started = time.perf_counter()
            run = audit_corpus(paths, options)
            samples[name].append((time.perf_counter() - started) * 1000)
            assert not run.aborted, name
            # the promise under load: neither poison sharing the run
            # nor guards switched off change a healthy verdict
            assert _canonical(run, healthy) == expected, name
            if name == "mixed":
                # every poison file produced a finding on that file only
                by_path = {doc.path: doc for doc in run.documents}
                for path in poison.values():
                    assert by_path[path].findings, path

    # [q1, median, q3] of each audit's times
    quartiles = {
        name: statistics.quantiles(times, n=4, method="inclusive")
        for name, times in samples.items()
    }
    healthy_ms = quartiles["healthy"][1]
    unguarded_ms = quartiles["unguarded"][1]
    return {
        "documents": documents,
        "poison_files": len(poison),
        "rounds": ROUNDS,
        "healthy_ms": healthy_ms,
        "docs_per_s": documents / (healthy_ms / 1000),
        "mixed_ms": quartiles["mixed"][1],
        "poison_overhead_ms": quartiles["mixed"][1] - healthy_ms,
        "unguarded_ms": unguarded_ms,
        "guard_overhead_pct": (healthy_ms - unguarded_ms) / unguarded_ms * 100,
        "quartiles_ms": {
            name: [values[0], values[2]] for name, values in quartiles.items()
        },
        "healthy_verdicts_equal": True,
    }


def bench_t15_report(benchmark, tmp_path):
    records = [_measure_corpus(size, tmp_path) for size in SIZES]

    def spread(record, name):
        q1, q3 = record["quartiles_ms"][name]
        return f"{record[name + '_ms']:.1f} ({q1:.1f}-{q3:.1f})"

    emit_table(
        f"T15: hardened corpus audit (schema + 2 FDs + exposure per doc; "
        f"medians and quartiles of {ROUNDS} interleaved rounds)",
        [
            "docs",
            "healthy (ms)",
            "docs/s",
            "unguarded (ms)",
            "guards overhead (%)",
            "mixed (ms)",
            "poison overhead (ms)",
        ],
        [
            [
                record["documents"],
                spread(record, "healthy"),
                f"{record['docs_per_s']:.1f}",
                spread(record, "unguarded"),
                f"{record['guard_overhead_pct']:+.1f}",
                spread(record, "mixed"),
                f"{record['poison_overhead_ms']:.1f}",
            ]
            for record in records
        ],
    )

    payload = {
        "experiment": "T15",
        "quick": QUICK,
        "parts_per_manifest": PARTS,
        "configs": records,
    }
    target = Path(
        os.environ.get(
            "BENCH_T15_JSON",
            Path(__file__).resolve().parent.parent / "BENCH_T15.json",
        )
    )
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {target}")

    benchmark.pedantic(
        lambda: _measure_corpus(4, tmp_path / "timed"),
        rounds=1,
        iterations=1,
    )
