"""T16 — corpus store: bulk-load throughput and the warm-reopen win.

The store's amortization claim: parsing and FD-indexing a corpus is
paid once — a reopened store answers corpus-wide FD checks from
persisted index state, with no parse and no re-indexing.  This bench
measures that claim at corpus scale (10^4 documents in the full run):

* **bulk load** — documents/second storing an on-disk XML corpus in
  SQLite with chunked transactions;
* **sha-skip reload** — re-running the same load; every document is
  recognized by content digest and skipped (the crash-resume path);
* **cold check** — ``check_fd_corpus`` on the freshly loaded store:
  every (document, FD) builds and persists an index;
* **warm reopen check** — the store is closed, reopened from the
  SQLite file, and checked again: answered from persisted state only.

Each phase starts from its own copy of a prepared store file (empty,
loaded, or loaded and indexed), so the four phases run interleaved
for :data:`ROUNDS` rounds, rotating their order so each runs first,
second, third and last equally often.  Every time reported is a median
with its quartiles, and every run of every round is checked, not just
timed.  ``store_bytes_per_input_byte`` is the closed, loaded store's
file size over the corpus's XML bytes.

The hard floor asserted here (and re-checked in CI from the JSON):
the warm reopen check is at least **5x** the cold check's docs/s at
the largest corpus size, with verdict counts identical cold vs warm.

Results go to ``BENCH_T16.json`` (override via ``BENCH_T16_JSON``).
``BENCH_QUICK=1`` shrinks the sweep to ~600 documents; every
correctness assertion runs in both modes.
"""

import json
import os
import shutil
import statistics
import time
from pathlib import Path

from repro.store import CorpusStore, SqliteBackend
from repro.workload.library import generate_library, library_fds
from repro.xmlmodel.serializer import serialize_document

from benchmarks.conftest import emit_table

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: corpus sizes swept (documents per corpus)
SIZES = (600,) if QUICK else (2_000, 10_000)
#: the reopen floor the issue demands, enforced at the largest size
WARM_SPEEDUP_FLOOR = 5.0
CHUNK_SIZE = 256
PHASES = ("load", "reload", "cold_check", "warm_check")
#: interleaved rounds per corpus size (a multiple of the four phases,
#: so the rotation gives each phase each position equally often)
ROUNDS = 8


def _write_corpus(directory: Path, documents: int) -> int:
    """Write the corpus; returns its total XML bytes."""
    directory.mkdir(parents=True)
    total = 0
    for index in range(documents):
        document = generate_library(
            books=1 + index % 2,
            seed=index,
            violate_key=1 if index % 97 == 0 else 0,
        )
        data = serialize_document(document).encode("utf-8")
        (directory / f"doc{index:05d}.xml").write_bytes(data)
        total += len(data)
    return total


def _timed(db: Path, operation):
    """Open ``db``, time ``operation(store)`` and close it again.

    Returns the operation's report and its seconds; opening and
    closing the store are not timed.
    """
    with CorpusStore(SqliteBackend(db)) as store:
        started = time.perf_counter()
        report = operation(store)
        return report, time.perf_counter() - started


def _measure_corpus(documents: int, tmp_path: Path) -> dict:
    corpus = tmp_path / f"corpus-{documents}"
    input_bytes = _write_corpus(corpus, documents)
    fds = library_fds()[:2]
    pairs = documents * len(fds)

    def load(store):
        return store.load_paths(
            [str(corpus)], recursive=True, chunk_size=CHUNK_SIZE
        )

    def check(store):
        return store.check_fd_corpus(fds)

    # the prepared stores each phase copies: loaded, loaded + indexed
    loaded = tmp_path / f"loaded-{documents}.db"
    assert _timed(loaded, load)[0].loaded == documents
    # closing the last connection checkpoints the WAL into the file
    store_bytes = loaded.stat().st_size
    indexed = tmp_path / f"indexed-{documents}.db"
    shutil.copyfile(loaded, indexed)
    reference, _ = _timed(indexed, check)
    verdicts = (reference.satisfied_count, reference.violated_count)
    assert reference.unknown_count == 0

    work = tmp_path / f"work-{documents}.db"

    def fresh(source: Path | None) -> None:
        for path in (work, Path(f"{work}-wal"), Path(f"{work}-shm")):
            path.unlink(missing_ok=True)
        if source is not None:
            shutil.copyfile(source, work)

    def run_load() -> float:
        fresh(None)
        report, elapsed = _timed(work, load)
        assert report.loaded == documents and report.errors == 0
        return elapsed

    def run_reload() -> float:
        fresh(loaded)
        report, elapsed = _timed(work, load)
        assert report.unchanged == documents and report.loaded == 0
        return elapsed

    def run_cold() -> float:
        fresh(loaded)
        report, elapsed = _timed(work, check)
        assert report.index_hits == 0
        assert report.indexed_documents == pairs
        assert (report.satisfied_count, report.violated_count) == verdicts
        return elapsed

    def run_warm() -> float:
        # the reopen: a fresh process image as far as SQLite is concerned
        fresh(indexed)
        report, elapsed = _timed(work, check)
        assert report.index_hits == pairs
        assert report.indexed_documents == 0
        # verdicts are identical cold vs warm — the state is the answer
        assert (report.satisfied_count, report.violated_count) == verdicts
        assert report.unknown_count == 0
        return elapsed

    runs = {
        "load": run_load,
        "reload": run_reload,
        "cold_check": run_cold,
        "warm_check": run_warm,
    }
    samples = {phase: [] for phase in PHASES}
    for round_index in range(ROUNDS):
        shift = round_index % len(PHASES)
        for phase in PHASES[shift:] + PHASES[:shift]:
            samples[phase].append(runs[phase]() * 1000)
    fresh(None)

    # [q1, median, q3] of each phase's times
    quartiles = {
        phase: statistics.quantiles(times, n=4, method="inclusive")
        for phase, times in samples.items()
    }
    median = {phase: values[1] for phase, values in quartiles.items()}
    return {
        "documents": documents,
        "rounds": ROUNDS,
        "input_bytes": input_bytes,
        "store_bytes": store_bytes,
        "store_bytes_per_input_byte": store_bytes / input_bytes,
        "load_ms": median["load"],
        "load_docs_per_s": documents / median["load"] * 1000,
        "reload_ms": median["reload"],
        "reload_docs_per_s": documents / median["reload"] * 1000,
        "cold_check_ms": median["cold_check"],
        "cold_docs_per_s": documents / median["cold_check"] * 1000,
        "warm_check_ms": median["warm_check"],
        "warm_docs_per_s": documents / median["warm_check"] * 1000,
        "warm_speedup": median["cold_check"] / median["warm_check"],
        "quartiles_ms": {
            phase: [values[0], values[2]]
            for phase, values in quartiles.items()
        },
        "violated": verdicts[1],
        "verdicts_equal": True,
    }


def bench_t16_report(benchmark, tmp_path):
    records = [_measure_corpus(size, tmp_path) for size in SIZES]

    largest = records[-1]
    assert largest["warm_speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm reopen only {largest['warm_speedup']:.1f}x the cold check "
        f"at {largest['documents']} documents (floor: "
        f"{WARM_SPEEDUP_FLOOR}x)"
    )

    def spread(record, phase):
        q1, q3 = record["quartiles_ms"][phase]
        return f"{record[phase + '_ms']:.1f} ({q1:.1f}-{q3:.1f})"

    emit_table(
        f"T16: corpus store at scale (SQLite, 2 FDs per document; "
        f"medians and quartiles of {ROUNDS} interleaved rounds)",
        [
            "docs",
            "load (ms)",
            "reload (ms)",
            "cold check (ms)",
            "warm check (ms)",
            "warm speedup",
            "store B / input B",
        ],
        [
            [
                record["documents"],
                spread(record, "load"),
                spread(record, "reload"),
                spread(record, "cold_check"),
                spread(record, "warm_check"),
                f"{record['warm_speedup']:.1f}x",
                f"{record['store_bytes_per_input_byte']:.2f}",
            ]
            for record in records
        ],
    )

    payload = {
        "experiment": "T16",
        "quick": QUICK,
        "chunk_size": CHUNK_SIZE,
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "configs": records,
    }
    target = Path(
        os.environ.get(
            "BENCH_T16_JSON",
            Path(__file__).resolve().parent.parent / "BENCH_T16.json",
        )
    )
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {target}")

    benchmark.pedantic(
        lambda: _measure_corpus(100, tmp_path / "timed"),
        rounds=1,
        iterations=1,
    )
