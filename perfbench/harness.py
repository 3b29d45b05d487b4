"""Helpers shared by the three workloads: the metric tables,
percentiles, timing, tracing and the run environment.

Every workload reports every metric of the tables below: the
end-to-end ones untraced, the per-layer ones traced.  The workload
modules build their inputs from the seed, drive one front end through
its public API, and report through :class:`Outcome`; ``run.py`` prints
it.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import re
import resource
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.trace import (
    InMemorySpanCollector,
    JsonlSpanExporter,
    Tracer,
    read_trace,
    span_to_record,
)
from trace_report import self_times

#: what a metric name may be made of (and at most 64 of them)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a tail percentile needs at least this many samples beyond it
MIN_TAIL_SAMPLES = 10

#: set-up is repeated this often per run and reported as the median
SETUP_REPEATS = 5

#: tails printed beside the metrics, as far as the samples allow.  The
#: metric is the p90: on a shared two-vCPU VM a serve p95 lands among
#: the 1% of cache hits the host delays, and read 1.35 to 2.6 ms across
#: runs of the same code.
DEEPER_TAILS = (95, 99, 99.9)

#: end-to-end metric -> (unit, better).  An operation is a matrix cell
#: (ic-matrix), a document through the five corpus commands (corpus) or
#: an HTTP request (serve); the latencies are of one point query: a pair
#: through ``check_independence``, one stored document through
#: ``CorpusStore.get_document``, one request.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
}

#: a ``*_time_share`` metric is the self time of the spans named by the
#: rest of its name, over the traced work (probes excluded)
TIME_SHARE = "_time_share"
_IC = "ic-matrix"
_THROUGHPUT = ("throughput_per_s",)
_POINT = ("latency_p50_ms", "latency_p90_ms")

#: per-layer metric -> (unit, better, {workload: the end-to-end metrics
#: it should move there}).  A workload that does not load a layer reads
#: 0 for that layer's metrics.
PER_LAYER = {
    "tautomata.construct_time_share": (
        "ratio", "lower", {_IC: ("throughput_per_s", "latency_p50_ms")},
    ),
    "tautomata.factor_time_share": ("ratio", "lower", {_IC: _THROUGHPUT}),
    "tautomata.flagged_product_time_share": (
        "ratio", "lower", {_IC: ("latency_p50_ms",)},
    ),
    "tautomata.schema_product_time_share": (
        "ratio", "lower", {_IC: ("throughput_per_s", "latency_p90_ms")},
    ),
    "independence.witness_time_share": (
        "ratio", "lower", {_IC: _THROUGHPUT},
    ),
    "regex.compile_misses": ("count", "lower", {_IC: _THROUGHPUT}),
    "tautomata.explored_rules": ("count", "lower", {_IC: _THROUGHPUT}),
    "tautomata.explored_fraction": ("ratio", "lower", {_IC: _THROUGHPUT}),
    "independence.eager_cells": (
        "count", "lower",
        {_IC: _THROUGHPUT, "serve": ("latency_p90_ms",)},
    ),
    "independence.dependent_cells": ("count", "lower", {_IC: _THROUGHPUT}),
    "xmlmodel.parse_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    # guarded over unguarded parse time
    "limits.guard_ratio": ("ratio", "lower", {"corpus": _THROUGHPUT}),
    "store.encode_time_share": ("ratio", "lower", {"corpus": _THROUGHPUT}),
    "store.write_time_share": ("ratio", "lower", {"corpus": _THROUGHPUT}),
    "store.read_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT + _POINT},
    ),
    "store.decode_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT + _POINT},
    ),
    "fd.index_build_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "store.state_write_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "store.state_read_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "store.state_decode_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "independence.certify_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "update.apply_time_share": ("ratio", "lower", {"corpus": _THROUGHPUT}),
    "update.checks_skipped_share": (
        "ratio", "higher", {"corpus": _THROUGHPUT},
    ),
    "schema.validate_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "fd.check_time_share": ("ratio", "lower", {"corpus": _THROUGHPUT}),
    "pattern.exposure_time_share": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "store.rows": ("count", "lower", {"corpus": _THROUGHPUT + _POINT}),
    "store.state_bytes": ("bytes", "lower", {"corpus": _THROUGHPUT}),
    "store.bytes_per_input_byte": (
        "ratio", "lower", {"corpus": _THROUGHPUT},
    ),
    "serve.hit_share": (
        "ratio", "higher", {"serve": ("throughput_per_s", "latency_p90_ms")},
    ),
    "serve.computed": (
        "count", "lower", {"serve": ("throughput_per_s", "latency_p90_ms")},
    ),
    "serve.coalesced": (
        "count", "higher", {"serve": ("throughput_per_s", "latency_p90_ms")},
    ),
    "serve.batched_requests": (
        "count", "higher", {"serve": ("throughput_per_s", "latency_p90_ms")},
    ),
    "serve.server_p50_share": (
        "ratio", "lower", {"serve": ("latency_p50_ms",)},
    ),
    "serve.server_p90_share": (
        "ratio", "lower", {"serve": ("latency_p90_ms",)},
    ),
    "serve.request_parse_time_share": (
        "ratio", "lower", {"serve": ("latency_p50_ms",)},
    ),
    "serve.compute_time_share": (
        "ratio", "lower", {"serve": ("throughput_per_s", "latency_p90_ms")},
    ),
    "persistence.journal_append_time_share": (
        "ratio", "lower", {"serve": ("latency_p90_ms",)},
    ),
    # how much of the work the trace explains, and what it costs
    "obs.coverage": ("ratio", "higher", {}),
    "obs.tracing_overhead": ("ratio", "lower", {}),
}


@dataclasses.dataclass(frozen=True)
class RunPaths:
    """Where one run reads and writes, all inside the checkout."""

    checkout: Path
    #: this run's scratch directory, removed when the run ends
    work: Path
    #: the traced run's span file, kept for ``scripts/trace_report.py``
    trace_file: Path

    @property
    def src(self) -> Path:
        return self.checkout / "src"


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to be measured."""


def tail_percentile(samples: list[float], percent: float) -> float:
    """The nearest-rank ``percent``-th percentile of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it: a p99 of 200
    samples is two samples deep and says nothing about the tail.
    """
    if not 0.0 < percent < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percent}")
    count = len(samples)
    rank = max(1, math.ceil(percent * count / 100.0))
    beyond = count - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{percent:g} of {count} samples has {beyond} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are needed"
        )
    return sorted(samples)[rank - 1]


def median(values: list[float]) -> float:
    """Median of a non-empty list (the figure every timed phase reports)."""
    return statistics.median(values)


def collect_and_time(function, *args, **kwargs):
    """``gc.collect()``, then run ``function`` on the wall clock.

    Returns ``(result, seconds)``; the collection happens outside the
    timed region so garbage left by the previous pass is not billed to
    this one.
    """
    gc.collect()
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


@dataclasses.dataclass
class Outcome:
    """What one workload run reports: operation counts and metrics."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, dict] = dataclasses.field(default_factory=dict)
    #: workload shape and sample counts, printed before the result line
    info: dict = dataclasses.field(default_factory=dict)

    def count(self, ok: bool, what: str) -> None:
        """Account for one operation; ``what`` names it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        """Record one metric; names are checked and used once."""
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in self.metrics:
            raise ValueError(f"metric {name!r} reported twice")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result_line(self) -> dict:
        """The last line of the benchmark's output."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def report_end_to_end(
    outcome: Outcome,
    setup_s: float,
    peak_rss_mb: float,
    operations_per_s: float,
    latency_ms: list[float],
) -> None:
    """Every end-to-end metric of one untraced run."""
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb, "MiB")
    outcome.metric("throughput_per_s", operations_per_s, "1/s")
    outcome.metric("latency_p50_ms", median(latency_ms), "ms")
    outcome.metric("latency_p90_ms", tail_percentile(latency_ms, 90), "ms")
    outcome.info.setdefault("samples", {})["latency"] = len(latency_ms)
    ladder = outcome.info["latency_tail_ms"] = {}
    for percent in DEEPER_TAILS:
        try:
            ladder[f"p{percent:g}"] = tail_percentile(latency_ms, percent)
        except TooFewSamples:
            break


def own_peak_rss_mb() -> float:
    """This process's high-water resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's ``VmHWM``, in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def import_seconds(src_dir: Path, modules: list[str]) -> float:
    """Median wall time of a fresh interpreter importing ``modules``."""
    code = (
        f"import sys; sys.path.insert(0, {str(src_dir)!r}); "
        + "; ".join(f"import {module}" for module in modules)
    )
    durations = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        durations.append(time.perf_counter() - started)
    return median(durations)


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path``."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def cpu_times() -> list[int]:
    """The box's cumulative CPU ticks (``/proc/stat``'s ``cpu`` line)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def environment(work_dir: Path, cpu_before: list[int]) -> dict:
    """The facts a later comparison needs about the box and the run.

    ``cpu_steal_share`` is the share of the box's CPU time since
    ``cpu_before`` that the hypervisor gave to other guests; run-to-run
    speed drifts with it.
    """
    spent = [after - before for before, after in zip(cpu_before, cpu_times())]
    return {
        "cpu_steal_share": spent[7] / max(1, sum(spent)),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "sqlite": sqlite3.sqlite_version,
        "work_dir_filesystem": filesystem_of(work_dir),
        "flush_policy": (
            "sqlite WAL with synchronous=NORMAL; "
            "one fsync per journal record"
        ),
    }


class SpanRecorder:
    """The traced run's spans: kept in memory, written out at the end.

    Layer spans are opened by the workload around each call into a
    layer's public function, named ``<package>.<operation>`` after the
    ``src/repro`` package that owns the function.  Spans whose names are
    in ``probes`` measure extra work the untraced run does not do (an
    unguarded parse, a schemaless product); they are left out of the
    coverage and overhead figures.
    """

    def __init__(self, probes: frozenset[str] = frozenset()) -> None:
        self.collector = InMemorySpanCollector()
        self.tracer = Tracer(self.collector)
        self.probes = probes

    def span(self, name: str):
        return self.tracer.span(name)

    def records(self) -> list[dict]:
        return [span_to_record(span) for span in self.collector.spans]

    def write_jsonl(self, path: Path) -> list[dict]:
        """Export every span as a trace file and read it back."""
        exporter = JsonlSpanExporter(path)
        try:
            for span in self.collector.spans:
                exporter.export(span)
        finally:
            exporter.close()
        return read_trace(path)

    def probe_ns(self) -> int:
        return sum(
            span.duration_ns
            for span in self.collector.spans
            if span.name in self.probes
        )

    def layer_ns(self) -> int:
        """Self time of every non-probe span below the workload's roots."""
        phases = self_times(self.records())
        return sum(
            entry["self_ns"]
            for name, entry in phases.items()
            if name not in self.probes and not name.startswith("bench.")
        )


def self_ms(records: list[dict]) -> dict[str, float]:
    """Self time per span name, in milliseconds."""
    return {
        name: entry["self_ns"] / 1e6
        for name, entry in self_times(records).items()
    }


def subtree(records: list[dict], root_name: str) -> list[dict]:
    """The records of every span named ``root_name`` and its descendants."""
    children: dict[int, list[dict]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    selected: list[dict] = []
    stack = [record for record in records if record["name"] == root_name]
    while stack:
        record = stack.pop()
        selected.append(record)
        stack.extend(children.get(record["span_id"], ()))
    return selected


def report_layers(
    outcome: Outcome,
    recorder: SpanRecorder,
    layer_ms: dict[str, float],
    counts: dict[str, float],
    timings: tuple[float, float, float],
) -> None:
    """Every per-layer metric of one traced run.

    ``layer_ms`` maps a span name to its self time in milliseconds
    (:func:`self_ms`, with any split a workload derives from probes);
    ``counts`` holds the workload's count and ratio metrics.  A layer a
    workload has no spans or counts for reads 0.  ``timings`` are the
    traced replay's wall time (probes included), the same work
    untraced, and the untraced timed work the layer spans are measured
    against, all in seconds.
    """
    traced_seconds, untraced_seconds, covered_seconds = timings
    probe_seconds = recorder.probe_ns() / 1e9
    work_ms = (traced_seconds - probe_seconds) * 1000.0
    for name, (unit, _, _) in PER_LAYER.items():
        if name.endswith(TIME_SHARE):
            span_name = name.removesuffix(TIME_SHARE)
            outcome.metric(name, layer_ms.get(span_name, 0.0) / work_ms, unit)
        elif not name.startswith("obs."):
            outcome.metric(name, counts.get(name, 0), unit)
    outcome.metric(
        "obs.coverage",
        recorder.layer_ns() / 1e9 / covered_seconds,
        "ratio",
    )
    outcome.metric(
        "obs.tracing_overhead",
        (traced_seconds - probe_seconds) / untraced_seconds - 1.0,
        "ratio",
    )
