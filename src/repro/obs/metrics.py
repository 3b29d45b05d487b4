"""Counters, gauges, histograms — and one canonical stats snapshot.

The metrics half of :mod:`repro.obs`.  Before this layer the pipeline's
quantitative self-knowledge was scattered: lazy exploration returned
:class:`~repro.tautomata.lazy.ExplorationStats`, budget-exhausted runs
returned :class:`~repro.limits.PartialStats`, the regex/DFA caches kept
module-global counters, and ``PatternMatcher`` kept its own — each with
its own field names and no way to see them side by side.  This module
provides:

* the three classic instruments — :class:`Counter` (monotonic),
  :class:`Gauge` (last value wins), :class:`Histogram` (fixed bucket
  upper bounds, plus count/sum/min/max);
* :class:`MetricsRegistry` — a named collection of instruments with
  ``absorb_*`` adapters that fold the existing stats objects and cache
  counters into one registry, and a ``snapshot()`` returning a single
  plain dict;
* :func:`stats_snapshot` — THE canonical dict shape for explored-work
  accounting.  ``criterion.py``, ``views.py``, ``matrix.py``, the CLI
  and ``scripts/degradation_stats.py`` all go through it, so the same
  quantity can never be surfaced under two names again;
* :func:`format_stats` — the shared human rendering of that snapshot
  (previously duplicated between the two ``describe()`` methods);
* :data:`NOOP_METRICS` — the module-level default registry whose every
  method is an allocation-free no-op (the ``budget=None`` contract,
  pinned by the ``tracemalloc`` test in ``tests/obs``).

The exploration counters map one-to-one onto the Proposition 3 factors
(see DESIGN.md "Observability semantics"): ``ic.worst_case_rules`` is
the ``aU·aFD·|Σ|``-shaped bound the eager construction would pay, and
``ic.explored_rules`` is what the lazy run actually instantiated — the
ratio is the measured saving the T3 experiment reports.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: histogram bucket upper bounds for millisecond durations
DEFAULT_MS_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    enabled = True

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0; monotonicity is the contract)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last ``set`` wins)."""

    __slots__ = ("value",)

    enabled = True

    def __init__(self) -> None:
        self.value: float | int = 0

    def set(self, value: float | int) -> None:
        """Replace the gauge's value."""
        self.value = value


class Histogram:
    """Fixed-bucket distribution: counts per upper bound plus summary.

    ``bounds`` are inclusive upper bounds in increasing order; one
    overflow bucket catches everything above the last bound.  Bucket
    semantics are pinned by the edge tests in ``tests/obs``: a value
    equal to a bound lands in that bound's bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    enabled = True

    def __init__(self, bounds: Sequence[float] = DEFAULT_MS_BUCKETS) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {ordered}"
            )
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        """Summary plus per-bucket counts, JSON-ready."""
        buckets = {
            f"<={bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets[f">{self.bounds[-1]:g}"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "mean": None if self.count == 0 else self.total / self.count,
            "buckets": buckets,
        }


class _NoopInstrument:
    """One singleton stands in for every disabled instrument."""

    __slots__ = ()

    enabled = False
    value = 0
    count = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float | int) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


NOOP_INSTRUMENT = _NoopInstrument()


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; ``snapshot()`` renders everything into one plain dict
    (the shape ``BENCH_T3.json`` and ``degradation_stats.py`` embed).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_MS_BUCKETS
    ) -> Histogram:
        """The named histogram (created on first use with ``bounds``)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    # adapters: absorb the pre-existing stats objects
    # ------------------------------------------------------------------

    def absorb_exploration(self, stats) -> None:
        """Fold one :class:`~repro.tautomata.lazy.ExplorationStats` in."""
        self.counter("ic.explored_states").inc(stats.explored_states)
        self.counter("ic.explored_rules").inc(stats.explored_rules)
        self.counter("ic.worst_case_rules").inc(stats.worst_case_rules)
        self.counter("ic.step_attempts").inc(stats.step_attempts)
        if stats.fired_rules is not None:
            self.counter("ic.fired_rules").inc(stats.fired_rules)

    def absorb_partial(self, partial) -> None:
        """Fold one :class:`~repro.limits.PartialStats` (UNKNOWN cell) in."""
        self.counter("ic.partial.explored_states").inc(partial.explored_states)
        self.counter("ic.partial.explored_rules").inc(partial.explored_rules)
        self.counter("ic.partial.step_attempts").inc(partial.step_attempts)
        self.counter(f"ic.unknown.{partial.reason}").inc()

    def absorb_cell(self, cell) -> None:
        """Fold one decided cell: verdict count, duration, exploration.

        A matrix cell, or a per-pair result of ``check_independence`` or
        ``check_view_independence``: each has the verdict, wall time,
        exploration and partial statistics this reads.
        """
        self.counter(f"ic.verdict.{cell.verdict.value}").inc()
        self.histogram("ic.cell_ms").observe(cell.elapsed_seconds * 1000.0)
        if cell.exploration is not None:
            self.absorb_exploration(cell.exploration)
        if cell.partial is not None:
            self.absorb_partial(cell.partial)

    def absorb_matrix(self, matrix) -> None:
        """Fold a whole :class:`~repro.independence.matrix.IndependenceMatrix`."""
        for row in matrix.cells:
            for cell in row:
                self.absorb_cell(cell)
        if matrix.worker_faults:
            self.counter("matrix.worker_faults").inc(matrix.worker_faults)
        if matrix.spliced_cells:
            # splice accounting only exists for baseline-diffed runs; a
            # cold run stays byte-identical in the metrics snapshot
            self.counter("matrix.spliced_cells").inc(matrix.spliced_cells)
            self.counter("matrix.recomputed_cells").inc(
                matrix.recomputed_cells
            )
        self.gauge("matrix.elapsed_ms").set(matrix.elapsed_seconds * 1000.0)

    def absorb_audit(self, report) -> None:
        """Fold one :class:`~repro.audit.findings.CorpusReport` in.

        Counters per finding kind (``audit.findings.<kind>``) plus the
        run-shape counters (documents, restored, quarantined, aborted)
        and a per-document duration histogram (restored documents are
        excluded — their recorded durations belong to the original
        run), so ``--metrics`` covers audit runs exactly like matrix
        runs.
        """
        self.counter("audit.documents").inc(len(report.documents))
        if report.restored_documents:
            self.counter("audit.restored_documents").inc(
                report.restored_documents
            )
        for kind, count in sorted(report.finding_counts().items()):
            self.counter(f"audit.findings.{kind}").inc(count)
        if report.quarantined:
            self.counter("audit.quarantined").inc(len(report.quarantined))
        if report.aborted:
            self.counter("audit.aborted").inc()
        for document in report.documents:
            if not document.restored:
                self.histogram("audit.document_ms").observe(
                    document.elapsed_ms
                )
        self.gauge("audit.elapsed_ms").set(report.elapsed_seconds * 1000.0)

    def absorb_corpus_load(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusLoadReport` in."""
        self.counter("corpus.load.documents").inc(report.documents_seen)
        self.counter("corpus.load.loaded").inc(report.loaded)
        self.counter("corpus.load.unchanged").inc(report.unchanged)
        self.counter("corpus.load.errors").inc(report.errors)
        self.counter("corpus.load.chunks").inc(report.chunks_committed)
        self.gauge("corpus.load.docs_per_second").set(report.docs_per_second)
        self.gauge("corpus.load.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_corpus_check(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusCheckReport` in."""
        self.counter("corpus.check.documents").inc(len(report.documents))
        self.counter("corpus.check.satisfied").inc(report.satisfied_count)
        self.counter("corpus.check.violated").inc(report.violated_count)
        self.counter("corpus.check.unknown").inc(report.unknown_count)
        self.counter("corpus.check.index_hits").inc(report.index_hits)
        self.counter("corpus.check.indexed").inc(report.indexed_documents)
        self.gauge("corpus.check.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_corpus_apply(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusApplyReport` in."""
        self.counter("corpus.apply.documents").inc(len(report.documents))
        self.counter("corpus.apply.committed").inc(report.committed_count)
        self.counter("corpus.apply.rolled_back").inc(report.rolled_back_count)
        self.counter("corpus.apply.checks_run").inc(report.checks_run)
        self.counter("corpus.apply.checks_skipped").inc(report.checks_skipped)
        self.gauge("corpus.apply.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_caches(self) -> None:
        """Mirror the process-wide regex/DFA cache counters as gauges.

        Gauges, not counters: the underlying counters are already
        monotonic process-global state, so re-absorbing must reflect,
        never double-count.  The names (``cache.<cache>.<counter>``)
        carry exactly the values ``--cache-stats`` prints — the
        regression test in ``tests/obs`` holds the two outputs equal.
        """
        from repro.regex.cache import cache_stats

        for cache_name, counters in cache_stats().items():
            for key, value in counters.items():
                self.gauge(f"cache.{cache_name}.{key}").set(value)

    def absorb_matcher_stats(self, stats: dict, prefix: str = "matcher") -> None:
        """Fold one ``PatternMatcher.cache_stats()`` dict (accumulating)."""
        for key, value in stats.items():
            self.counter(f"{prefix}.{key}").inc(value)

    def absorb_pool(self, stats: dict | None = None) -> None:
        """Mirror the warm-pool/gate counters as gauges.

        Gauges for the same reason as :meth:`absorb_caches`: the pool's
        ``_stats`` dict is monotonic process-global state (pool reuse,
        warm-up cost, spawn-gate decisions, serial fallbacks), so
        re-absorbing must reflect, never double-count.  Pass an
        explicit ``pool_stats()`` snapshot to pin a moment in time.
        """
        if stats is None:
            from repro.independence.pool import pool_stats

            stats = pool_stats()
        for key, value in stats.items():
            self.gauge(f"pool.{key}").set(value)

    def absorb_persistence(self, stats: dict | None = None) -> None:
        """Mirror the persistence degradation counters as gauges.

        ``persistence.degraded_events`` counts every store that fell
        back to memory-only; ``persistence.suppressed_warnings`` counts
        the :class:`PersistenceWarning` repeats the per-group dedup
        swallowed — a long-lived daemon with a bad disk warns once and
        accounts the rest here instead of spamming one warning per
        request.  Gauges (reflect, never double-count), same contract
        as :meth:`absorb_caches` / :meth:`absorb_pool`.
        """
        if stats is None:
            from repro.persistence.store import persistence_stats

            stats = persistence_stats()
        for key, value in stats.items():
            self.gauge(f"persistence.{key}").set(value)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything in one JSON-ready dict."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }


class _NoopMetricsRegistry:
    """The disabled registry: every method no-ops, nothing allocates."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def gauge(self, name: str) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_MS_BUCKETS) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def absorb_exploration(self, stats) -> None:
        pass

    def absorb_partial(self, partial) -> None:
        pass

    def absorb_cell(self, cell) -> None:
        pass

    def absorb_matrix(self, matrix) -> None:
        pass

    def absorb_audit(self, report) -> None:
        pass

    def absorb_corpus_load(self, report) -> None:
        pass

    def absorb_corpus_check(self, report) -> None:
        pass

    def absorb_corpus_apply(self, report) -> None:
        pass

    def absorb_caches(self) -> None:
        pass

    def absorb_matcher_stats(self, stats: dict, prefix: str = "matcher") -> None:
        pass

    def absorb_pool(self, stats: dict | None = None) -> None:
        pass

    def absorb_persistence(self, stats: dict | None = None) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


NOOP_METRICS = _NoopMetricsRegistry()

_current: MetricsRegistry | _NoopMetricsRegistry = NOOP_METRICS


def current_metrics() -> MetricsRegistry | _NoopMetricsRegistry:
    """The installed registry (the no-op singleton by default)."""
    return _current


def install_metrics(registry: MetricsRegistry | _NoopMetricsRegistry | None):
    """Install a process-wide registry; returns the previous one."""
    global _current
    previous = _current
    _current = NOOP_METRICS if registry is None else registry
    return previous


# ----------------------------------------------------------------------
# the canonical stats snapshot (satellite: one surfacing, not three)
# ----------------------------------------------------------------------


def stats_snapshot(exploration=None, partial=None) -> dict:
    """One canonical dict for explored-work accounting.

    Accepts either (or neither) of the two stats objects an analysis
    can produce — :class:`~repro.tautomata.lazy.ExplorationStats` for a
    completed lazy run, :class:`~repro.limits.PartialStats` for a
    budget-exhausted one — and returns the same keys every time:

    ``explored_states``, ``explored_rules``, ``step_attempts``
        how much was actually visited (0 when nothing ran);
    ``fired_rules``
        exact per-rule firing count, or ``None`` when the engine did
        not track rules (NEVER silently a different quantity);
    ``worst_case_rules``
        the Proposition 3 bound, or ``None`` for truncated runs (a run
        cut short never learned it);
    ``reason``
        the exhausted budget dimension, or ``None`` for decided runs.

    ``criterion.py``, ``views.py``, ``matrix.py``, the CLI ``--metrics``
    output and ``scripts/degradation_stats.py`` all surface these
    fields through this function only.
    """
    snapshot = {
        "explored_states": 0,
        "explored_rules": 0,
        "fired_rules": None,
        "worst_case_rules": None,
        "step_attempts": 0,
        "reason": None,
    }
    if exploration is not None:
        snapshot["explored_states"] = exploration.explored_states
        snapshot["explored_rules"] = exploration.explored_rules
        snapshot["fired_rules"] = exploration.fired_rules
        snapshot["worst_case_rules"] = exploration.worst_case_rules
        snapshot["step_attempts"] = exploration.step_attempts
    if partial is not None:
        snapshot["explored_states"] = partial.explored_states
        snapshot["explored_rules"] = partial.explored_rules
        snapshot["step_attempts"] = partial.step_attempts
        snapshot["reason"] = partial.reason
    return snapshot


def format_stats(exploration=None, partial=None, automaton_size: int = 0) -> str:
    """The shared one-phrase rendering of an analysis's work accounting.

    Replaces the hand-rolled (and drift-prone) ``size_part`` strings the
    FD and view ``describe()`` methods each assembled on their own.
    """
    if partial is not None:
        return partial.describe()
    if exploration is None:
        return f"|A|={automaton_size}"
    return (
        f"explored {exploration.explored_states} states/"
        f"{exploration.explored_rules} rules "
        f"of <= {exploration.worst_case_rules} worst-case rules"
    )


def format_metrics_table(snapshot: dict) -> str:
    """Render a registry snapshot as an aligned text table (CLI output)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    scalar_rows = [
        (name, f"{value}") for name, value in sorted(counters.items())
    ] + [
        (
            name,
            f"{value:.3f}" if isinstance(value, float) else f"{value}",
        )
        for name, value in sorted(gauges.items())
    ]
    if scalar_rows:
        width = max(len(name) for name, _ in scalar_rows)
        lines.extend(f"{name.ljust(width)}  {value}" for name, value in scalar_rows)
    for name, histogram in sorted(histograms.items()):
        if histogram.get("count", 0):
            lines.append(
                f"{name}  count={histogram['count']} "
                f"sum={histogram['sum']:.3f} min={histogram['min']:.3f} "
                f"max={histogram['max']:.3f} mean={histogram['mean']:.3f}"
            )
        else:
            lines.append(f"{name}  count=0")
    return "\n".join(lines)
