"""Persistent warm worker pools + share-once contexts for matrix runs.

BENCH_T3 recorded ``--jobs 2`` losing ~3x to serial on a 2x2 matrix:
the seed fan-out created a fresh ``ProcessPoolExecutor`` per call (per
*attempt*, even), shipped every chunk a full copy of the update classes
and schema, and had every worker rebuild the shared trace/schema
automata from scratch.  Pool spawn plus duplicated construction dwarfed
the actual cell work.  This module removes all three costs:

* **persistent executors** — one pool per worker count, created on
  first use, warmed immediately (workers forced to spawn and import the
  pipeline), and *reused across matrix runs* until a fault or process
  exit retires it.  Pool spawn is paid once per process, not per call;
* **share-once contexts** — the per-run shared inputs (update classes,
  schema, global alphabet) are published once as a
  :class:`SharedWorkContext` under a small integer token.  Workers
  forked after publication inherit the object outright and deserialize
  nothing; pre-existing (reused-pool) workers unpickle the
  parent-pickled bytes once and cache the materialized automata by
  token, so the shared trace/schema automata are constructed exactly
  once per (worker, run) however many chunks the worker processes.
  Chunk payloads then carry only the token plus (row-offset, patterns);
* **a spawn-cost gate** — :func:`parallel_worthwhile` compares the
  estimated serial cell work (an EWMA of measured per-cell times)
  against the measured pool overheads and degrades tiny matrices to
  the serial path, so ``--jobs N`` can never lose to serial on a
  matrix whose whole runtime is smaller than the fan-out tax.  The
  achievable speedup is capped at :func:`available_cpus`: extra
  workers on a core-limited container only timeshare (each cell runs
  proportionally slower), so requesting ``--jobs 2`` on one core
  degrades to serial rather than paying the fan-out tax for nothing.

Nothing here is matrix-specific beyond the shape of the shared inputs;
:mod:`repro.independence.matrix` owns the chunking, recovery, and merge
logic and calls into this module for pool/context lifecycle.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.schema.automaton import schema_automaton
from repro.schema.dtd import Schema
from repro.tautomata.from_pattern import PatternAutomaton, trace_automaton
from repro.tautomata.hedge import HedgeAutomaton
from repro.update.update_class import UpdateClass

if TYPE_CHECKING:
    from repro.independence.containment import ColumnContainment

#: materialized contexts kept per worker (tokens beyond this are LRU'd
#: out — a worker serving many concurrent runs rebuilds the oldest)
WORKER_CACHE_LIMIT = 4

#: prior for the average cell cost before any matrix has been measured
DEFAULT_CELL_SECONDS = 0.005

#: prior for pool creation + warm-up before one has been measured
DEFAULT_SPAWN_SECONDS = 0.05

#: estimated per-chunk IPC cost (submit + pickle + result shipping)
DISPATCH_SECONDS_PER_CHUNK = 0.002

#: fan-out must promise at least this multiple of its overhead in saved
#: serial time — below it the race is too close to risk losing
GATE_MARGIN = 2.0

#: learned-gate absolute floor: a matrix whose estimated serial time is
#: below this never fans out, whatever the (config-mixing, and thus
#: sometimes overestimating) global EWMA claims — measured fan-out tax
#: on a warm pool is 5-15 ms per run, so tiny matrices cannot win
MIN_FANOUT_SERIAL_SECONDS = 0.04

#: EWMA weight of the newest cost observation
COST_OBSERVATION_WEIGHT = 0.5


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``--jobs 2`` on a one-core container just timeshares the core: each
    worker runs at half speed and the fan-out tax is pure loss.  The
    learned gate therefore caps the useful worker count at this figure
    rather than at the requested job count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


@dataclasses.dataclass
class MaterializedContext:
    """One run's shared automata, built inside one process.

    Holds exactly what :func:`repro.independence.matrix._explore_rows`
    shares across its cells: the global alphabet, one trace automaton
    per update class, the schema automaton, the factor cache the lazy
    strategy memoizes factor fixpoints in, and the containment of the
    update classes, which unbudgeted lazy runs derive cells from.
    """

    alphabet: frozenset[str]
    update_classes: tuple[UpdateClass, ...]
    update_automata: list[PatternAutomaton]
    schema_hedge: HedgeAutomaton | None
    factor_cache: dict = dataclasses.field(default_factory=dict)
    _containment: ColumnContainment | None = None

    def containment(self) -> ColumnContainment:
        """The update classes' containment, decided on first use.

        Runs after :meth:`SharedWorkContext.materialize` compiled every
        edge DFA, so the bounded inclusion tests compile nothing.
        """
        if self._containment is None:
            # imported here: runs that never derive never load it
            from repro.independence.containment import column_containment

            self._containment = column_containment(self.update_classes)
        return self._containment


@dataclasses.dataclass(frozen=True)
class SharedWorkContext:
    """The picklable recipe for a run's shared work (pickled **once**).

    ``log_path`` is a test hook: when set, every materialization
    appends one ``"<pid> <token>"`` line, letting the warm-pool tests
    assert the shared automata were constructed exactly once per
    (worker, run).
    """

    update_classes: tuple[UpdateClass, ...]
    schema: Schema | None
    alphabet: frozenset[str]
    log_path: str | None = None

    def materialize(self) -> MaterializedContext:
        """Build the shared automata in the current process."""
        update_automata = [
            trace_automaton(
                update_class.pattern, self.alphabet,
                track_regions=False, name="A_U",
            )
            for update_class in self.update_classes
        ]
        schema_hedge = (
            None if self.schema is None else schema_automaton(self.schema)
        )
        return MaterializedContext(
            alphabet=self.alphabet,
            update_classes=self.update_classes,
            update_automata=update_automata,
            schema_hedge=schema_hedge,
        )


# ----------------------------------------------------------------------
# context registry: parent publishes, workers resolve
# ----------------------------------------------------------------------

_tokens = itertools.count(1)
#: token -> published context; fork-started workers inherit this dict
_parent_contexts: dict[int, SharedWorkContext] = {}
#: worker-side: content digest -> materialized context (LRU, per
#: process).  Keyed by the pickle bytes' digest, NOT the run token:
#: repeated runs over the same inputs (bench loops, retried batches)
#: produce identical bytes, so a reused pool's workers skip the whole
#: materialization on every run after the first
_materialized: "OrderedDict[bytes, MaterializedContext]" = OrderedDict()

_stats = {
    "pools_created": 0,
    "pools_reused": 0,
    "pools_discarded": 0,
    "contexts_published": 0,
    "contexts_materialized": 0,
    "context_cache_hits": 0,
    # spawn-cost gate decisions (learned or threshold mode alike)
    "gate_parallel": 0,
    "gate_serial": 0,
    # chunks recomputed serially after exhausting pool restarts
    "serial_fallback_chunks": 0,
    # subset of the above forced by a tripped circuit breaker
    "breaker_serial_chunks": 0,
    # cumulative pool creation + warm-up cost, in integer milliseconds
    "warmup_ms_total": 0,
}


def publish_context(context: SharedWorkContext) -> tuple[int, bytes]:
    """Register a run's shared context; returns ``(token, bytes)``.

    The bytes are the one-time pickle of the context: chunk payloads
    all carry the same bytes object, so the pickling cost is paid once
    per run however many chunks ship.  Call :func:`release_context`
    when the run is over.
    """
    token = next(_tokens)
    _parent_contexts[token] = context
    _stats["contexts_published"] += 1
    return token, pickle.dumps(context)


def release_context(token: int) -> None:
    """Drop a published context (idempotent)."""
    _parent_contexts.pop(token, None)


def resolve_context(token: int, context_bytes: bytes) -> MaterializedContext:
    """Worker-side lookup: materialize once per (process, content).

    Fork-inherited workers find the context object in
    ``_parent_contexts`` and skip deserialization entirely; workers
    that predate the run (reused pool) or use a spawn start method
    unpickle ``context_bytes`` instead.  The materialized result is
    cached under the bytes' digest, so the expensive automaton
    construction runs at most once per distinct input set in this
    process — across chunks *and* across runs of a reused pool.
    """
    digest = hashlib.sha256(context_bytes).digest()
    context = _materialized.get(digest)
    if context is not None:
        _materialized.move_to_end(digest)
        _stats["context_cache_hits"] += 1
        return context
    shared = _parent_contexts.get(token)
    if shared is None:
        shared = pickle.loads(context_bytes)
    context = shared.materialize()
    _stats["contexts_materialized"] += 1
    if shared.log_path is not None:
        with open(shared.log_path, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {token}\n")
    _materialized[digest] = context
    while len(_materialized) > WORKER_CACHE_LIMIT:
        _materialized.popitem(last=False)
    return context


# ----------------------------------------------------------------------
# persistent executors
# ----------------------------------------------------------------------

_executors: dict[int, ProcessPoolExecutor] = {}

#: guards every ``_executors`` mutation.  Reentrant because shutdown can
#: be reached from a signal handler or atexit hook firing in the same
#: thread that is already inside :func:`get_executor` — a plain Lock
#: would deadlock there, an RLock just proceeds.  The long-lived daemon
#: additionally calls :func:`shutdown_all` from its drain path while a
#: compute thread may race a :func:`discard_executor`; the pop-then-act
#: pattern under the lock makes every combination idempotent.
_executors_lock = threading.RLock()


def _warm_task(index: int) -> int:
    return index


def _warm_worker() -> None:
    # pre-import the whole IC pipeline so the first real chunk pays no
    # import cost (a no-op under fork, where it is inherited hot)
    import repro.independence.matrix  # noqa: F401


def _mp_context():
    try:
        # fork inherits _parent_contexts and the warm import graph
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def get_executor(max_workers: int) -> ProcessPoolExecutor:
    """The persistent pool for ``max_workers``, created+warmed on miss.

    Creation forces every worker to spawn and import the pipeline
    immediately (rather than on first chunk) and records the measured
    spawn cost for :func:`parallel_worthwhile`.  Callers must *not*
    shut the executor down; use :func:`discard_executor` after a fault.
    """
    with _executors_lock:
        executor = _executors.get(max_workers)
        if executor is not None:
            _stats["pools_reused"] += 1
            return executor
        started = time.perf_counter()
        executor = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=_mp_context(),
            initializer=_warm_worker,
        )
        # warm-up barrier: one trivial task per worker forces the
        # processes to exist and finish initializing before real chunks
        # are submitted
        list(executor.map(_warm_task, range(max_workers)))
        elapsed = time.perf_counter() - started
        record_spawn_seconds(elapsed)
        _executors[max_workers] = executor
        _stats["pools_created"] += 1
        _stats["warmup_ms_total"] += round(elapsed * 1000)
        return executor


def discard_executor(max_workers: int, wait: bool = True) -> None:
    """Retire a pool after a fault (broken: wait; hung: abandon).

    Idempotent and safe under concurrency: the pop happens under
    :data:`_executors_lock`, so of two racing callers exactly one
    shuts the pool down and the other no-ops — double shutdown no
    longer relies on atexit ordering.
    """
    with _executors_lock:
        executor = _executors.pop(max_workers, None)
        if executor is None:
            return
        _stats["pools_discarded"] += 1
    # the actual shutdown happens outside the lock: a hung pool's
    # (wait=False) shutdown is quick, but a broken one may join worker
    # processes and must not stall concurrent get_executor callers
    executor.shutdown(wait=wait, cancel_futures=True)


def shutdown_all() -> None:
    """Retire every persistent pool (process exit / daemon drain /
    test teardown).  Idempotent; callable from signal handlers and
    concurrently with :func:`discard_executor` — each pool is shut
    down exactly once whoever gets there first."""
    with _executors_lock:
        retired = list(_executors)
    for max_workers in retired:
        discard_executor(max_workers, wait=False)


atexit.register(shutdown_all)


def record_serial_fallback(chunk_count: int, reason: str = "pool-fault") -> None:
    """Count work a run had to push through the serial path.

    ``reason="pool-fault"`` is the in-run recovery path (chunks
    recomputed in the parent after pool restarts were exhausted);
    ``reason="breaker"`` is the service's circuit breaker refusing to
    hand a request to the pool while tripped.  Both flow into the same
    ``serial_fallback_chunks`` counter — there is exactly one account
    of "the pool was not trusted with this work" — with a breaker-only
    sub-counter so operators can tell recovery from prevention.
    """
    _stats["serial_fallback_chunks"] += chunk_count
    if reason == "breaker":
        _stats["breaker_serial_chunks"] += chunk_count


def pool_stats() -> dict[str, int]:
    """A snapshot of the pool/context counters (tests diff these)."""
    return dict(_stats)


# ----------------------------------------------------------------------
# the spawn-cost gate
# ----------------------------------------------------------------------

_estimates: dict[str, float | None] = {
    "cell_seconds": None,
    "spawn_seconds": None,
}


def _observe(key: str, seconds: float) -> None:
    if seconds < 0:
        return
    current = _estimates[key]
    if current is None:
        _estimates[key] = seconds
    else:
        _estimates[key] = (
            COST_OBSERVATION_WEIGHT * seconds
            + (1.0 - COST_OBSERVATION_WEIGHT) * current
        )


def record_cell_seconds(seconds: float) -> None:
    """Feed one run's measured average per-cell time into the gate."""
    _observe("cell_seconds", seconds)


def record_spawn_seconds(seconds: float) -> None:
    """Feed one measured pool creation + warm-up time into the gate."""
    _observe("spawn_seconds", seconds)


def estimated_cell_seconds() -> float:
    """Current per-cell cost estimate (prior until measured)."""
    value = _estimates["cell_seconds"]
    return DEFAULT_CELL_SECONDS if value is None else value


def estimated_spawn_seconds() -> float:
    """Current pool spawn cost estimate (prior until measured)."""
    value = _estimates["spawn_seconds"]
    return DEFAULT_SPAWN_SECONDS if value is None else value


def parallel_worthwhile(
    cell_count: int,
    jobs: int,
    chunk_count: int,
    threshold_seconds: float | None = None,
) -> bool:
    """Should this matrix fan out, or is it below the spawn threshold?

    With ``threshold_seconds`` set, the decision is explicit: matrices
    whose estimated serial time falls below the threshold run serial
    (``0.0`` disables the gate outright — tests that must exercise the
    pool on tiny matrices pass that).  With ``None`` (the default) the
    gate is learned: fan-out must save at least :data:`GATE_MARGIN`
    times its own overhead (per-chunk dispatch, plus pool spawn when no
    warm pool exists yet) in estimated serial cell time, where the
    achievable saving is bounded by :func:`available_cpus` — requested
    workers beyond the cores this process may run on only timeshare,
    so on a one-core machine the learned gate always answers no.
    """
    decision = _gate_decision(cell_count, jobs, chunk_count, threshold_seconds)
    _stats["gate_parallel" if decision else "gate_serial"] += 1
    return decision


def _gate_decision(
    cell_count: int,
    jobs: int,
    chunk_count: int,
    threshold_seconds: float | None,
) -> bool:
    if cell_count <= 0 or jobs <= 1:
        return False
    estimated_serial = cell_count * estimated_cell_seconds()
    if threshold_seconds is not None:
        if threshold_seconds <= 0:
            return True
        return estimated_serial >= threshold_seconds
    effective_workers = min(jobs, available_cpus())
    if effective_workers <= 1:
        return False
    if estimated_serial < MIN_FANOUT_SERIAL_SECONDS:
        return False
    overhead = DISPATCH_SECONDS_PER_CHUNK * chunk_count
    if jobs not in _executors:
        overhead += estimated_spawn_seconds()
    saving = estimated_serial * (1.0 - 1.0 / effective_workers)
    return saving > GATE_MARGIN * overhead
