"""The resident IC service: admission, dedup, batching, compute, drain.

This is the daemon's brain; :mod:`repro.serve.http` is only a thin
HTTP/1.1 skin over :meth:`IndependenceService.handle`.  A request
travels::

    handle() ── body digest known, answer cached? ─> 200 (source=cache)
       │
       ├─ parse ── result cache? ────────> 200 (source=cache)
       │
       ├─ single-flight: follower? ──────> await leader ─> 200 (coalesced)
       │
       ├─ queue full? ───────────────────> 429 + Retry-After
       │
       └─ enqueue ─> dispatcher ─> micro-batch ─> compute thread
                                       │
                                       └─> check_independence_matrix
                                           (breaker-gated parallelism,
                                            pressure-scaled budget,
                                            per-request run dir)

Robustness decisions, and why they sit where they do:

* **A known body skips the parse.**  ``parse_request`` is a pure
  function of the decoded body and the daemon's fixed default
  strategy, so the sha256 of the body's canonical JSON can only ever
  name the request key that body parses to.  Every successful parse
  records digest → key in an LRU bounded like the result cache; a
  later body with that digest whose decided answer is still cached is
  answered without parsing.  Anything else — an unseen digest, an
  evicted or never-cached (UNKNOWN) answer, a request still in flight
  — takes the full path.

* **Admission control happens before queueing, not after** — a shed
  request costs the daemon a full parse (FD, XPath and schema
  translation plus the manifest digest) and two hashmap probes, but
  no queue slot and no compute, so a client storm cannot starve the
  compute thread.  Cache hits and coalesced followers deliberately
  bypass the queue: serving a known answer is O(1) and shedding it
  would be self-inflicted damage.

* **The compute path is one thread.**  IC computation is CPU-bound
  and already fans out *internally* over the warm process pool;
  stacking server-side thread parallelism on top would just thrash.
  One compute thread + a bounded queue gives an honest backlog signal
  for pressure budgets and 429s.

* **Budgets are decided at dispatch time**, from the queue depth the
  dispatcher actually observes — not at admission, when the backlog a
  request will experience is still unknown.

* **The watchdog answers the client, not the computation.**  A thread
  cannot be killed safely, so on expiry the client receives a sound
  degraded answer (all-UNKNOWN, HTTP 200, ``needs_revalidation``) and
  the computation finishes into the result cache for the next asker.
  Expiry counts as a breaker fault: a wedged pool is the usual cause.

* **Drain completes the queue, never truncates it silently** — new
  requests get 503, queued ones are computed (and journaled) within
  the grace, and only past the grace are leftovers answered degraded.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import ReproError, ResumeMismatchError
from repro.independence import pool
from repro.independence.matrix import FaultInjection, check_independence_matrix
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_TRACER
from repro.persistence.store import persistence_stats
from repro.serve.api import (
    BadRequest,
    IndependenceRequest,
    build_response,
    degraded_response,
    error_body,
    parse_request,
    slice_matrix_json,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.dedup import ResultJournal, SingleFlight, lru_put

#: rows a merged micro-batch may reach before it stops absorbing
MAX_BATCH_ROWS = 64

#: recent request latencies kept for /stats percentiles
LATENCY_WINDOW = 2048


class ServiceDraining(ReproError):
    """Raised into coalesced waiters when drain runs out of grace."""


@dataclasses.dataclass
class _Pending:
    """One admitted request waiting for the dispatcher."""

    request: IndependenceRequest
    future: asyncio.Future
    enqueued_at: float


def _body_digest(body) -> bytes | None:
    """sha256 of the body's canonical JSON: what ``parse_request`` reads.

    None when the body is nested too deeply to encode again (the
    decoder ran a few frames higher up the stack); such a body just
    takes the full path.
    """
    try:
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        return None
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class IndependenceService:
    """Everything between a parsed HTTP request and a JSON response."""

    def __init__(
        self,
        config: ServeConfig,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_seconds=config.breaker_cooldown_ms / 1000.0,
        )
        self.single_flight = SingleFlight()
        checkpoint_root = (
            Path(config.checkpoint_dir) if config.checkpoint_dir else None
        )
        self._checkpoint_root = checkpoint_root
        self.results = ResultJournal(
            None if checkpoint_root is None else checkpoint_root / "results.wal"
        )
        #: body digest → the request key that body parses to
        self._body_keys: OrderedDict[bytes, str] = OrderedDict()
        self._pending: deque[_Pending] = deque()
        self._wakeup = asyncio.Event()
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ic-compute"
        )
        self._compute_busy = 0
        self._dispatcher: asyncio.Task | None = None
        self.draining = False
        self._started_at = time.monotonic()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._counts = {
            "requests": 0,
            "computed": 0,
            "cache_hits": 0,
            "parse_skipped": 0,
            "coalesced": 0,
            "shed_429": 0,
            "rejected_503": 0,
            "parse_errors": 0,
            "batches": 0,
            "batched_requests": 0,
            "watchdog_timeouts": 0,
            "degraded": 0,
            "breaker_serial": 0,
            "internal_errors": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the dispatcher on the running loop (idempotent)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="ic-dispatcher"
            )

    @property
    def queue_depth(self) -> int:
        return len(self._pending) + self._compute_busy

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    async def handle(self, body) -> tuple[int, dict, dict]:
        """Process one ``POST /v1/independence`` body.

        Returns ``(status, json_body, extra_headers)``; never raises
        for client-visible conditions — the HTTP layer only transports.
        """
        started = time.monotonic()
        self._counts["requests"] += 1
        if self.draining:
            self._counts["rejected_503"] += 1
            return self._reply(
                started,
                503,
                error_body(503, "service is draining"),
                {"Retry-After": "1"},
                source="draining",
                parsed=False,
            )
        # parse_request is pure, so a body parsed before names its key
        digest = _body_digest(body)
        key = self._body_keys.get(digest)
        if key is not None:
            cached = self.results.get(key)
            if cached is not None:
                self._body_keys.move_to_end(digest)
                self._counts["parse_skipped"] += 1
                self.metrics.counter("serve.parse_skipped").inc()
                return self._cache_hit(cached, key, started, parsed=False)
        try:
            request = parse_request(body, self.config.strategy)
        except BadRequest as error:
            self._counts["parse_errors"] += 1
            return self._reply(
                started, 400, error_body(400, str(error)), source="bad-request"
            )
        if digest is not None:
            lru_put(self._body_keys, digest, request.key, self.results.limit)

        cached = self.results.get(request.key)
        if cached is not None:
            return self._cache_hit(cached, request.key, started, parsed=True)

        future, leader = self.single_flight.claim(request.key)
        if not leader:
            self._counts["coalesced"] += 1
            self.metrics.counter("serve.coalesced").inc()
            return await self._await_result(request, future, started, True)

        # leader: admission control — the queue is the backlog signal
        if len(self._pending) >= self.config.queue_limit:
            self._counts["shed_429"] += 1
            self.metrics.counter("serve.shed").inc()
            retry_after = max(
                1, int(self.config.watchdog_ms / 1000.0 / 4) or 1
            )
            self.single_flight.fail(
                request.key, ReproError("request shed at admission")
            )
            return self._reply(
                started,
                429,
                error_body(429, "admission queue full", retry_after=retry_after),
                {"Retry-After": str(retry_after)},
                source="shed",
                key=request.key,
            )
        self._pending.append(_Pending(request, future, started))
        self._wakeup.set()
        return await self._await_result(request, future, started, False)

    def _cache_hit(
        self, cached: dict, key: str, started: float, parsed: bool
    ) -> tuple[int, dict, dict]:
        self._counts["cache_hits"] += 1
        self.metrics.counter("serve.cache_hits").inc()
        response = dict(cached)
        response["served"] = {**response["served"], "source": "cache"}
        self._observe_latency(started)
        return self._reply(
            started, 200, response, source="cache", key=key, parsed=parsed
        )

    async def _await_result(
        self,
        request: IndependenceRequest,
        future: asyncio.Future,
        started: float,
        coalesced: bool,
    ) -> tuple[int, dict, dict]:
        """Wait for the (shared) computation, bounded by the watchdog."""
        watchdog = self.config.watchdog_ms / 1000.0
        try:
            response = await asyncio.wait_for(
                asyncio.shield(future), None if watchdog <= 0 else watchdog
            )
        except asyncio.TimeoutError:
            # the computation cannot be killed; answer soundly now and
            # let it finish into the result cache for the next asker
            self._counts["watchdog_timeouts"] += 1
            self._counts["degraded"] += 1
            self.metrics.counter("serve.watchdog_timeouts").inc()
            self.breaker.record_fault()
            self._observe_latency(started)
            response = degraded_response(request, reason="watchdog")
            return self._reply(
                started, 200, response, source="degraded", key=request.key
            )
        except ServiceDraining:
            self._counts["degraded"] += 1
            self._observe_latency(started)
            response = degraded_response(request, reason="draining")
            return self._reply(
                started, 200, response, source="degraded", key=request.key
            )
        except ReproError as error:
            self._counts["internal_errors"] += 1
            return self._reply(
                started,
                500,
                error_body(500, str(error)),
                source="error",
                key=request.key,
            )
        if coalesced:
            response = dict(response)
            response["served"] = {
                **response["served"],
                "source": "coalesced",
            }
        self._observe_latency(started)
        return self._reply(
            started,
            200,
            response,
            source=response["served"]["source"],
            key=request.key,
        )

    def _reply(
        self,
        started: float,
        status: int,
        payload: dict,
        headers: dict | None = None,
        *,
        source: str,
        key: str | None = None,
        parsed: bool = True,
    ) -> tuple[int, dict, dict]:
        """Every return of :meth:`handle` ends here: one
        ``serve.request`` span under tracing.  It is recorded whole —
        a span cannot stay open on the thread's stack across awaits."""
        if self.tracer.enabled:
            attributes = {"source": source, "parsed": parsed}
            if key is not None:
                attributes["request_key"] = key
            self.tracer.record_span(
                "serve.request",
                int((time.monotonic() - started) * 1e9),
                attributes,
            )
        return status, payload, {} if headers is None else headers

    def _observe_latency(self, started: float) -> None:
        elapsed_ms = (time.monotonic() - started) * 1000.0
        self._latencies.append(elapsed_ms)
        self.metrics.histogram("serve.latency_ms").observe(elapsed_ms)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self.draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            window = self.config.batch_window_ms / 1000.0
            if window > 0 and not self.draining and len(self._pending) == 1:
                # idle micro-batch window: let same-shape requests land
                await asyncio.sleep(window)
            if not self._pending:
                continue
            batch = self._collect_batch()
            budget = self.config.pressure_budget(len(self._pending))
            self._compute_busy += len(batch)
            try:
                outcomes = await loop.run_in_executor(
                    self._compute, self._run_batch, batch, budget
                )
            except Exception as error:  # noqa: BLE001 — must not kill loop
                for item in batch:
                    self.single_flight.fail(
                        item.request.key,
                        error
                        if isinstance(error, ReproError)
                        else ReproError(f"computation failed: {error}"),
                    )
                continue
            finally:
                self._compute_busy -= len(batch)
            for item, response in zip(batch, outcomes):
                self.single_flight.resolve(item.request.key, response)

    def _collect_batch(self) -> list[_Pending]:
        """Pop the head plus every queued same-shape request (bounded)."""
        first = self._pending.popleft()
        batch = [first]
        rows = first.request.rows
        if self.config.batch_window_ms <= 0:
            return batch
        keep: deque[_Pending] = deque()
        while self._pending:
            item = self._pending.popleft()
            if (
                item.request.batch_key == first.request.batch_key
                and rows + item.request.rows <= MAX_BATCH_ROWS
            ):
                batch.append(item)
                rows += item.request.rows
            else:
                keep.append(item)
        self._pending.extend(keep)
        if len(batch) > 1:
            self._counts["batches"] += 1
            self._counts["batched_requests"] += len(batch)
            self.metrics.counter("serve.batched_requests").inc(len(batch))
        return batch

    # ------------------------------------------------------------------
    # compute (runs on the compute thread)
    # ------------------------------------------------------------------

    def _run_batch(self, batch: list[_Pending], budget) -> list[dict]:
        first = batch[0].request
        merged = len(batch) > 1
        fds = [fd for item in batch for fd in item.request.fds]
        parallelism = self.config.jobs
        breaker_admitted = False
        if parallelism > 1:
            if self.breaker.allow_parallel():
                breaker_admitted = True
            else:
                parallelism = 1
                self._counts["breaker_serial"] += 1
                pool.record_serial_fallback(len(fds), reason="breaker")
        fault = self._debug_fault(first)
        delay = self._debug_delay(first)
        run_dir = None
        if self._checkpoint_root is not None and not merged:
            # merged batches never checkpoint: their stacked row set is
            # an artifact of arrival timing, not a resumable identity
            run_dir = self._checkpoint_root / "runs" / first.key[:24]
        try:
            matrix = self._run_matrix(
                fds, first, parallelism, budget, run_dir, fault, delay
            )
        except ReproError:
            if breaker_admitted:
                self.breaker.record_fault()
            raise
        if matrix.worker_faults > 0:
            self.breaker.record_fault()
        elif breaker_admitted and matrix.parallelism > 1:
            self.breaker.record_success(parallel=True)
        elif breaker_admitted:
            # the matrix spawn-cost gate degraded this run to serial —
            # it proved nothing about the pool; free any probe slot
            self.breaker.release_probe()
        self.metrics.absorb_matrix(matrix)
        full = matrix.to_json_dict(include_witnesses=first.want_witness)
        self._counts["computed"] += len(batch)
        self.metrics.counter("serve.computed").inc(len(batch))
        responses = []
        row_start = 0
        for item in batch:
            names = [fd.name for fd in item.request.fds]
            sliced = (
                slice_matrix_json(full, row_start, names) if merged else full
            )
            row_start += len(names)
            response = build_response(
                sliced,
                key=item.request.key,
                source="computed",
                batched=len(batch),
            )
            # only fully decided answers are worth remembering: an
            # UNKNOWN was a budget artifact and must be re-attempted
            if sliced["unknown"] == 0:
                self.results.put(item.request.key, response)
            responses.append(response)
        return responses

    def _run_matrix(
        self, fds, request, parallelism, budget, run_dir, fault, delay
    ):
        kwargs = dict(
            schema=request.schema,
            want_witness=request.want_witness,
            strategy=request.strategy,
            parallelism=parallelism,
            budget=budget,
            tracer=self.tracer,
            _fault_injection=fault,
            _per_cell_delay_seconds=delay,
        )
        if self.config.debug_hooks and request.debug.get("force_parallel"):
            kwargs["parallel_threshold_seconds"] = 0.0
        if run_dir is None:
            return check_independence_matrix(
                fds, request.update_classes, **kwargs
            )
        resume = (run_dir / "manifest.json").exists()
        try:
            return check_independence_matrix(
                fds,
                request.update_classes,
                checkpoint_dir=run_dir,
                resume=resume,
                **kwargs,
            )
        except ResumeMismatchError:
            # same request key but drifted budget spec in the stored
            # manifest (pressure scaling moved between runs): recompute
            # fresh rather than refuse — resume is an optimization here
            return check_independence_matrix(
                fds,
                request.update_classes,
                checkpoint_dir=run_dir,
                resume=False,
                **kwargs,
            )

    def _debug_fault(self, request: IndependenceRequest):
        if not self.config.debug_hooks:
            return None
        spec = request.debug.get("fault")
        if not isinstance(spec, dict):
            return None
        try:
            return FaultInjection(
                kind=spec["kind"],
                flag_path=spec["flag_path"],
                target_offset=int(spec.get("target_offset", 0)),
                hang_seconds=float(spec.get("hang_seconds", 30.0)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _debug_delay(self, request: IndependenceRequest) -> float:
        if not self.config.debug_hooks:
            return 0.0
        try:
            delay_ms = float(request.debug.get("per_cell_delay_ms", 0))
        except (TypeError, ValueError):
            return 0.0
        return max(0.0, delay_ms / 1000.0)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """``/healthz`` body: alive, with degradation honestly stated."""
        stats = persistence_stats()
        return {
            "ok": True,
            "draining": self.draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "persistence": {
                "result_journal": self.results.snapshot(),
                "degraded_events": stats["degraded_events"],
                "suppressed_warnings": stats["suppressed_warnings"],
            },
            "breaker": self.breaker.state,
        }

    def stats(self) -> dict:
        """``/stats`` body: queue, latency percentiles, breaker, pool."""
        samples = list(self._latencies)
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "queue": {
                "depth": len(self._pending),
                "compute_busy": self._compute_busy,
                "limit": self.config.queue_limit,
                "in_flight_keys": len(self.single_flight),
            },
            "latency_ms": {
                "samples": len(samples),
                "p50": round(_percentile(samples, 0.50), 3),
                "p90": round(_percentile(samples, 0.90), 3),
                "p99": round(_percentile(samples, 0.99), 3),
            },
            "counters": dict(self._counts),
            "breaker": self.breaker.snapshot(),
            "pool": pool.pool_stats(),
            "results": self.results.snapshot(),
        }

    def metrics_snapshot(self) -> dict:
        """``/metrics`` body: the registry, refreshed from the globals."""
        self.metrics.absorb_caches()
        self.metrics.absorb_pool()
        self.metrics.absorb_persistence()
        self.metrics.gauge("serve.queue_depth").set(len(self._pending))
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    async def drain(self) -> bool:
        """Graceful shutdown: refuse new work, finish queued work.

        Returns True when everything queued was computed (and
        journaled) within the grace; False when leftovers had to be
        answered degraded.  Either way the service ends with the
        result journal closed and the worker pools shut down — the
        caller may exit.
        """
        self.draining = True
        self._wakeup.set()
        grace = self.config.drain_grace_ms / 1000.0
        deadline = time.monotonic() + grace
        clean = True
        while self._pending or self._compute_busy:
            if grace > 0 and time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.02)
        if not clean:
            # answer the stragglers soundly; their cells-so-far are
            # already journaled and a resume completes the run offline
            while self._pending:
                item = self._pending.popleft()
                self.single_flight.resolve(
                    item.request.key,
                    degraded_response(item.request, reason="draining"),
                )
            self.single_flight.abort_all(ServiceDraining("drain grace over"))
        if self._dispatcher is not None:
            self._wakeup.set()
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._dispatcher), 1.0
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._dispatcher.cancel()
        self.results.close()
        self._compute.shutdown(wait=clean, cancel_futures=True)
        pool.shutdown_all()
        if self.tracer is not None:
            try:
                self.tracer.flush()
            except Exception:  # noqa: BLE001 — drain must not raise
                pass
        return clean
