"""Workload ``serve``: the resident IC daemon under a closed loop.

Set-up boots ``repro-xml serve --jobs 1 --checkpoint-dir <work dir>``
(timed up to its ready line, several times, keeping the last daemon)
and generates the request sequence.  Requests are ``POST
/v1/independence`` bodies built from the orders templates: linear FDs
``(/orders, ((<conditions>) -> order/<field>))`` against XPath update
classes, mostly 1×1, every fifth new body 2×2, every fourth new 1×1
body carrying a small orders schema.  Every 100th request of the
sequence is a body never sent before, and the next request sends it
again.  The other requests repeat a body already sent, drawn
uniformly.  Which bodies the
seed draws changes; the mix does not.  The distinct bodies stay far
below the daemon's 4096-entry result cache.

One client thread, pinned with the daemon to one CPU, sends the sequence
in a closed loop over a keep-alive connection (the next request goes out
when the previous one is answered) until the time is up.  Each 100th
request and the one after it go out together, the second over a second
connection: it arrives while the first is being computed, so
single-flight coalesces it.  Only those pairs overlap, so cache hits
never queue behind a computation or another hit (with two connections
running freely, the spread over five seeds was 23% for throughput and
41% for the p95 on a two-vCPU VM).  Latency is client-side, from send to
the last byte of the response; throughput is the median over stretches
of 100 requests.  Responses are decoded and checked after the loop, so
client-side JSON work stays out of the loop.

Traced, the run makes the same HTTP run for the daemon's ``/stats``,
then replays the served sequence in-process: ``parse_request`` for every
request (cache hits pay it too), ``check_independence_matrix`` for each
first-time body, and a ``JournalWriter.append`` of its response in the
work dir, as the daemon journals results.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.independence import check_independence_matrix
from repro.obs.trace import NOOP_TRACER
from repro.persistence.journal import JournalWriter
from repro.serve.api import parse_request

import harness

NAME = "serve"
WHY = (
    "Closed loop of 2 HTTP connections against repro-xml serve, 1% "
    "first-time requests each sent twice; op: a request; the only "
    "workload that loads serve (HTTP, single-flight, batching, journal)."
)

#: paths below ``/orders/order`` an FD's conditions and target use
ORDER_PATHS = (
    "@id", "customer/name", "item/sku", "total", "status/code",
    "item/qty", "customer/tier", "shipping/mode", "item/price",
)
UPDATES = (
    "/orders/order/status", "//total", "/orders/order/*", "//item/qty",
    "/orders/*/customer", "//shipping/mode", "/orders/order/item/price",
    "//customer/tier",
)
ORDERS_SCHEMA = """\
!document orders
orders   := order*
order    := @id customer item* total status
customer := #text
item     := #text
total    := #text
status   := #text
"""

#: every FIRST_EVERY-th request is a body never sent before, and the
#: request after it sends the same body again, at the same time
FIRST_EVERY = 100
#: of the first-time bodies, every SQUARE_EVERY-th is 2×2, every
#: SCHEMA_EVERY-th carries the orders schema
SQUARE_EVERY = 5
SCHEMA_EVERY = 4
#: the daemon's result cache holds 4096 responses
MAX_DISTINCT = 4000

#: requests generated (the loop ends early if it runs out), for the
#: benchmark and for the smallest run tests make
REQUESTS = 40000
SMALLEST = 300
#: client samples the deeper tails need
MIN_REQUESTS = 1000


def _fd(rng: random.Random, conditions: int) -> str:
    paths = rng.sample(ORDER_PATHS, conditions + 1)
    condition = ", ".join(f"order/{path}" for path in paths[:-1])
    return f"(/orders, (({condition}) -> order/{paths[-1]}))"


def new_body(rng: random.Random, ordinal: int) -> dict:
    """The ``ordinal``-th first-time body (shape fixed by position).

    A 2×2 body has one-condition FDs and no schema, which keeps its
    cost within a few 1×1 bodies'.
    """
    square = ordinal % SQUARE_EVERY == SQUARE_EVERY - 1
    if square:
        fds: list[str] = []
        while len(fds) < 2:
            text = _fd(rng, 1)
            if text not in fds:
                fds.append(text)
        return {"fds": fds, "updates": rng.sample(UPDATES, 2)}
    body = {"fds": [_fd(rng, rng.randint(1, 2))], "updates": [rng.choice(UPDATES)]}
    if ordinal % SCHEMA_EVERY == SCHEMA_EVERY - 1:
        body["schema"] = ORDERS_SCHEMA
    return body


def generate(seed: int, requests: int) -> list[str]:
    """The request sequence, as JSON bodies in sending order."""
    rng = random.Random(seed)
    distinct: list[str] = []
    seen: set[str] = set()
    sequence: list[str] = []
    for index in range(requests):
        if index % FIRST_EVERY == 1:
            body = sequence[-1]
        elif index % FIRST_EVERY == 0 and len(distinct) < MAX_DISTINCT:
            for _ in range(1000):
                body = json.dumps(
                    new_body(rng, len(distinct)), sort_keys=True
                )
                if body not in seen:
                    break
            else:
                raise RuntimeError("request universe exhausted")
            seen.add(body)
            distinct.append(body)
        else:
            body = rng.choice(distinct)
        sequence.append(body)
    return sequence


class Daemon:
    """One ``repro-xml serve`` subprocess on an ephemeral port."""

    def __init__(self, paths: harness.RunPaths, checkpoint_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(paths.src)
        self._log = open(checkpoint_dir.with_suffix(".log"), "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--jobs", "1",
                "--checkpoint-dir", str(checkpoint_dir),
            ],
            cwd=paths.checkout,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        ready = self.process.stdout.readline()
        self.boot_seconds = time.perf_counter() - started
        if "ready on http://" not in ready:
            self.stop()
            raise RuntimeError(f"daemon did not start: {ready!r}")
        self.port = int(ready.rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


@dataclasses.dataclass
class Exchange:
    body: str
    status: int
    millis: float
    payload: bytes  # the response body, decoded after the loop

    def verdicts(self) -> str | None:
        """The verdict matrix of a sound answer (200, not degraded,
        nothing UNKNOWN) as JSON; ``None`` for any other answer."""
        if self.status != 200:
            return None
        response = json.loads(self.payload)
        matrix = response.get("matrix")
        if (
            matrix is None
            or matrix["unknown"]
            or response["served"]["source"] == "degraded"
        ):
            return None
        return json.dumps(matrix["verdicts"])


def closed_loop(port: int, sequence: list[str], seconds: float, minimum: int):
    """Send ``sequence`` until ``seconds`` passed and at least ``minimum``
    requests completed (or the sequence ran out).

    Returns the exchanges in sending order, the seconds each whole
    stretch of FIRST_EVERY requests took, and the wall time.
    """
    connections = [
        http.client.HTTPConnection("127.0.0.1", port) for _ in range(2)
    ]
    exchanges: list[Exchange] = []
    stretches: list[float] = []
    index = 0
    started = stretch_started = time.perf_counter()
    deadline = started + seconds
    try:
        while index < len(sequence) and (
            time.perf_counter() < deadline or len(exchanges) < minimum
        ):
            if index % FIRST_EVERY == 0:
                together = sequence[index:index + 2]
                if index:
                    now = time.perf_counter()
                    stretches.append(now - stretch_started)
                    stretch_started = now
            else:
                together = sequence[index:index + 1]
            sent = time.perf_counter()
            for connection, body in zip(connections, together):
                connection.request(
                    "POST", "/v1/independence", body,
                    {"Content-Type": "application/json"},
                )
            for connection, body in zip(connections, together):
                response = connection.getresponse()
                payload = response.read()
                millis = (time.perf_counter() - sent) * 1000.0
                exchanges.append(
                    Exchange(body, response.status, millis, payload)
                )
            index += len(together)
    finally:
        for connection in connections:
            connection.close()
    return exchanges, stretches, time.perf_counter() - started


def replay(bodies: list[str], journal: Path, span) -> dict:
    """The daemon's work on the served bodies, in-process.

    Every body is parsed; the first sending of a body is computed and
    its response journaled.  Returns the verdicts per body and counts.
    """
    verdicts: dict[str, str] = {}
    counts = {"requests": 0, "computed": 0, "eager_cells": 0}
    with JournalWriter(journal) as writer:
        for body in bodies:
            counts["requests"] += 1
            with span("serve.request_parse"):
                request = parse_request(json.loads(body), "auto")
            if body in verdicts:
                continue
            with span("serve.compute"):
                matrix = check_independence_matrix(
                    request.fds,
                    request.update_classes,
                    schema=request.schema,
                    want_witness=request.want_witness,
                    strategy=request.strategy,
                )
            response = matrix.to_json_dict()
            with span("persistence.journal_append"):
                writer.append(
                    {"type": "result", "key": request.key, "response": response}
                )
            verdicts[body] = json.dumps(response["verdicts"])
            counts["computed"] += 1
            counts["eager_cells"] += sum(
                cell.exploration is None and cell.decided
                for row in matrix.cells
                for cell in row
            )
    return {"verdicts": verdicts, "counts": counts}


def check(outcome: harness.Outcome, exchanges: list[Exchange], verdicts):
    """The oracle: every response is sound and equals the in-process
    matrix on the same body."""
    for index, exchange in enumerate(exchanges):
        answer = exchange.verdicts()
        outcome.count(
            answer is not None and answer == verdicts[exchange.body],
            f"request {index}: HTTP {exchange.status}, verdicts {answer}",
        )


def describe(exchanges: list[Exchange], sequence_length: int) -> dict:
    """Workload shape: distinct requests, first-time and schema shares."""
    first: set[str] = set()
    firsts = 0
    schema_bearing = 0
    for exchange in exchanges:
        if exchange.body not in first:
            first.add(exchange.body)
            firsts += 1
        schema_bearing += '"schema"' in exchange.body
    total = max(1, len(exchanges))
    return {
        "requests": len(exchanges),
        "distinct_requests": len(first),
        "first_time_share": firsts / total,
        "schema_bearing_share": schema_bearing / total,
        "sequence_exhausted": len(exchanges) >= sequence_length,
    }


def boot(paths: harness.RunPaths, seed: int, requests: int):
    """Set-up, repeated: generate the sequence, boot a daemon."""
    setup = []
    daemon = None
    try:
        for attempt in range(harness.SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            sequence, generated = harness.collect_and_time(
                generate, seed, requests
            )
            checkpoint = paths.work / f"ckpt-{attempt}"
            checkpoint.mkdir()
            daemon = Daemon(paths, checkpoint)
            setup.append(generated + daemon.boot_seconds)
    except BaseException:
        if daemon is not None:
            daemon.stop()
        raise
    return daemon, sequence, harness.median(setup)


def run(
    seed: int,
    seconds: float,
    paths: harness.RunPaths,
    trace: bool,
    size: int = REQUESTS,
) -> harness.Outcome:
    outcome = harness.Outcome()
    # Each request is a round trip between two processes.  On two CPUs
    # every hop wakes the other, halted, virtual CPU, which on a busy
    # host waits for the hypervisor; on one CPU the wake-ups stay local.
    # The daemon inherits the affinity.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    try:
        daemon, sequence, setup_s = boot(paths, seed, size)
        try:
            exchanges, stretches, wall = closed_loop(
                daemon.port, sequence, seconds, MIN_REQUESTS
            )
            stats = daemon.get("/stats")
            daemon_rss = harness.process_peak_rss_mb(daemon.process.pid)
        finally:
            daemon.stop()
    finally:
        os.sched_setaffinity(0, cpus)
    outcome.info["client_and_daemon_cpu"] = cpu
    outcome.info["shape"] = describe(exchanges, len(sequence))
    bodies = [exchange.body for exchange in exchanges]
    journal = paths.work / "replay.wal"
    if trace:
        return _traced(outcome, exchanges, stats, wall, bodies, journal, paths)

    oracle = replay(bodies, journal, NOOP_TRACER.span)
    check(outcome, exchanges, oracle["verdicts"])
    outcome.info["samples"] = {"stretches": len(stretches)}
    harness.report_end_to_end(
        outcome,
        setup_s,
        daemon_rss,
        FIRST_EVERY / harness.median(stretches),
        [exchange.millis for exchange in exchanges],
    )
    return outcome


def _traced(outcome, exchanges, stats, wall, bodies, journal, paths):
    oracle, untraced = harness.collect_and_time(
        replay, bodies, journal, NOOP_TRACER.span
    )
    check(outcome, exchanges, oracle["verdicts"])
    recorder = harness.SpanRecorder()
    journal.unlink()
    traced_replay, traced = harness.collect_and_time(
        replay, bodies, journal, recorder.span
    )
    records = recorder.write_jsonl(paths.trace_file)
    counts = traced_replay["counts"]
    counters = stats["counters"]
    window = stats["latency_ms"]
    client_recent = [exchange.millis for exchange in exchanges][
        -window["samples"]:
    ]
    layer_counts = {
        "serve.hit_share": counters["cache_hits"] / counters["requests"],
        "serve.computed": counters["computed"],
        "serve.coalesced": counters["coalesced"],
        "serve.batched_requests": counters["batched_requests"],
        "serve.server_p50_share": window["p50"]
        / harness.median(client_recent),
        "serve.server_p90_share": window["p90"]
        / harness.tail_percentile(client_recent, 90),
        "independence.eager_cells": counts["eager_cells"],
    }
    harness.report_layers(
        outcome,
        recorder,
        harness.self_ms(records),
        layer_counts,
        (traced, untraced, wall),
    )
    return outcome
