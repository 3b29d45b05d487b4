"""T14 — the resident IC daemon under load: throughput, warm-path
speedup, overload shedding, and kill-mid-load drain.

A real ``repro-xml serve`` subprocess is booted on an ephemeral port
and driven over HTTP by a threaded load generator.  Four phases, each
asserting the service-level contract rather than just timing it:

* **throughput** — W workers x R distinct requests; reports requests/s
  and client-side p50/p99, and asserts every response was a verdict
  (HTTP 200).

* **warm path** — the same request twice: the second must be served
  from the result cache/journal at least :data:`WARM_SPEEDUP_FLOOR` x
  faster than the cold computation (QUICK relaxes the floor for noisy
  smoke boxes, never the served-from-cache assertion).  The daemon's
  ``/stats`` ``parse_skipped`` count is recorded after this phase:
  repeated bodies must be answered without being parsed again.

* **overload** — a daemon with a tiny admission queue and slowed cells
  is hit with more concurrency than it can hold.  Acceptance: *every*
  response is a 200-with-verdict or a 429-with-Retry-After — at least
  one of each, and never a 5xx or a wrong verdict.

* **drain** — SIGTERM mid-load must exit 0 and leave the in-flight
  run directory journaled and completable by the offline CLI
  (``--resume``), with verdicts identical to an uninterrupted run.

The measured table is written machine-readably to ``BENCH_T14.json``
(path overridable via the ``BENCH_T14_JSON`` environment variable);
the CI ``serve-smoke`` job gates on the overload and drain booleans,
a p99 ceiling and a nonzero ``parse_skipped``.
"""

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.conftest import emit_table

QUICK = os.environ.get("BENCH_QUICK") == "1"

#: throughput phase: concurrent client threads x requests per thread
WORKERS = 4 if QUICK else 8
REQUESTS_PER_WORKER = 8 if QUICK else 25

#: the warm (cache) path must beat the cold computation by this factor
WARM_SPEEDUP_FLOOR = 5.0 if QUICK else 10.0

#: overload phase: clients hammering a queue_limit=4 daemon
OVERLOAD_CLIENTS = 12 if QUICK else 24

FD_TEMPLATE = "(/orders, ((order/@id) -> order/{field}))"
FIELDS = (
    "customer/name", "item/sku", "total", "status/code", "item/qty",
    "customer/tier", "shipping/mode", "item/price",
)
UPDATE_STATUS = "/orders/order/status"

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


def _spawn(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--debug-hooks",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    ready = process.stdout.readline()
    assert "ready on http://" in ready, ready
    return process, int(ready.rsplit(":", 1)[1])


def _terminate(process) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=30)
    finally:
        for stream in (process.stdout, process.stderr):
            stream.close()


def _post(port, body, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        started = time.perf_counter()
        conn.request("POST", "/v1/independence", json.dumps(body))
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, (time.perf_counter() - started)
    finally:
        conn.close()


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _body(index: int, **extra) -> dict:
    field = FIELDS[index % len(FIELDS)]
    body = {
        "fds": [FD_TEMPLATE.format(field=field)],
        "updates": [UPDATE_STATUS],
    }
    body.update(extra)
    return body


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))]


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def _measure_throughput(port):
    latencies, statuses = [], []
    lock = threading.Lock()

    def worker(worker_id):
        for i in range(REQUESTS_PER_WORKER):
            status, _, elapsed = _post(port, _body(worker_id * 31 + i))
            with lock:
                statuses.append(status)
                latencies.append(elapsed * 1000.0)

    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(WORKERS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert all(status == 200 for status in statuses), statuses
    total = WORKERS * REQUESTS_PER_WORKER
    return {
        "requests": total,
        "workers": WORKERS,
        "wall_seconds": wall,
        "requests_per_second": total / wall,
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "mean_ms": statistics.fmean(latencies),
    }


def _measure_warm_path(port):
    body = {
        "fds": ["(/orders, ((order/@id) -> order/warmpath/probe))"],
        "updates": [UPDATE_STATUS],
    }
    status, payload, cold = _post(port, body)
    assert status == 200 and payload["served"]["source"] == "computed"
    warm_samples = []
    for _ in range(5):
        status, payload, elapsed = _post(port, body)
        assert status == 200
        assert payload["served"]["source"] == "cache"
        warm_samples.append(elapsed)
    warm = min(warm_samples)
    speedup = cold / warm
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm duplicate only {speedup:.1f}x faster than cold "
        f"(required: {WARM_SPEEDUP_FLOOR}x)"
    )
    return {
        "cold_ms": cold * 1000.0,
        "warm_ms": warm * 1000.0,
        "speedup": speedup,
        "floor": WARM_SPEEDUP_FLOOR,
        "parse_skipped": _get(port, "/stats")["counters"]["parse_skipped"],
    }


def _measure_overload(tmp_path):
    process, port = _spawn(
        tmp_path / "overload",
        "--queue-limit", "4", "--batch-window-ms", "0",
        "--watchdog-ms", "0",
    )
    try:
        results = []
        lock = threading.Lock()

        def client(index):
            body = _body(index, _debug={"per_cell_delay_ms": 150})
            # distinct keys: no single-flight rescue for the flood
            body["updates"] = [f"/orders/order/f{index}"]
            try:
                status, payload, _ = _post(port, body)
            except (OSError, http.client.HTTPException) as error:
                status, payload = -1, {"error": str(error)}
            with lock:
                results.append((status, payload))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(OVERLOAD_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        exit_code = _terminate(process)
    statuses = sorted(status for status, _ in results)
    served = [payload for status, payload in results if status == 200]
    # the acceptance bar: only verdicts or polite shedding, ever
    assert set(statuses) <= {200, 429}, statuses
    assert 429 in statuses, "overload never shed — queue bound not enforced"
    assert 200 in statuses, "overload served nothing"
    assert all("verdict" in payload for payload in served)
    return {
        "clients": OVERLOAD_CLIENTS,
        "queue_limit": 4,
        "served_200": statuses.count(200),
        "shed_429": statuses.count(429),
        "other": len([s for s in statuses if s not in (200, 429)]),
        "daemon_exit": exit_code,
        "only_200_or_429": set(statuses) <= {200, 429},
    }


def _measure_drain(tmp_path):
    root = tmp_path / "drain"
    process, port = _spawn(
        root,
        "--batch-window-ms", "0", "--drain-grace-ms", "300",
        "--watchdog-ms", "0",
    )
    fds = [FD_TEMPLATE.format(field=field) for field in FIELDS[:2]]
    updates = [UPDATE_STATUS, "/orders/order/customer/name"]

    def client():
        try:
            _post(
                port,
                {
                    "fds": fds,
                    "updates": updates,
                    "_debug": {"per_cell_delay_ms": 400},
                },
            )
        except (OSError, http.client.HTTPException):
            pass  # the drain may cut the socket; the journal is the point

    thread = threading.Thread(target=client, daemon=True)
    thread.start()

    runs_root = root / "ckpt" / "runs"
    run_dir = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and run_dir is None:
        for candidate in runs_root.iterdir() if runs_root.exists() else []:
            if (candidate / "journal.wal").exists():
                run_dir = candidate
        time.sleep(0.05)
    assert run_dir is not None, "no run dir appeared under load"
    time.sleep(0.5)  # let at least one cell land in the journal

    exit_code = _terminate(process)
    thread.join(timeout=10)
    assert exit_code == 0, f"SIGTERM drain exited {exit_code}"

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    cli = [
        sys.executable, "-m", "repro.cli", "independence", "--matrix",
    ]
    for fd in fds:
        cli += ["--fd", fd]
    for update in updates:
        cli += ["--update-xpath", update]
    resumed = subprocess.run(
        cli + ["--checkpoint-dir", str(run_dir), "--resume"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    reference = subprocess.run(
        cli, capture_output=True, text=True, env=env, timeout=120
    )

    def verdict_lines(stdout):
        return [line for line in stdout.splitlines() if "ms]" not in line]

    resumable = (
        resumed.returncode == reference.returncode
        and verdict_lines(resumed.stdout) == verdict_lines(reference.stdout)
        and (run_dir / "complete.json").exists()
    )
    assert resumable, (resumed.stdout, resumed.stderr, reference.stdout)
    return {
        "daemon_exit": exit_code,
        "resume_exit": resumed.returncode,
        "resumable": resumable,
    }


def bench_t14_report(benchmark, tmp_path):
    process, port = _spawn(tmp_path / "main")
    try:
        throughput = _measure_throughput(port)
        warm = _measure_warm_path(port)
    finally:
        main_exit = _terminate(process)
    assert main_exit == 0

    overload = _measure_overload(tmp_path)
    drain = _measure_drain(tmp_path)

    emit_table(
        "T14: resident IC daemon under load",
        ["phase", "result"],
        [
            [
                "throughput",
                f"{throughput['requests_per_second']:.0f} req/s "
                f"(p50 {throughput['p50_ms']:.1f} ms, "
                f"p99 {throughput['p99_ms']:.1f} ms)",
            ],
            [
                "warm path",
                f"{warm['speedup']:.1f}x (cold {warm['cold_ms']:.1f} ms "
                f"-> warm {warm['warm_ms']:.2f} ms)",
            ],
            [
                "overload",
                f"{overload['served_200']}x200 + {overload['shed_429']}x429, "
                f"0 other",
            ],
            [
                "drain",
                f"SIGTERM exit {drain['daemon_exit']}, CLI --resume "
                f"{'completed' if drain['resumable'] else 'FAILED'}",
            ],
        ],
    )

    payload = {
        "experiment": "T14",
        "quick": QUICK,
        "throughput": throughput,
        "warm_path": warm,
        "overload": overload,
        "drain": drain,
    }
    target = Path(
        os.environ.get(
            "BENCH_T14_JSON",
            Path(__file__).resolve().parent.parent / "BENCH_T14.json",
        )
    )
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"# wrote {target}")

    # the timed micro-kernel: one warm-path request round-trip
    process, port = _spawn(tmp_path / "timed")
    try:
        body = _body(0)
        _post(port, body)  # prime the cache

        benchmark.pedantic(
            lambda: _post(port, body), rounds=5, iterations=1
        )
    finally:
        _terminate(process)
