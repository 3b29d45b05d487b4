"""HTTP-level tests of the resident IC service's robustness paths.

Each test boots the real service + HTTP frontend on an ephemeral port
inside its own event loop and drives it over real sockets — the same
code path production requests take, minus only the subprocess and the
signals (covered by ``test_drain``).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.trace import InMemorySpanCollector, Tracer
from repro.serve import service as service_module
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.dedup import ResultJournal
from tests.serve.conftest import (
    FD_ITEMS,
    FD_ORDERS,
    FD_TOTALS,
    UPDATE_NAME,
    UPDATE_STATUS,
    body,
    http_request,
    post_independence,
    raw_exchange,
    running_service,
)


class TestBasicServing:
    def test_computed_verdict_roundtrip(self):
        async def scenario():
            async with running_service() as (_service, port):
                status, _, payload = await post_independence(port, body())
                assert status == 200
                assert payload["ok"] is True
                assert payload["verdict"] == "independent"
                assert payload["served"]["source"] == "computed"
                matrix = payload["matrix"]
                assert matrix["row_names"] == ["fd1"]
                assert matrix["column_names"] == ["u1"]
                assert matrix["verdicts"] == [["independent"]]
                assert matrix["needs_revalidation"] == []

        asyncio.run(scenario())

    def test_dependent_update_needs_revalidation(self):
        async def scenario():
            async with running_service() as (_service, port):
                status, _, payload = await post_independence(
                    port, body(updates=[UPDATE_NAME])
                )
                assert status == 200
                assert payload["verdict"] == "possibly-dependent"
                assert payload["matrix"]["needs_revalidation"] == [
                    ["fd1", "u1"]
                ]

        asyncio.run(scenario())

    def test_repeat_request_is_served_from_cache(self):
        async def scenario():
            async with running_service() as (service, port):
                _, _, first = await post_independence(port, body())
                assert first["served"]["source"] == "computed"
                _, _, second = await post_independence(port, body())
                assert second["served"]["source"] == "cache"
                assert second["verdict"] == first["verdict"]
                assert service.stats()["counters"]["cache_hits"] == 1

        asyncio.run(scenario())

    def test_parse_error_is_400(self):
        async def scenario():
            async with running_service() as (_service, port):
                status, _, payload = await post_independence(
                    port, {"fds": ["not an fd"], "updates": [UPDATE_STATUS]}
                )
                assert status == 400
                assert payload["ok"] is False

        asyncio.run(scenario())

    def test_http_protocol_errors(self):
        async def scenario():
            async with running_service() as (_service, port):
                status, _, _ = await http_request(port, "GET", "/nowhere")
                assert status == 404
                status, headers, _ = await http_request(
                    port, "GET", "/v1/independence"
                )
                assert status == 405
                assert headers["allow"] == "POST"
                # a Content-Length that is not plain digits is malformed
                # framing: 400 and close, never a dropped socket
                for length, expected in (
                    ("abc", 400), ("-1", 400), ("+5", 400), ("9" * 5000, 413)
                ):
                    status, headers, _ = await raw_exchange(
                        port,
                        b"POST /v1/independence HTTP/1.1\r\nHost: test\r\n"
                        + f"Content-Length: {length}\r\n\r\n".encode(),
                        timeout=5.0,
                    )
                    assert status == expected, length
                    assert headers["connection"] == "close"
                # connection tokens are case-insensitive: each of these
                # closes (the read to EOF would time out otherwise)
                for value in ("Close", "CLOSE", "TE, close"):
                    status, headers, _ = await raw_exchange(
                        port,
                        b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                        + f"Connection: {value}\r\n\r\n".encode(),
                        timeout=5.0,
                    )
                    assert status == 200, value
                    assert headers["connection"] == "close"
                # an integer too long to convert and nesting too deep
                # to decode are bad bodies too, not dropped sockets
                for raw_body in (b"1" * 5000, b"[" * 100_000):
                    status, _, payload = await post_independence(
                        port, raw_body
                    )
                    assert status == 400
                    assert payload["error"].startswith("invalid JSON body")

        asyncio.run(scenario())

    def test_health_ready_metrics_stats(self):
        async def scenario():
            async with running_service() as (_service, port):
                await post_independence(port, body())
                status, _, health = await http_request(port, "GET", "/healthz")
                assert status == 200 and health["ok"]
                assert health["breaker"] == CLOSED
                status, _, ready = await http_request(port, "GET", "/readyz")
                assert status == 200 and ready["ready"]
                status, _, metrics = await http_request(
                    port, "GET", "/metrics"
                )
                assert status == 200
                assert metrics["counters"]["serve.computed"] == 1
                status, _, stats = await http_request(port, "GET", "/stats")
                assert status == 200
                assert stats["counters"]["computed"] == 1
                assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]

        asyncio.run(scenario())


@pytest.fixture
def parses(monkeypatch):
    """Every body the service hands to ``parse_request``, in order."""
    seen = []
    real = service_module.parse_request

    def counting(payload, default_strategy):
        seen.append(payload)
        return real(payload, default_strategy)

    monkeypatch.setattr(service_module, "parse_request", counting)
    return seen


class TestParseFreeCacheHits:
    """A body seen before whose decided answer is cached skips the parse."""

    def test_repeated_body_is_parsed_once(self, parses):
        async def scenario():
            async with running_service() as (service, port):
                answers = [
                    (await post_independence(port, body()))[2]
                    for _ in range(3)
                ]
                assert [a["served"]["source"] for a in answers] == [
                    "computed", "cache", "cache"
                ]
                assert answers[1]["matrix"] == answers[0]["matrix"]
                assert len(parses) == 1
                counters = service.stats()["counters"]
                assert counters["cache_hits"] == 2
                assert counters["parse_skipped"] == 2
                _, _, metrics = await http_request(port, "GET", "/metrics")
                assert metrics["counters"]["serve.parse_skipped"] == 2

        asyncio.run(scenario())

    def test_reordered_keys_and_whitespace_still_skip(self, parses):
        async def scenario():
            async with running_service() as (service, port):
                await post_independence(port, body())
                respaced = (
                    '{ "updates" : [ %s ],\n\t"fds":[%s] }'
                    % (json.dumps(UPDATE_STATUS), json.dumps(FD_ORDERS))
                ).encode()
                _, _, answer = await post_independence(port, respaced)
                assert answer["served"]["source"] == "cache"
                assert len(parses) == 1
                assert service.stats()["counters"]["parse_skipped"] == 1

        asyncio.run(scenario())

    def test_bad_body_is_never_remembered(self, parses):
        async def scenario():
            async with running_service() as (service, port):
                bad = {"fds": ["not an fd"], "updates": [UPDATE_STATUS]}
                for _ in range(2):
                    status, _, _ = await post_independence(port, bad)
                    assert status == 400
                counters = service.stats()["counters"]
                assert counters["parse_errors"] == 2
                assert counters["parse_skipped"] == 0
                assert len(parses) == 2

        asyncio.run(scenario())

    def test_unknown_answer_is_parsed_and_recomputed(self, parses):
        async def scenario():
            async with running_service(max_explored=1) as (service, port):
                for _ in range(2):
                    _, _, answer = await post_independence(port, body())
                    assert answer["matrix"]["unknown"] > 0
                    assert answer["served"]["source"] == "computed"
                assert len(parses) == 2
                counters = service.stats()["counters"]
                assert counters["computed"] == 2
                assert counters["parse_skipped"] == 0

        asyncio.run(scenario())

    def test_map_is_bounded_and_evicted_bodies_take_the_full_path(
        self, parses
    ):
        async def scenario():
            async with running_service() as (service, port):
                service.results = ResultJournal(None, cache_limit=2)
                # three keys through a 2-entry cache: the first is gone
                # from both maps and is computed again, identically
                first = (await post_independence(port, body()))[2]
                for update in (UPDATE_NAME, "/orders/order/total"):
                    await post_independence(port, body(updates=[update]))
                    assert len(service._body_keys) <= 2
                again = (await post_independence(port, body()))[2]
                assert again["served"]["source"] == "computed"
                assert again["matrix"]["verdicts"] == (
                    first["matrix"]["verdicts"]
                )
                # bodies that parse to one key share its cached answer:
                # two of them push the original body's digest out while
                # the answer stays cached, so it is parsed, then served
                for variant in ({"strategy": "auto"}, {"want_witness": False}):
                    _, _, answer = await post_independence(
                        port, body(**variant)
                    )
                    assert answer["served"]["source"] == "cache"
                    assert len(service._body_keys) <= 2
                parsed_before = len(parses)
                _, _, answer = await post_independence(port, body())
                assert len(parses) == parsed_before + 1
                assert answer["served"]["source"] == "cache"
                assert answer["matrix"] == again["matrix"]
                assert len(service._body_keys) <= 2

        asyncio.run(scenario())

    def test_body_too_deep_to_digest_takes_the_full_path(self, parses):
        deep = 0
        for _ in range(100_000):
            deep = [deep]

        async def scenario():
            async with running_service() as (service, _port):
                answers = [
                    await service.handle(body(extra=deep)) for _ in range(2)
                ]
                assert [status for status, _, _ in answers] == [200, 200]
                assert [a["served"]["source"] for _, a, _ in answers] == [
                    "computed", "cache"
                ]
                assert len(parses) == 2
                assert len(service._body_keys) == 0

        asyncio.run(scenario())

    def test_each_post_records_one_request_span(self):
        collector = InMemorySpanCollector()

        async def scenario():
            async with running_service(tracer=Tracer(collector)) as (_, port):
                _, _, answer = await post_independence(port, body())
                await post_independence(port, body())
                await post_independence(port, {"fds": ["not an fd"]})
            return answer["served"]["request_key"]

        key = asyncio.run(scenario())
        spans = collector.by_name("serve.request")
        assert [span.attributes for span in spans] == [
            {"source": "computed", "parsed": True, "request_key": key},
            {"source": "cache", "parsed": False, "request_key": key},
            {"source": "bad-request", "parsed": True},
        ]
        assert all(span.duration_ns > 0 for span in spans)


class TestSingleFlightCoalescing:
    def test_identical_concurrent_requests_compute_once(self):
        async def scenario():
            async with running_service(
                debug_hooks=True, batch_window_ms=0.0
            ) as (service, port):
                slow = body(_debug={"per_cell_delay_ms": 150})
                results = await asyncio.gather(
                    *(post_independence(port, slow) for _ in range(5))
                )
                sources = sorted(
                    payload["served"]["source"] for _, _, payload in results
                )
                assert all(status == 200 for status, _, _ in results)
                assert sources.count("computed") == 1
                assert sources.count("coalesced") == 4
                counters = service.stats()["counters"]
                assert counters["computed"] == 1
                assert counters["coalesced"] == 4

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_queue_overflow_sheds_429_never_5xx(self):
        async def scenario():
            async with running_service(
                debug_hooks=True, batch_window_ms=0.0, queue_limit=1
            ) as (service, port):
                # distinct slow requests: no coalescing, queue_limit=1
                updates = [UPDATE_STATUS, UPDATE_NAME, "/orders/order/total",
                           "/orders/order/item", "/orders/order"]
                requests = [
                    body(updates=[u], _debug={"per_cell_delay_ms": 120})
                    for u in updates
                ]
                results = await asyncio.gather(
                    *(post_independence(port, r) for r in requests)
                )
                statuses = sorted(status for status, _, _ in results)
                assert set(statuses) <= {200, 429}
                assert 429 in statuses  # overload genuinely shed
                assert 200 in statuses  # but admitted work was served
                for status, headers, payload in results:
                    if status == 429:
                        assert int(headers["retry-after"]) >= 1
                        assert payload["ok"] is False
                assert service.stats()["counters"]["shed_429"] >= 1

        asyncio.run(scenario())

    def test_draining_returns_503(self):
        async def scenario():
            async with running_service() as (service, port):
                service.draining = True
                status, headers, payload = await post_independence(
                    port, body()
                )
                assert status == 503
                assert "retry-after" in headers
                status, _, _ = await http_request(port, "GET", "/readyz")
                assert status == 503
                status, _, health = await http_request(port, "GET", "/healthz")
                assert status == 200  # liveness stays green while draining
                assert health["draining"]

        asyncio.run(scenario())


class TestMicroBatching:
    def test_same_shape_requests_merge_and_slice_apart(self):
        async def scenario():
            async with running_service(
                debug_hooks=True, batch_window_ms=250.0
            ) as (service, port):
                async def delayed(payload, delay):
                    await asyncio.sleep(delay)
                    return await post_independence(port, payload)

                first = body(
                    fds=[FD_ORDERS], _debug={"per_cell_delay_ms": 30}
                )
                second = body(fds=[FD_ITEMS, FD_TOTALS])
                (s1, _, p1), (s2, _, p2) = await asyncio.gather(
                    delayed(first, 0.0), delayed(second, 0.05)
                )
                assert s1 == 200 and s2 == 200
                assert p1["served"]["batched"] == 2
                assert p2["served"]["batched"] == 2
                # each answer is sliced back to its own rows and names
                assert p1["matrix"]["row_names"] == ["fd1"]
                assert p2["matrix"]["row_names"] == ["fd1", "fd2"]
                assert len(p2["matrix"]["verdicts"]) == 2
                assert service.stats()["counters"]["batches"] == 1

        asyncio.run(scenario())


class TestWatchdog:
    def test_expiry_degrades_soundly_to_unknown(self):
        async def scenario():
            async with running_service(
                debug_hooks=True, batch_window_ms=0.0, watchdog_ms=150.0
            ) as (service, port):
                status, _, payload = await post_independence(
                    port, body(_debug={"per_cell_delay_ms": 2_000})
                )
                assert status == 200  # degraded, not an error
                assert payload["verdict"] == "unknown"
                assert payload["served"]["source"] == "degraded"
                assert payload["served"]["degraded_reason"] == "watchdog"
                assert payload["matrix"]["needs_revalidation"] == [
                    ["fd1", "u1"]
                ]
                assert service.stats()["counters"]["watchdog_timeouts"] == 1
                # the watchdog counts as a breaker fault (wedged pool)
                assert service.breaker.snapshot()["consecutive_faults"] >= 1

        asyncio.run(scenario())


class TestCircuitBreaker:
    def test_trip_serial_fallback_and_halfopen_recovery(self):
        async def scenario():
            from repro.independence import pool

            async with running_service(
                debug_hooks=True,
                batch_window_ms=0.0,
                jobs=2,
                breaker_threshold=2,
                breaker_cooldown_ms=150.0,
            ) as (service, port):
                def faulty(updates, tag):
                    return body(
                        fds=[FD_ORDERS, FD_ITEMS],
                        updates=updates,
                        _debug={
                            "fault": {
                                "kind": "raise-deterministic",
                                "flag_path": f"/tmp/unused-{tag}",
                            },
                            "force_parallel": True,
                        },
                    )

                # two consecutive pool-faulting requests trip the breaker
                status, _, _ = await post_independence(
                    port, faulty([UPDATE_STATUS], "a")
                )
                assert status == 500
                status, _, _ = await post_independence(
                    port, faulty([UPDATE_NAME], "b")
                )
                assert status == 500
                assert service.breaker.state == OPEN

                # while open, even a faulting request succeeds: the
                # breaker routes it serial and the serial path never
                # touches the pool (where the fault is injected)
                before = pool.pool_stats()["breaker_serial_chunks"]
                status, _, payload = await post_independence(
                    port, faulty(["/orders/order/total"], "c")
                )
                assert status == 200
                assert payload["matrix"]["parallelism"] == 1
                assert pool.pool_stats()["breaker_serial_chunks"] > before
                assert service.breaker.snapshot()["serial_denials"] >= 1
                assert service.stats()["counters"]["breaker_serial"] >= 1

                # after the cooldown a clean request probes and closes
                await asyncio.sleep(0.2)
                status, _, payload = await post_independence(
                    port,
                    body(
                        fds=[FD_ORDERS, FD_ITEMS],
                        updates=["/orders/order/item/sku"],
                        _debug={"force_parallel": True},
                    ),
                )
                assert status == 200
                assert payload["matrix"]["parallelism"] == 2
                assert service.breaker.state == CLOSED
                assert service.breaker.snapshot()["recoveries"] == 1

        asyncio.run(scenario())
