"""T11 — streaming vs DOM validation of linear FDs.

The streaming validator decides satisfaction of [8]-fragment FDs in one
pass over an event stream with memory bounded by document depth plus the
open contexts — the regime for documents larger than memory.  The bench
compares, across document sizes:

* DOM pipeline: parse text into a tree, translate the FD, enumerate
  mappings (the reference semantics);
* streaming pipeline: validate the same text directly from events,
  never materializing the tree.

Expected shape: both linear in *time* (streaming roughly at parity — the
Python-level event loop costs what tree construction costs), but peak
memory tells the real story: the DOM pipeline's footprint grows with the
document while the streaming validator's stays flat, bounded by depth
and open-context state.
"""

import time
import tracemalloc

import pytest

from repro.fd.linear import LinearFD, translate_linear_fd
from repro.fd.satisfaction import check_fd
from repro.fd.streaming import StreamingFDValidator
from repro.workload.exams import generate_session
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document

from benchmarks.conftest import emit_table

EXPR1 = LinearFD.build(
    context="/session",
    conditions=["candidate/exam/discipline", "candidate/exam/mark"],
    target="candidate/exam/rank",
    name="expr1",
)

SIZES = (30, 100, 300, 1000)


@pytest.fixture(scope="module")
def sources():
    return {
        size: serialize_document(generate_session(size, seed=17))
        for size in SIZES
    }


@pytest.mark.parametrize("size", (30, 100, 300))
def bench_dom_pipeline(benchmark, sources, size):
    fd = translate_linear_fd(EXPR1)

    def run():
        document = parse_document(sources[size])
        return check_fd(fd, document)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.satisfied


@pytest.mark.parametrize("size", (30, 100, 300))
def bench_streaming_pipeline(benchmark, sources, size):
    validator = StreamingFDValidator(EXPR1)
    report = benchmark.pedantic(
        lambda: validator.validate_text(sources[size]),
        rounds=3,
        iterations=1,
    )
    assert report.satisfied


def _timed(run):
    """``run()``'s result and wall time, without allocation tracing."""
    started = time.perf_counter()
    result = run()
    return result, time.perf_counter() - started


def _peak(run) -> int:
    """The peak of memory traced while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_t11_report(benchmark, sources):
    fd = translate_linear_fd(EXPR1)
    validator = StreamingFDValidator(EXPR1)
    rows = []
    for size in SIZES:
        source = sources[size]

        def dom():
            return check_fd(fd, parse_document(source))

        def stream():
            return validator.validate_text(source)

        # tracing slows both pipelines several times over, so the clocks
        # run in passes of their own and the peaks in traced ones
        dom_report, dom_time = _timed(dom)
        stream_report, stream_time = _timed(stream)
        dom_peak = _peak(dom)
        stream_peak = _peak(stream)

        assert dom_report.satisfied == stream_report.satisfied
        assert dom_report.mapping_count == stream_report.assignment_count
        rows.append(
            [
                size,
                len(source) // 1024,
                f"{dom_time * 1000:.1f}",
                f"{stream_time * 1000:.1f}",
                f"{dom_peak // 1024}",
                f"{stream_peak // 1024}",
                f"{dom_peak / stream_peak:.1f}x",
            ]
        )
    emit_table(
        "T11: DOM vs streaming validation of expr1 (fd1)",
        [
            "candidates",
            "text KiB",
            "DOM ms",
            "stream ms",
            "DOM peak KiB",
            "stream peak KiB",
            "memory win",
        ],
        rows,
    )
    benchmark.pedantic(
        lambda: validator.validate_text(sources[SIZES[0]]),
        rounds=3,
        iterations=1,
    )
