"""The repository's benchmark: one workload per front end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ic-matrix --seed 1 --seconds 20 --trace 0

Workloads (each drives one front end through its public API, with
inputs generated from ``--seed``):

* ``ic-matrix`` — ``check_independence_matrix`` and
  ``check_independence`` over seeded library FDs × XPath update classes
  (``wl_ic_matrix.py``);
* ``corpus`` — ``CorpusStore`` load, cold and warm FD checks, guarded
  apply, and ``audit_corpus`` over a seeded library corpus
  (``wl_corpus.py``);
* ``serve`` — a ``repro-xml serve`` daemon under a closed loop over one
  HTTP connection, with a second for requests single-flight should
  coalesce (``wl_serve.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
same work as calls into each layer, records one span per call, and
prints the per-layer metrics (self time comes from
``scripts/trace_report.py``, which also reads the span file the run
leaves under ``.perfbench/``).  Every workload prints every metric of
its mode, as ``harness.END_TO_END`` and ``harness.PER_LAYER`` list
them; a layer metric of a layer the workload does not load reads 0.
Lines before the last describe the workload's shape, sample counts and
environment; the last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation passed the oracle.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
#: scratch and span files of every run (ignored by git)
OUTPUT_DIR = CHECKOUT / ".perfbench"
WORKLOADS = ("ic-matrix", "corpus", "serve")


def _import_program() -> bool:
    """Put the checkout's ``src/`` and ``scripts/`` on the path."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    if not (CHECKOUT / "scripts" / "trace_report.py").is_file():
        return False
    sys.path.insert(0, str(CHECKOUT / "scripts"))
    sys.path.insert(0, str(src))
    import repro

    return Path(repro.__file__).resolve().parent == src / "repro"


def workload_module(name: str):
    """The module implementing one workload (imports the program)."""
    if name == "ic-matrix":
        import wl_ic_matrix as module
    elif name == "corpus":
        import wl_corpus as module
    elif name == "serve":
        import wl_serve as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an error, so every started daemon is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not _import_program():
        print(
            f"error: no program sources under {CHECKOUT / 'src'}",
            file=sys.stderr,
        )
        return 2

    import harness

    module = workload_module(args.workload)
    tag = f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    paths = harness.RunPaths(
        checkout=CHECKOUT,
        work=OUTPUT_DIR / f"work-{tag}",
        trace_file=OUTPUT_DIR / f"trace-{tag}.jsonl",
    )
    shutil.rmtree(paths.work, ignore_errors=True)
    paths.work.mkdir(parents=True)
    cpu_before = harness.cpu_times()
    try:
        outcome = module.run(
            args.seed, args.seconds, paths, bool(args.trace)
        )
    finally:
        shutil.rmtree(paths.work, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        **outcome.info,
        "environment": harness.environment(OUTPUT_DIR, cpu_before),
    }
    if args.trace:
        info["trace_file"] = str(paths.trace_file.relative_to(CHECKOUT))
    expected = harness.PER_LAYER if args.trace else harness.END_TO_END
    reported = {
        name: metric["unit"] for name, metric in outcome.metrics.items()
    }
    if reported != {name: spec[0] for name, spec in expected.items()}:
        raise RuntimeError(f"metrics differ from the tables: {reported}")
    for line in outcome.mismatches:
        print(f"oracle mismatch: {line}")
    print(json.dumps(info, sort_keys=True))
    result = outcome.result_line()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
