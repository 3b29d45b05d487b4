"""Summarize a ``--trace-out`` JSONL span trace.

Reads the trace a ``repro-xml independence --trace-out FILE.jsonl`` run
(or any :class:`repro.obs.trace.JsonlSpanExporter` consumer) produced
and prints:

* a per-phase breakdown — total *self* time per span name (time inside
  a span minus time inside its child spans, so phases never double
  count) with call counts and percentage of the traced total;
* the top-k slowest cell spans — ``matrix.cell``, and the per-pair
  ``ic.check`` / ``view.check`` spans, which carry the same outcome
  attributes — with their verdict, strategy and explored-vs-worst-case
  rules, the cell a derived cell was derived from, unknown reason or
  eager automaton size (``--cells K``, default 5).

Usage::

    PYTHONPATH=src python scripts/trace_report.py TRACE.jsonl [--cells K]
    PYTHONPATH=src python scripts/trace_report.py TRACE.jsonl --json

``--json`` emits the same data machine-readably (CI's bench-smoke job
consumes it).  Exit codes: 0 on success, 2 on a malformed trace file.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.trace import read_trace


def self_times(records: list[dict]) -> dict[str, dict]:
    """Per-span-name totals: calls, total ns, *self* ns (minus children)."""
    children_ns: dict[int, int] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            children_ns[parent] = children_ns.get(parent, 0) + (
                record["duration_ns"] or 0
            )
    phases: dict[str, dict] = {}
    for record in records:
        duration = record["duration_ns"] or 0
        self_ns = max(0, duration - children_ns.get(record["span_id"], 0))
        entry = phases.setdefault(
            record["name"], {"calls": 0, "total_ns": 0, "self_ns": 0}
        )
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += self_ns
    return phases


#: the spans that decide one cell, each carrying the cell's outcome
CELL_SPANS = frozenset({"matrix.cell", "ic.check", "view.check"})


def slowest_cells(records: list[dict], top_k: int) -> list[dict]:
    """The cell spans, slowest first, attribute-annotated."""
    cells = [record for record in records if record["name"] in CELL_SPANS]
    cells.sort(key=lambda record: record["duration_ns"] or 0, reverse=True)
    return cells[:top_k]


def build_report(records: list[dict], top_k: int = 5) -> dict:
    """The full machine-readable report for one trace."""
    phases = self_times(records)
    traced_ns = sum(entry["self_ns"] for entry in phases.values())
    phase_rows = [
        {
            "name": name,
            "calls": entry["calls"],
            "total_ms": entry["total_ns"] / 1e6,
            "self_ms": entry["self_ns"] / 1e6,
            "self_percent": (
                100.0 * entry["self_ns"] / traced_ns if traced_ns else 0.0
            ),
        }
        for name, entry in phases.items()
    ]
    phase_rows.sort(key=lambda row: row["self_ms"], reverse=True)
    cell_rows = []
    for record in slowest_cells(records, top_k):
        attributes = record.get("attributes", {})
        cell_rows.append(
            {
                "name": record["name"],
                "row": attributes.get("row"),
                "column": attributes.get("column"),
                "fd": attributes.get("fd"),
                "update_class": attributes.get("update_class"),
                "verdict": attributes.get("verdict"),
                "strategy": attributes.get("strategy"),
                "duration_ms": (record["duration_ns"] or 0) / 1e6,
                "explored_rules": attributes.get("explored_rules"),
                "worst_case_rules": attributes.get("worst_case_rules"),
                "unknown_reason": attributes.get("unknown_reason"),
                "automaton_size": attributes.get("automaton_size"),
                "derived_from": attributes.get("derived_from"),
            }
        )
    return {
        "spans": len(records),
        "traced_ms": traced_ns / 1e6,
        "phases": phase_rows,
        "slowest_cells": cell_rows,
    }


def render(report: dict) -> str:
    """Human-readable rendering of :func:`build_report`'s output."""
    lines = [
        f"{report['spans']} span(s), "
        f"{report['traced_ms']:.2f} ms traced (self time)",
        "",
        f"{'phase':<28} {'calls':>6} {'self ms':>10} "
        f"{'total ms':>10} {'self %':>7}",
    ]
    for row in report["phases"]:
        lines.append(
            f"{row['name']:<28} {row['calls']:>6} {row['self_ms']:>10.2f} "
            f"{row['total_ms']:>10.2f} {row['self_percent']:>6.1f}%"
        )
    if report["slowest_cells"]:
        lines.append("")
        lines.append("slowest cells:")
        for cell in report["slowest_cells"]:
            if cell["name"] == "matrix.cell":
                label = f"cell({cell['row']},{cell['column']})"
            else:
                subject = cell["fd"] or "view"
                label = f"{cell['name']}({subject}, {cell['update_class']})"
            if cell["derived_from"] is not None:
                detail = f" derived from cell({cell['row']},{cell['derived_from']})"
            elif cell["explored_rules"] is not None:
                detail = (
                    f" explored {cell['explored_rules']}"
                    f"/{cell['worst_case_rules']} rules"
                )
            elif cell["unknown_reason"] is not None:
                detail = f" budget exhausted ({cell['unknown_reason']})"
            elif cell["automaton_size"] is not None:
                detail = f" |A|={cell['automaton_size']}"
            else:
                detail = ""
            lines.append(
                f"  {label} {cell['verdict']} [{cell['strategy']}]: "
                f"{cell['duration_ms']:.2f} ms{detail}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="summarize a --trace-out JSONL span trace"
    )
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument(
        "--cells",
        type=int,
        default=5,
        metavar="K",
        help="how many slowest cells to show (default: 5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    try:
        records = read_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = build_report(records, top_k=args.cells)
    try:
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render(report))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
