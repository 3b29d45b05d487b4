"""Request/response vocabulary of the IC daemon's HTTP/JSON API.

One endpoint does the work — ``POST /v1/independence`` with::

    {"fds": ["//order: @id, total -> status", ...],
     "updates": ["//order/status", ...],
     "schema": "<optional DTD text>",
     "strategy": "auto" | "lazy" | "eager",   # optional
     "want_witness": false}                     # optional

FD and update-class texts use the exact grammars of the ``repro-xml
independence`` CLI, and — deliberately — the exact *names* the CLI
assigns (``fd1``, ``u1``, …): a run directory the daemon journals
while draining is then bit-for-bit resumable by the offline CLI with
the same inputs, which is the acceptance bar for graceful shutdown.

Two content fingerprints are derived per request:

* :attr:`IndependenceRequest.key` — the full
  :class:`~repro.persistence.manifest.RunManifest` digest over rows ×
  columns × schema × strategy × witness (budget pinned to ``None``:
  admission control varies budgets with queue pressure, and a cache
  key that moved with the load would defeat single-flight dedup).
  This keys single-flight coalescing and the durable result cache.

* :attr:`IndependenceRequest.batch_key` — the same digest *minus the
  rows*.  Requests sharing a batch key ask about the same update
  columns under the same semantics, so the micro-batcher may stack
  their FD rows into one matrix call and slice the answer back apart
  (:func:`slice_matrix_json`).

Responses carry the full matrix JSON
(:meth:`~repro.independence.matrix.IndependenceMatrix.to_json_dict`)
plus a ``served`` block saying how the answer was produced (computed /
coalesced / cache) — load generators assert the dedup paths through
it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.errors import ReproError
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.independence.strategy import STRATEGIES, resolve_strategy
from repro.persistence.manifest import RunManifest, fingerprint_schema
from repro.schema.dtd import Schema
from repro.xpath.translate import update_class_from_xpath

#: request-body size cap; IC inputs are small, anything huge is abuse
MAX_BODY_BYTES = 1 << 20


class BadRequest(ReproError):
    """Client-side request problem → HTTP 400 with a JSON error body."""


@dataclasses.dataclass
class IndependenceRequest:
    """A parsed, fingerprinted ``POST /v1/independence`` body."""

    fds: list
    update_classes: list
    schema: Schema | None
    strategy: str
    want_witness: bool
    key: str
    batch_key: str
    #: test/bench fault hooks, honored only under ``--debug-hooks``
    debug: dict

    @property
    def rows(self) -> int:
        return len(self.fds)


def _require_string_list(body: dict, field: str) -> list[str]:
    values = body.get(field)
    if (
        not isinstance(values, list)
        or not values
        or not all(isinstance(value, str) and value.strip() for value in values)
    ):
        raise BadRequest(
            f"request field {field!r} must be a non-empty list of strings"
        )
    return values


def parse_request(body, default_strategy: str) -> IndependenceRequest:
    """Parse and fingerprint one request body (raises :class:`BadRequest`)."""
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    fd_texts = _require_string_list(body, "fds")
    update_texts = _require_string_list(body, "updates")
    strategy = body.get("strategy", default_strategy)
    if strategy not in STRATEGIES:
        raise BadRequest(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGIES)}"
        )
    # "auto", "lazy" and no strategy compute the same matrix: one key
    strategy = resolve_strategy(strategy)
    want_witness = body.get("want_witness", False)
    if not isinstance(want_witness, bool):
        raise BadRequest("request field 'want_witness' must be a boolean")
    schema_text = body.get("schema")
    if schema_text is not None and not isinstance(schema_text, str):
        raise BadRequest("request field 'schema' must be a DTD string")
    debug = body.get("_debug", {})
    if not isinstance(debug, dict):
        raise BadRequest("request field '_debug' must be an object")
    try:
        # CLI-identical naming: drained run dirs must resume offline
        fds = [
            translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
            for index, text in enumerate(fd_texts)
        ]
        update_classes = [
            update_class_from_xpath(xpath, name=f"u{index + 1}")
            for index, xpath in enumerate(update_texts)
        ]
        schema = Schema.parse_text(schema_text) if schema_text else None
    except ReproError as error:
        raise BadRequest(str(error)) from error
    manifest = RunManifest.for_matrix(
        "independence-matrix",
        [fd.pattern for fd in fds],
        [fd.name for fd in fds],
        update_classes,
        schema,
        strategy,
        want_witness,
        budget=None,
    )
    batch_basis = json.dumps(
        {
            "columns": list(manifest.column_fingerprints),
            "schema": fingerprint_schema(schema),
            "strategy": strategy,
            "want_witness": want_witness,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return IndependenceRequest(
        fds=fds,
        update_classes=update_classes,
        schema=schema,
        strategy=strategy,
        want_witness=want_witness,
        key=manifest.digest(),
        batch_key=hashlib.sha256(batch_basis.encode("ascii")).hexdigest(),
        debug=debug,
    )


# ----------------------------------------------------------------------
# response shaping
# ----------------------------------------------------------------------

def aggregate_verdict(matrix_json: dict) -> str:
    """The batch answer under the CLI's rules: UNKNOWN taints, then
    all-independent, else possibly-dependent."""
    if matrix_json["unknown"]:
        return "unknown"
    if matrix_json["all_independent"]:
        return "independent"
    return "possibly-dependent"


def slice_matrix_json(full: dict, row_start: int, row_names: list[str]) -> dict:
    """Carve one request's rows back out of a merged-batch matrix JSON.

    The micro-batcher stacks several requests' FD rows into one
    matrix; each request gets back exactly the slice it asked for,
    under its own row names, with every aggregate recomputed from the
    slice (a neighbour's UNKNOWN must not taint this request).
    """
    row_end = row_start + len(row_names)
    verdicts = [list(row) for row in full["verdicts"][row_start:row_end]]
    cell_ms = [list(row) for row in full["cell_ms"][row_start:row_end]]
    columns = list(full["column_names"])
    needs_revalidation = [
        [row_names[i], columns[j]]
        for i, row in enumerate(verdicts)
        for j, verdict in enumerate(row)
        if verdict != "independent"
    ]
    independent = sum(
        1 for row in verdicts for verdict in row if verdict == "independent"
    )
    unknown = sum(
        1 for row in verdicts for verdict in row if verdict == "unknown"
    )
    cells = len(verdicts) * len(columns)
    sliced = {
        **full,
        "row_names": list(row_names),
        "column_names": columns,
        "verdicts": verdicts,
        "cell_ms": cell_ms,
        "needs_revalidation": needs_revalidation,
        "all_independent": independent == cells,
        "independent": independent,
        "unknown": unknown,
        "cells": cells,
    }
    if "witnesses" in full:
        # witness entries are a flat {row, column, witness} list; keep
        # this request's rows and rebase the row index onto the slice
        sliced["witnesses"] = [
            {**entry, "row": entry["row"] - row_start}
            for entry in full["witnesses"]
            if row_start <= entry["row"] < row_end
        ]
    return sliced


def build_response(
    matrix_json: dict,
    *,
    key: str,
    source: str,
    batched: int = 1,
    coalesced_waiters: int = 0,
) -> dict:
    """The success (HTTP 200) response envelope."""
    return {
        "ok": True,
        "verdict": aggregate_verdict(matrix_json),
        "matrix": matrix_json,
        "served": {
            "source": source,
            "request_key": key,
            "batched": batched,
            "coalesced_waiters": coalesced_waiters,
        },
    }


def degraded_response(request: IndependenceRequest, *, reason: str) -> dict:
    """A sound fallback answer when the deadline or drain cut us off.

    Every pair is reported UNKNOWN with ``needs_revalidation`` routing
    — exactly the three-valued contract: the daemon may fail to
    *prove*, it must never claim.  Still HTTP 200: the client got a
    usable (if maximally conservative) verdict.
    """
    row_names = [fd.name for fd in request.fds]
    column_names = [uc.name for uc in request.update_classes]
    verdicts = [["unknown"] * len(column_names) for _ in row_names]
    matrix_json = {
        "row_names": row_names,
        "column_names": column_names,
        "verdicts": verdicts,
        "cell_ms": [[0.0] * len(column_names) for _ in row_names],
        "needs_revalidation": [
            [row, column] for row in row_names for column in column_names
        ],
        "all_independent": False,
        "independent": 0,
        "unknown": len(row_names) * len(column_names),
        "cells": len(row_names) * len(column_names),
        "strategy": request.strategy,
        "parallelism": 0,
        "worker_faults": 0,
        "spliced_cells": 0,
        "recomputed_cells": 0,
        "elapsed_ms": 0.0,
    }
    response = build_response(matrix_json, key=request.key, source="degraded")
    response["served"]["degraded_reason"] = reason
    return response


def error_body(status: int, message: str, **extra) -> dict:
    """The JSON body of every non-200 response."""
    return {"ok": False, "status": status, "error": message, **extra}
