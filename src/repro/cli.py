"""Command-line interface: validate, check, update-guard from the shell.

Installed as ``repro-xml`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Subcommands:

``validate``
    Validate a document against a schema file.

``check-fd``
    Check a linear-syntax FD on a document, reporting violations.

``independence`` (alias ``check-independence``)
    Run the criterion IC for linear-syntax FDs against XPath-defined
    update classes, optionally under a schema; prints the verdict and,
    with ``--show-witness``, the dangerous witness document (which is
    only constructed when that flag is passed).  Repeat ``--fd`` /
    ``--update-xpath`` (or pass ``--matrix``) for a batch run sharing
    automata across all pairs; ``--jobs N`` fans rows out over worker
    processes.  ``--budget-ms`` / ``--max-explored`` bound the analysis;
    a run cut short by its budget exits with a distinct code so scripts
    can tell "proved dependent-capable" from "gave up":

    * ``0`` — INDEPENDENT (every pair certified),
    * ``2`` — POSSIBLY_DEPENDENT (``L ≠ ∅`` proved for some pair),
    * ``3`` — UNKNOWN (budget exhausted somewhere; nothing proved for
      at least one pair — fall back to revalidation).

    Long matrix runs become crash-safe with ``--checkpoint-dir DIR``:
    each cell verdict is journaled (write-ahead, fsynced) as it lands,
    and after a SIGKILL/OOM/reboot the same command plus ``--resume``
    restores the certified cells and recomputes only the remainder —
    refusing (clean diagnostic, no traceback) if the FDs, updates,
    schema, strategy or budget changed since the checkpoint was taken.

    When the workload *drifts* (an FD edited, an update class added),
    point ``--baseline RUN_DIR`` at a prior run: every cell whose row
    and column are fingerprint-identical to the baseline is spliced
    without recomputation and only the affected rows/columns are
    re-analysed.

``checkpoints``
    Manage checkpoint run directories: ``list`` them, ``inspect`` one,
    ``clean`` stale (complete or damaged) ones (dry run by default;
    ``--force`` deletes).

``evaluate``
    Evaluate a positive CoreXPath expression on a document.

``audit``
    Audit a corpus of *untrusted* XML files (files or directories,
    ``--recursive`` to walk): well-formedness, schema validity, FD
    satisfaction, and exposure to non-independent update classes.
    Every parser runs under untrusted-input guards (size, nesting
    depth, token count, entity expansion — override per dimension or
    ``--no-parse-guards``) and every document is fault-isolated: a
    hostile or broken file yields structured findings on that document
    only, never an exception or a lost run.  Exit codes: ``0`` clean,
    ``2`` findings, ``3`` aborted at ``--max-errors``.  Findings go to
    stdout and, with ``--json-out``, to a structured JSON report;
    ``--checkpoint-dir``/``--resume`` make long corpus runs
    crash-safe.

Malformed input text — XML, FDs, XPath, schemas, regexes — is reported
as a one-line ``parse error: ...`` diagnostic (position + snippet, no
traceback) with exit code 2.

Examples::

    repro-xml validate store.xml --schema store.schema
    repro-xml check-fd store.xml \\
        --fd "(/orders, ((order/@id) -> order/customer/name))"
    repro-xml independence \\
        --fd "(/orders, ((order/@id) -> order/customer/name))" \\
        --update-xpath "/orders/order/status" --schema store.schema
    repro-xml check-independence --matrix --jobs 2 \\
        --fd "(/orders, ((order/@id) -> order/customer/name))" \\
        --fd "(/orders, ((order/@id) -> order/total))" \\
        --update-xpath "/orders/order/status" \\
        --update-xpath "/orders/order/customer/name"
    repro-xml independence --checkpoint-dir ckpt/orders --resume \\
        --fd "(/orders, ((order/@id) -> order/customer/name))" \\
        --update-xpath "/orders/order/status"
    repro-xml independence --baseline ckpt/orders/run-001 \\
        --checkpoint-dir ckpt/orders \\
        --fd "(/orders, ((order/@id) -> order/customer/name))" \\
        --update-xpath "/orders/order/status"
    repro-xml checkpoints list ckpt
    repro-xml checkpoints clean ckpt --force
    repro-xml evaluate store.xml --xpath "//line/product"
    repro-xml audit corpus/ --recursive --schema store.schema \\
        --fd "(/orders, ((order/@id) -> order/customer/name))" \\
        --update-xpath "/orders/order/status" \\
        --max-errors 100 --json-out findings.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ParseError, ReproError
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.fd.satisfaction import check_fd
from repro.independence.criterion import check_independence
from repro.schema.dtd import Schema
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize_document, serialize_node
from repro.xpath.evaluate import evaluate_xpath
from repro.xpath.parser import parse_xpath
from repro.xpath.translate import update_class_from_xpath


def _load_document(path: str):
    return parse_document(Path(path).read_text())


def _load_schema(path: str) -> Schema:
    return Schema.parse_text(Path(path).read_text())


def _cmd_validate(args: argparse.Namespace) -> int:
    document = _load_document(args.document)
    schema = _load_schema(args.schema)
    if schema.is_valid(document):
        print(f"{args.document}: VALID against {args.schema}")
        return 0
    print(f"{args.document}: INVALID against {args.schema}")
    return 1


def _print_cache_stats() -> None:
    from repro.regex.cache import cache_stats

    for cache_name, counters in cache_stats().items():
        rendered = " ".join(
            f"{key}={value}" for key, value in sorted(counters.items())
        )
        print(f"# cache[{cache_name}]: {rendered}", file=sys.stderr)


def _cmd_check_fd(args: argparse.Namespace) -> int:
    document = _load_document(args.document)
    fd = translate_linear_fd(LinearFD.parse(args.fd, name="cli-fd"))
    report = check_fd(fd, document, max_violations=args.max_violations)
    print(report.describe())
    if args.cache_stats:
        _print_cache_stats()
    return 0 if report.satisfied else 1


EXIT_INDEPENDENT = 0
EXIT_POSSIBLY_DEPENDENT = 2
EXIT_UNKNOWN = 3
EXIT_INTERRUPTED = 130
#: malformed input text (same family as argparse's own usage errors)
EXIT_PARSE_ERROR = 2


def _budget_from_args(args: argparse.Namespace):
    if args.budget_ms is None and args.max_explored is None:
        return None
    from repro.limits import Budget

    return Budget(
        deadline_ms=args.budget_ms,
        max_explored_states=args.max_explored,
        max_explored_rules=args.max_explored,
    )


def _cmd_independence(args: argparse.Namespace) -> int:
    # --trace-out installs a process-wide tracer for the duration of
    # the command; every layer resolves it through current_tracer(), so
    # no per-call plumbing is needed here.  The exporter is closed (and
    # the previous tracer restored) even when the analysis raises.
    if args.trace_out:
        from repro.obs.trace import JsonlSpanExporter, Tracer, install_tracer

        tracer = Tracer(JsonlSpanExporter(args.trace_out))
        previous = install_tracer(tracer)
        try:
            return _run_independence(args)
        finally:
            install_tracer(previous)
            tracer.close()
    return _run_independence(args)


def _print_metrics(registry) -> None:
    from repro.obs.metrics import format_metrics_table

    table = format_metrics_table(registry.snapshot())
    if table:
        for line in table.splitlines():
            print(f"# {line}", file=sys.stderr)


def _describe_cell(matrix, cell) -> str:
    from repro.obs.metrics import format_stats

    work = format_stats(
        cell.exploration,
        cell.partial,
        0 if cell.exploration is None else cell.exploration.explored_size,
    )
    return (
        f"# cell[{matrix.row_names[cell.row]},"
        f"{matrix.column_names[cell.column]}]: {cell.verdict.value} "
        f"({work}, {cell.elapsed_seconds * 1000:.2f} ms)"
    )


def _run_independence(args: argparse.Namespace) -> int:
    from repro.independence.criterion import Verdict

    registry = None
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    fds = [
        translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
        for index, text in enumerate(args.fd)
    ]
    update_classes = [
        update_class_from_xpath(xpath, name=f"u{index + 1}")
        for index, xpath in enumerate(args.update_xpath)
    ]
    schema = _load_schema(args.schema) if args.schema else None
    budget = _budget_from_args(args)
    # checkpointing and baseline splicing are matrix-run features, so
    # --checkpoint-dir/--baseline route even a single pair through the
    # (1x1) matrix path
    if (
        args.matrix
        or len(fds) > 1
        or len(update_classes) > 1
        or args.checkpoint_dir
        or args.baseline
    ):
        from repro.independence.matrix import check_independence_matrix

        matrix = check_independence_matrix(
            fds,
            update_classes,
            schema=schema,
            want_witness=args.show_witness,
            strategy=args.strategy,
            parallelism=args.jobs,
            budget=budget,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            baseline_dir=args.baseline,
        )
        print(matrix.describe())
        if registry is not None:
            for row in matrix.cells:
                for cell in row:
                    print(_describe_cell(matrix, cell))
            registry.absorb_matrix(matrix)
            registry.absorb_caches()
            registry.absorb_pool()
            _print_metrics(registry)
        if args.cache_stats:
            _print_cache_stats()
        if args.show_witness:
            for row in matrix.cells:
                for cell in row:
                    if cell.witness is None:
                        continue
                    print(
                        f"dangerous document for "
                        f"({matrix.row_names[cell.row]}, "
                        f"{matrix.column_names[cell.column]}):"
                    )
                    print(serialize_document(cell.witness, indent=2))
        # UNKNOWN wins: one unproved cell taints the batch answer
        if matrix.unknown_count():
            return EXIT_UNKNOWN
        if matrix.all_independent():
            return EXIT_INDEPENDENT
        return EXIT_POSSIBLY_DEPENDENT
    result = check_independence(
        fds[0],
        update_classes[0],
        schema=schema,
        want_witness=args.show_witness,
        strategy=args.strategy,
        budget=budget,
    )
    print(result.describe())
    if registry is not None:
        registry.absorb_result(result)
        registry.absorb_caches()
        _print_metrics(registry)
    if args.cache_stats:
        _print_cache_stats()
    if result.witness is not None and args.show_witness:
        print("dangerous document:")
        print(serialize_document(result.witness, indent=2))
    if result.verdict is Verdict.UNKNOWN:
        return EXIT_UNKNOWN
    if result.independent:
        return EXIT_INDEPENDENT
    return EXIT_POSSIBLY_DEPENDENT


def _parse_budget_from_args(args: argparse.Namespace):
    """The audit guards: ``ParseBudget.default()`` with per-dimension
    overrides, or ``None`` under ``--no-parse-guards``."""
    from repro.limits import ParseBudget

    if args.no_parse_guards:
        return None
    default = ParseBudget.default()
    return ParseBudget(
        max_input_bytes=(
            default.max_input_bytes
            if args.max_input_bytes is None
            else args.max_input_bytes
        ),
        max_depth=(
            default.max_depth if args.max_depth is None else args.max_depth
        ),
        max_tokens=(
            default.max_tokens if args.max_tokens is None else args.max_tokens
        ),
        max_entity_expansion=(
            default.max_entity_expansion
            if args.max_entity_expansion is None
            else args.max_entity_expansion
        ),
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    # same tracer-installation pattern as the independence subcommand
    if args.trace_out:
        from repro.obs.trace import JsonlSpanExporter, Tracer, install_tracer

        tracer = Tracer(JsonlSpanExporter(args.trace_out))
        previous = install_tracer(tracer)
        try:
            return _run_audit(args)
        finally:
            install_tracer(previous)
            tracer.close()
    return _run_audit(args)


def _run_audit(args: argparse.Namespace) -> int:
    import json
    from contextlib import ExitStack

    from repro.audit import AuditOptions, audit_corpus

    parse_budget = _parse_budget_from_args(args)
    # FD/schema/XPath text is operator-supplied configuration, not
    # corpus content — but it still goes through guarded parsers so a
    # bad paste cannot blow the stack either
    fds = [
        translate_linear_fd(LinearFD.parse(text, name=f"fd{index + 1}"))
        for index, text in enumerate(args.fd or [])
    ]
    update_classes = [
        update_class_from_xpath(
            parse_xpath(xpath, limits=parse_budget), name=f"u{index + 1}"
        )
        for index, xpath in enumerate(args.update_xpath or [])
    ]
    schema = None
    if args.schema:
        schema = Schema.parse_text(
            Path(args.schema).read_text(), limits=parse_budget
        )
    with ExitStack() as stack:
        store = None
        if getattr(args, "store", None):
            from repro.store import CorpusStore, open_existing_backend

            store = stack.enter_context(
                CorpusStore(open_existing_backend(args.store))
            )
        options = AuditOptions(
            schema=schema,
            fds=tuple(fds),
            update_classes=tuple(update_classes),
            parse_budget=parse_budget,
            budget=_budget_from_args(args),
            recursive=args.recursive,
            max_errors=args.max_errors,
            max_violations=args.max_violations,
            strategy=args.strategy,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            store=store,
        )
        report = audit_corpus(args.paths, options)
    print(report.describe())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"# findings written to {args.json_out}", file=sys.stderr)
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.absorb_audit(report)
        registry.absorb_caches()
        _print_metrics(registry)
    return report.exit_code()


def _cmd_stream_check(args: argparse.Namespace) -> int:
    from repro.fd.streaming import StreamingFDValidator

    linear = LinearFD.parse(args.fd, name="cli-fd")
    validator = StreamingFDValidator(linear)
    report = validator.validate_text(Path(args.document).read_text())
    status = "SATISFIED" if report.satisfied else "VIOLATED"
    print(
        f"cli-fd: {status} ({report.assignment_count} assignments over "
        f"{report.context_count} contexts, "
        f"{report.violation_count} violations; single pass)"
    )
    return 0 if report.satisfied else 1


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    from repro.persistence.store import (
        clean_run_dirs,
        inspect_run_dir,
        is_run_dir,
        iter_run_dirs,
    )

    if args.action == "list":
        run_dirs = iter_run_dirs(args.path)
        if not run_dirs:
            print(f"no checkpoint run directories under {args.path}")
            return 0
        for run_dir in run_dirs:
            print(inspect_run_dir(run_dir).describe())
        return 0
    if args.action == "inspect":
        if not is_run_dir(args.path):
            print(
                f"error: {args.path} is not a checkpoint run directory "
                f"(no manifest.json)",
                file=sys.stderr,
            )
            return 64
        info = inspect_run_dir(args.path)
        print(info.describe())
        import json as _json
        from pathlib import Path as _Path

        manifest = _json.loads(
            (_Path(args.path) / "manifest.json").read_text()
        )
        for field in (
            "kind",
            "strategy",
            "want_witness",
            "budget",
            "code_version",
            "row_names",
            "column_names",
        ):
            print(f"  {field}: {manifest.get(field)}")
        return 0
    # action == "clean": stale run dirs go away; trouble is reported,
    # never fatal (the journal-writer non-fatality policy, applied here).
    # Deleting durable results silently is a footgun now that old run
    # dirs double as --baseline inputs, so the default is a dry run and
    # --force is required to actually remove anything.
    dry_run = not args.force
    removed, kept, problems = clean_run_dirs(
        args.path, remove_all=args.all, dry_run=dry_run
    )
    verb = "would remove" if dry_run else "removed"
    for path in removed:
        print(f"{verb} {path}")
    for path in kept:
        print(f"kept {path} (in progress; use --all to remove)")
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    if not removed and not kept and not problems:
        print(f"no checkpoint run directories under {args.path}")
    elif dry_run and removed:
        print("dry run: pass --force to actually delete")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    document = _load_document(args.document)
    path = parse_xpath(args.xpath)
    nodes = evaluate_xpath(path, document)
    for node in nodes:
        position = ".".join(map(str, node.position()))
        if node.node_type.value == "e":
            rendered = serialize_node(node)
        else:
            rendered = f'{node.label}="{node.value}"'
        print(f"{position}\t{rendered}")
    print(f"# {len(nodes)} node(s)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import run_daemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        strategy=args.strategy,
        budget_ms=args.budget_ms,
        max_explored=args.max_explored,
        queue_limit=args.queue_limit,
        batch_window_ms=args.batch_window_ms,
        watchdog_ms=args.watchdog_ms,
        checkpoint_dir=args.checkpoint_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ms=args.breaker_cooldown_ms,
        drain_grace_ms=args.drain_grace_ms,
        trace_path=args.trace_out,
        debug_hooks=args.debug_hooks,
    )
    return run_daemon(config)


def _json_out(args: argparse.Namespace, payload: dict) -> None:
    if getattr(args, "json_out", None):
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"# report written to {args.json_out}", file=sys.stderr)


def _cmd_corpus(args: argparse.Namespace) -> int:
    # same tracer-installation pattern as independence/audit
    if getattr(args, "trace_out", None):
        from repro.obs.trace import JsonlSpanExporter, Tracer, install_tracer

        tracer = Tracer(JsonlSpanExporter(args.trace_out))
        previous = install_tracer(tracer)
        try:
            return _run_corpus(args)
        finally:
            install_tracer(previous)
            tracer.close()
    return _run_corpus(args)


def _run_corpus(args: argparse.Namespace) -> int:
    from repro.store import CorpusStore, open_backend, open_existing_backend

    registry = None
    if getattr(args, "metrics", None):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    # only a load may create the store; the other actions need one
    if args.corpus_action == "load":
        backend = open_backend(args.store)
    else:
        backend = open_existing_backend(args.store)
    with CorpusStore(backend) as store:
        if args.corpus_action == "load":
            report = store.load_paths(
                args.paths,
                recursive=args.recursive,
                parse_budget=_parse_budget_from_args(args),
                chunk_size=args.chunk_size,
            )
            print(f"corpus load: {report.describe()}")
            for finding in report.findings:
                print(f"  {finding.describe()}")
            _json_out(args, report.to_json_dict())
            if registry is not None:
                registry.absorb_corpus_load(report)
                _print_metrics(registry)
            return 0 if report.errors == 0 else 2

        if args.corpus_action == "check-fd":
            fds = [
                translate_linear_fd(
                    LinearFD.parse(text, name=f"fd{index + 1}")
                )
                for index, text in enumerate(args.fd)
            ]
            report = store.check_fd_corpus(
                fds,
                budget=_budget_from_args(args),
                max_violations=args.max_violations,
                use_index=not args.no_index,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
            print(f"corpus check-fd: {report.describe()}")
            for check in report.documents:
                if check.status != "satisfied":
                    bad = ", ".join(
                        f"{name}={verdict}"
                        for name, verdict in sorted(check.verdicts.items())
                        if verdict != "satisfied"
                    )
                    print(f"  {check.name}: {check.status} ({bad})")
            _json_out(args, report.to_json_dict())
            if registry is not None:
                registry.absorb_corpus_check(report)
                _print_metrics(registry)
            if report.unknown_count:
                return EXIT_UNKNOWN
            return 0 if report.violated_count == 0 else 2

        if args.corpus_action == "apply":
            from repro.update.apply import Update
            from repro.update.operations import set_text

            updates = []
            for index, spec in enumerate(args.set):
                xpath, separator, value = spec.partition("=")
                if not separator:
                    print(
                        f"error: --set needs XPATH=VALUE, got {spec!r}",
                        file=sys.stderr,
                    )
                    return 64
                updates.append(
                    Update(
                        update_class_from_xpath(
                            xpath, name=f"u{index + 1}"
                        ),
                        set_text(value),
                        name=f"set{index + 1}",
                    )
                )
            fds = [
                translate_linear_fd(
                    LinearFD.parse(text, name=f"fd{index + 1}")
                )
                for index, text in enumerate(args.fd or [])
            ]
            schema = _load_schema(args.schema) if args.schema else None
            report = store.apply_guarded_corpus(
                updates,
                fds=fds,
                schema=schema,
                strategy=args.strategy,
                budget=_budget_from_args(args),
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
            )
            print(f"corpus apply: {report.describe()}")
            for outcome in report.documents:
                if not outcome.committed:
                    why = (
                        "schema violation"
                        if outcome.schema_violation
                        else "FD " + ", ".join(outcome.failed_fd_names)
                    )
                    print(f"  {outcome.name}: rolled back ({why})")
            _json_out(args, report.to_json_dict())
            if registry is not None:
                registry.absorb_corpus_apply(report)
                _print_metrics(registry)
            return 0 if report.rolled_back_count == 0 else 2

        # action == "stats"
        stats = store.stats()
        for key, value in sorted(stats.items()):
            print(f"{key}: {value}")
        _json_out(args, stats)
        return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for the ``repro-xml`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-xml",
        description=(
            "Regular tree patterns: XML FD checking and update-FD "
            "independence analysis (Gire & Idabal, EDBT 2010 Workshops)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate a document against a schema file"
    )
    validate.add_argument("document")
    validate.add_argument("--schema", required=True)
    validate.set_defaults(handler=_cmd_validate)

    check = commands.add_parser(
        "check-fd", help="check a linear-syntax FD on a document"
    )
    check.add_argument("document")
    check.add_argument(
        "--fd",
        required=True,
        help='e.g. "(/orders, ((order/@id) -> order/customer/name))"',
    )
    check.add_argument("--max-violations", type=int, default=5)
    check.add_argument(
        "--cache-stats",
        action="store_true",
        help="print compiled-automaton cache counters to stderr",
    )
    check.set_defaults(handler=_cmd_check_fd)

    independence = commands.add_parser(
        "independence",
        aliases=["check-independence"],
        help="run the criterion IC for FDs against XPath update classes",
    )
    independence.add_argument(
        "--fd",
        required=True,
        action="append",
        help="linear-syntax FD; repeat for a matrix run",
    )
    independence.add_argument(
        "--update-xpath",
        required=True,
        action="append",
        help='e.g. "/orders/order/status"; repeat for a matrix run',
    )
    independence.add_argument("--schema")
    independence.add_argument(
        "--matrix",
        action="store_true",
        help="batch all (FD, update) pairs in one shared run",
    )
    independence.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --matrix runs (default: 1)",
    )
    independence.add_argument(
        "--strategy",
        choices=["auto", "lazy", "eager"],
        default="auto",
        help="auto (default) and lazy run the on-the-fly product "
        "exploration; eager the materialized Proposition 3 construction",
    )
    independence.add_argument(
        "--show-witness",
        action="store_true",
        help="build and print the dangerous document on "
        "POSSIBLY-DEPENDENT verdicts",
    )
    independence.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget per pair; an exhausted budget yields "
        "verdict UNKNOWN and exit code 3",
    )
    independence.add_argument(
        "--max-explored",
        type=int,
        default=None,
        metavar="N",
        help="cap on explored product states and on instantiated rules "
        "per pair (each dimension capped at N); exceeding it yields "
        "verdict UNKNOWN and exit code 3",
    )
    independence.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal every cell verdict into DIR (crash-safe matrix "
        "run); implies a matrix run even for a single pair",
    )
    independence.add_argument(
        "--resume",
        action="store_true",
        help="restore certified cells from --checkpoint-dir and "
        "recompute only the remainder (refused when the inputs differ "
        "from the checkpointed run)",
    )
    independence.add_argument(
        "--baseline",
        default=None,
        metavar="RUN_DIR",
        help="splice unchanged cell verdicts from a prior run dir "
        "(matched by name and content fingerprint) and recompute only "
        "the drifted rows/columns; implies a matrix run. Unlike "
        "--resume, differing inputs are expected, and a damaged or "
        "incompatible baseline degrades to a full recompute",
    )
    independence.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.jsonl",
        help="write a JSONL span trace of the run (construction, "
        "fixpoints, products, matrix cells, checkpoint events); "
        "summarize with scripts/trace_report.py",
    )
    independence.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics summary table to stderr and annotate "
        "matrix cells with duration and explored-vs-worst-case counts",
    )
    independence.add_argument(
        "--cache-stats",
        action="store_true",
        help="print compiled-automaton cache counters to stderr",
    )
    independence.set_defaults(handler=_cmd_independence)

    checkpoints = commands.add_parser(
        "checkpoints",
        help="list, inspect, or clean crash-safe checkpoint directories",
    )
    checkpoints.add_argument(
        "action",
        choices=["list", "inspect", "clean"],
        help="list run dirs under PATH / inspect one run dir / remove "
        "stale (complete or damaged) run dirs",
    )
    checkpoints.add_argument("path")
    checkpoints.add_argument(
        "--all",
        action="store_true",
        help="with clean: remove in-progress run dirs too",
    )
    checkpoints.add_argument(
        "--force",
        action="store_true",
        help="with clean: actually delete (the default is a dry run "
        "listing what would be removed — old run dirs double as "
        "--baseline inputs, so destruction is opt-in)",
    )
    checkpoints.set_defaults(handler=_cmd_checkpoints)

    evaluate = commands.add_parser(
        "evaluate", help="evaluate a positive CoreXPath expression"
    )
    evaluate.add_argument("document")
    evaluate.add_argument("--xpath", required=True)
    evaluate.set_defaults(handler=_cmd_evaluate)

    audit = commands.add_parser(
        "audit",
        help="audit a corpus of untrusted XML files: well-formedness, "
        "schema validity, FD satisfaction, and exposure to "
        "non-independent update classes — with per-document fault "
        "isolation (exit 0 clean / 2 findings / 3 aborted at "
        "--max-errors)",
    )
    audit.add_argument(
        "paths",
        nargs="+",
        help="XML files and/or directories (directories are scanned "
        "one level deep; see --recursive)",
    )
    audit.add_argument("--schema", help="schema file to validate against")
    audit.add_argument(
        "--fd",
        action="append",
        help="linear-syntax FD to check on every document; repeatable",
    )
    audit.add_argument(
        "--update-xpath",
        action="append",
        help="update class (XPath) to test for exposure: documents "
        "where a non-independent class applies are flagged; repeatable",
    )
    audit.add_argument(
        "--recursive",
        action="store_true",
        help="walk directories recursively (symlink cycles are "
        "detected and reported, not followed)",
    )
    audit.add_argument(
        "--max-errors",
        type=int,
        default=None,
        metavar="N",
        help="abort (cleanly, with a partial summary and exit code 3) "
        "once more than N error-severity findings accumulated",
    )
    audit.add_argument(
        "--max-violations",
        type=int,
        default=5,
        metavar="N",
        help="cap on reported FD-violation witnesses and "
        "schema-violation sites per document (default: 5)",
    )
    audit.add_argument(
        "--json-out",
        default=None,
        metavar="FILE.json",
        help="also write the full structured findings report as JSON",
    )
    audit.add_argument(
        "--strategy",
        choices=["auto", "lazy", "eager"],
        default="auto",
        help="independence-analysis strategy (see the independence "
        "subcommand)",
    )
    audit.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-document wall-clock budget for FD/exposure analysis; "
        "exhaustion becomes a budget-exhausted finding on that "
        "document only",
    )
    audit.add_argument(
        "--max-explored",
        type=int,
        default=None,
        metavar="N",
        help="per-document cap on charged analysis work (pattern "
        "mappings, explored states); exhaustion becomes a "
        "budget-exhausted finding on that document only",
    )
    audit.add_argument(
        "--max-input-bytes",
        type=int,
        default=None,
        metavar="N",
        help="per-file size guard (default: 8 MiB); larger files are "
        "refused from a stat call alone",
    )
    audit.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="element/predicate/group nesting guard (default: 1000)",
    )
    audit.add_argument(
        "--max-tokens",
        type=int,
        default=None,
        metavar="N",
        help="scanner token guard per file (default: 2000000)",
    )
    audit.add_argument(
        "--max-entity-expansion",
        type=float,
        default=None,
        metavar="RATIO",
        help="entity-expansion guard as a multiple of the input size "
        "(default: 4.0)",
    )
    audit.add_argument(
        "--no-parse-guards",
        action="store_true",
        help="disable all untrusted-input guards (trusted corpora "
        "only; the structural nesting rail stays)",
    )
    audit.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="journal every finished document report into DIR "
        "(crash-safe corpus run)",
    )
    audit.add_argument(
        "--resume",
        action="store_true",
        help="restore finished documents from --checkpoint-dir and "
        "re-audit only the remainder (refused when the corpus or "
        "configuration changed)",
    )
    audit.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.jsonl",
        help="write a JSONL span trace (audit.corpus / audit.document "
        "/ audit.independence spans); summarize with "
        "scripts/trace_report.py",
    )
    audit.add_argument(
        "--metrics",
        action="store_true",
        help="print audit.* metrics (documents, findings by kind, "
        "quarantined, per-document duration) to stderr",
    )
    audit.add_argument(
        "--store",
        default=None,
        metavar="LOCATION",
        help="corpus store to reuse cached parses from (sqlite file "
        "path or ':memory:'); documents whose content sha256 matches "
        "a stored document skip re-parsing — the store is read-only "
        "for the audit",
    )
    audit.set_defaults(handler=_cmd_audit)

    corpus = commands.add_parser(
        "corpus",
        help="corpus store operations: bulk-load documents into a "
        "pluggable (in-memory/SQLite) store, check FDs across the "
        "whole corpus with persisted index state, apply guarded "
        "update batches, and inspect store statistics",
    )
    corpus_actions = corpus.add_subparsers(
        dest="corpus_action", required=True
    )

    def _corpus_common(sub, budget: bool = True) -> None:
        sub.add_argument(
            "store",
            help="store location: a sqlite database file path (or "
            "sqlite://PATH), or ':memory:' for an in-process store",
        )
        sub.add_argument(
            "--json-out",
            default=None,
            metavar="FILE.json",
            help="also write the structured report as JSON",
        )
        sub.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE.jsonl",
            help="write a JSONL span trace (corpus.load / corpus.check "
            "/ corpus.apply spans)",
        )
        sub.add_argument(
            "--metrics",
            action="store_true",
            help="print corpus.* metrics to stderr",
        )
        if budget:
            sub.add_argument(
                "--budget-ms", type=float, default=None, metavar="MS"
            )
            sub.add_argument(
                "--max-explored", type=int, default=None, metavar="N"
            )

    corpus_load = corpus_actions.add_parser(
        "load",
        help="bulk-load XML files/directories into the store (chunked "
        "transactions; unchanged files are skipped by content sha256, "
        "so re-running after a crash completes the load)",
    )
    _corpus_common(corpus_load, budget=False)
    corpus_load.add_argument("paths", nargs="+")
    corpus_load.add_argument("--recursive", action="store_true")
    corpus_load.add_argument(
        "--chunk-size",
        type=int,
        default=64,
        metavar="N",
        help="documents per committed transaction (default: 64)",
    )
    corpus_load.add_argument(
        "--resume",
        action="store_true",
        help="accepted for symmetry: a load is idempotent and "
        "incremental, so resuming IS re-running",
    )
    for flag, kind in (
        ("--max-input-bytes", int),
        ("--max-depth", int),
        ("--max-tokens", int),
    ):
        corpus_load.add_argument(flag, type=kind, default=None, metavar="N")
    corpus_load.add_argument(
        "--max-entity-expansion", type=float, default=None, metavar="RATIO"
    )
    corpus_load.add_argument("--no-parse-guards", action="store_true")
    corpus_load.set_defaults(handler=_cmd_corpus)

    corpus_check = corpus_actions.add_parser(
        "check-fd",
        help="check linear-syntax FDs on every stored document; "
        "unchanged documents answer from their persisted FD index "
        "(exit 0 all satisfied / 2 violations / 3 unknown)",
    )
    _corpus_common(corpus_check)
    corpus_check.add_argument(
        "--fd", required=True, action="append", help="repeatable"
    )
    corpus_check.add_argument(
        "--max-violations", type=int, default=5, metavar="N"
    )
    corpus_check.add_argument(
        "--no-index",
        action="store_true",
        help="ignore (and do not write) persisted FD index state",
    )
    corpus_check.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR"
    )
    corpus_check.add_argument("--resume", action="store_true")
    corpus_check.set_defaults(handler=_cmd_corpus)

    corpus_apply = corpus_actions.add_parser(
        "apply",
        help="apply a guarded update batch to every stored document: "
        "one independence matrix certifies the batch corpus-wide, "
        "each document revalidates only the uncertified pairs "
        "(exit 0 all committed / 2 some rolled back)",
    )
    _corpus_common(corpus_apply)
    corpus_apply.add_argument(
        "--set",
        required=True,
        action="append",
        metavar="XPATH=VALUE",
        help="set the text of the nodes selected by XPATH; repeatable "
        "(the updates form one atomic per-document batch)",
    )
    corpus_apply.add_argument(
        "--fd", action="append", help="guard FD; repeatable"
    )
    corpus_apply.add_argument("--schema")
    corpus_apply.add_argument(
        "--strategy",
        choices=["auto", "lazy", "eager"],
        default="auto",
    )
    corpus_apply.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR"
    )
    corpus_apply.add_argument("--resume", action="store_true")
    corpus_apply.set_defaults(handler=_cmd_corpus)

    corpus_stats = corpus_actions.add_parser(
        "stats", help="print store row counts"
    )
    _corpus_common(corpus_stats, budget=False)
    corpus_stats.set_defaults(handler=_cmd_corpus)

    stream = commands.add_parser(
        "stream-check",
        help="single-pass (bounded-memory) check of a linear-syntax FD",
    )
    stream.add_argument("document")
    stream.add_argument("--fd", required=True)
    stream.set_defaults(handler=_cmd_stream_check)

    serve = commands.add_parser(
        "serve",
        help="run the resident IC daemon (HTTP/JSON, admission control, "
        "single-flight dedup, circuit breaking, graceful drain)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port; 0 picks an ephemeral port, printed in the "
        "ready line (default: 8642)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per matrix computation; the pool is "
        "spawned at boot and kept warm (default: 1)",
    )
    serve.add_argument(
        "--strategy",
        choices=["auto", "lazy", "eager"],
        default="auto",
        help="default strategy for requests that do not name one",
    )
    serve.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-cell wall-clock budget; tightened automatically as "
        "the admission queue fills (exhaustion degrades to UNKNOWN + "
        "needs_revalidation, still HTTP 200)",
    )
    serve.add_argument(
        "--max-explored",
        type=int,
        default=None,
        metavar="N",
        help="per-cell cap on explored states/rules (see independence "
        "--max-explored); pressure-scaled like --budget-ms",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist the result journal and per-request run dirs "
        "under DIR; drained run dirs resume with the offline CLI",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admission queue bound; beyond it requests are shed with "
        "HTTP 429 + Retry-After (default: 64)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batch window merging same-shape requests into one "
        "matrix call; 0 disables merging (default: 2)",
    )
    serve.add_argument(
        "--watchdog-ms",
        type=float,
        default=30_000.0,
        metavar="MS",
        help="per-request ceiling after which the client receives a "
        "sound all-UNKNOWN answer; 0 disables (default: 30000)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive pool faults that trip the circuit breaker "
        "to serial-only (default: 3)",
    )
    serve.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=5_000.0,
        metavar="MS",
        help="open-state cooldown before a half-open probe (default: 5000)",
    )
    serve.add_argument(
        "--drain-grace-ms",
        type=float,
        default=10_000.0,
        metavar="MS",
        help="SIGTERM/SIGINT drain grace for finishing queued work; "
        "leftovers are answered degraded after it (default: 10000)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE.jsonl",
        help="write a JSONL span trace of every computation",
    )
    # test/bench harness fault hooks; hidden from --help on purpose
    serve.add_argument(
        "--debug-hooks", action="store_true", help=argparse.SUPPRESS
    )
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as error:
        # malformed input text: one clean line (position + snippet
        # already rendered by the error), no traceback, exit 2
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 64
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 66
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # downstream closed the pipe (| head, a pager quit): stop
        # writing, exit with the conventional SIGPIPE status — the
        # interpreter must not flush the dead stream at shutdown
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
