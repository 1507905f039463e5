"""Command-line interface: JSON documents in, JSON/text reports out.

Exit codes: 0 success, 1 query error or expectation mismatch, 2 parse or
validation error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .catalog import builtin_catalog
from .document import (
    QUERY_OPS,
    DocumentError,
    parse_document,
    render_report_json,
    render_report_text,
    run,
)
from .verdict import SaturationBudget, Window


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser, with_doc: bool = True):
    if with_doc:
        p.add_argument("document", help="path to a problem document (JSON)")
    p.add_argument("--budget-conj", type=_positive_int, default=2, metavar="N",
                   help="conjugator word length bound (default 2)")
    p.add_argument("--budget-sum", type=_positive_int, default=6, metavar="N",
                   help="additive word length bound (default 6)")
    p.add_argument("--window", type=_positive_int, default=8, metavar="M",
                   help="integer window bound (default 8)")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def _budget(args) -> SaturationBudget:
    w = args.window
    return SaturationBudget(args.budget_conj, args.budget_sum, Window(w, 2 * w, w))


def _emit(report: dict, args) -> int:
    text = render_report_json(report) if args.report == "json" else render_report_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if (report["errors"] or report["mismatches"]) else 0


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordsplit",
        description="Decide order-compatibility questions on split extensions of preordered groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, list[str]] = {}
    for name, op in QUERY_OPS.items():
        commands.setdefault(op.command, []).append(name)
    for command, names in commands.items():
        _add_common(sub.add_parser(command, help=f"run the {', '.join(names)} queries"))
    p = sub.add_parser(
        "catalog",
        aliases=["paper"],
        help="run the built-in catalog and compare against expected verdicts",
    )
    _add_common(p, with_doc=False)
    p.add_argument("--doubled", action="store_true", help="double all budgets")
    p = sub.add_parser("validate", help="parse and validate a document, run nothing")
    p.add_argument("document")
    args = parser.parse_args(argv)

    if args.command in ("catalog", "paper"):
        doc, ops, doubled = builtin_catalog(), None, args.doubled
    else:
        try:
            doc = _load(args.document)
        except DocumentError as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        if args.command == "validate":
            print(f"ok: {len(doc.queries)} queries")
            return 0
        ops = set(commands[args.command])
        doubled = False

    budget = _budget(args)
    started = time.monotonic()
    report = run(doc, budget, ops, doubled)
    report["wall_time_ms"] = int((time.monotonic() - started) * 1000)
    return _emit(report, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
