"""The three workloads: their documents, one timed pass, and verdict checks.

Every workload is a list of document invocations, each run the way one
``ordsplit`` CLI invocation runs it: ``parse_document``, then
``execute_query`` per query, then ``render_report_json``.  A pass re-parses
every document, so per-object caches (``GeneratedCone._cache``) start cold
as they do in one CLI invocation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import ordsplit
from ordsplit import document as D
from ordsplit.catalog import catalog_dict
from ordsplit.groups import StructureError
from ordsplit.verdict import SaturationBudget, Window

import randomdocs

# The defaults of the ordsplit CLI: --budget-conj 2 --budget-sum 6 --window 8.
CLI_BUDGET = SaturationBudget(2, 6, Window(8, 16, 8))
SWEEP_KS = tuple(range(3, 11))


@dataclass(frozen=True)
class Invocation:
    label: str
    text: str
    budget: SaturationBudget
    doubled: bool = False
    # A strict document pins every verdict, so an unknown is a failure too;
    # otherwise only a yes or no that contradicts the known answer fails.
    strict: bool = False


@dataclass
class Pass:
    wall_s: float
    # (invocation label, query id, op, seconds, outcome)
    samples: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # label -> rendered JSON report
    # With a speed meter: the (start, end) marks of the pass and of each
    # sample, and its seconds are the meter's own_seconds.
    marks: tuple = ()
    sample_marks: list = field(default_factory=list)


def outcome(entry: dict, strict: bool) -> str:
    """failed, decided or undecided, from one report entry."""
    if "error" in entry:
        return "failed"
    state = entry.get("verdict", {}).get("state")
    if entry.get("matched") is False and (strict or state != "unknown"):
        return "failed"
    return "decided" if state in ("yes", "no") else "undecided"


def _report(budget: SaturationBudget, entries: list, errors: int, mismatches: int) -> dict:
    # The report ordsplit.document.run builds; the benchmark assembles it
    # itself only to time each query, and checks the bytes against run().
    w = budget.window
    return {
        "format": D.REPORT_FORMAT,
        "budgets": {
            "conjugators": budget.max_conjugators,
            "summands": budget.max_summands,
            "window": [w.int_bound, w.num_bound, w.den_bound],
        },
        "queries": entries,
        "errors": errors,
        "mismatches": mismatches,
    }


def run_pass(invocations: list[Invocation], tracer=None, meter=None) -> Pass:
    # Module attributes are looked up on every call so that the tracer's
    # wrappers, when installed, are the ones called.
    out = Pass(0.0)
    pass_mark = meter.mark() if meter else None
    started = perf_counter()
    for inv in invocations:
        if tracer:
            tracer.set_query(f"{inv.label}:parse")
        doc = D.parse_document(inv.text)
        entries = []
        errors = mismatches = 0
        for q in doc.queries:
            if tracer:
                tracer.set_query(f"{inv.label}:{q['id']}")
            m0 = meter.mark() if meter else None
            t0 = perf_counter()
            try:
                entry = D.execute_query(q, inv.budget, inv.doubled)
            except (StructureError, AssertionError) as exc:
                entry = {"id": q["id"], "op": q["op"], "error": str(exc)}
                errors += 1
            dt = perf_counter() - t0
            if meter:
                m1 = meter.mark()
                dt = meter.own_seconds(m0, m1)
                out.sample_marks.append((m0, m1))
            if entry.get("matched") is False:
                mismatches += 1
            entries.append(entry)
            out.samples.append((inv.label, q["id"], q["op"], dt, outcome(entry, inv.strict)))
        if tracer:
            tracer.set_query(f"{inv.label}:render")
        out.reports[inv.label] = D.render_report_json(
            _report(inv.budget, entries, errors, mismatches)
        )
    out.wall_s = perf_counter() - started
    if meter:
        out.marks = (pass_mark, meter.mark())
        out.wall_s = meter.own_seconds(*out.marks)
    return out


def reference_reports(invocations: list[Invocation]) -> dict:
    """label -> the JSON report ordsplit.document.run renders for the invocation.

    Every timed pass must reproduce these bytes; running them first also
    warms the interpreter before timing starts.
    """
    return {
        inv.label: D.render_report_json(
            D.run(D.parse_document(inv.text), inv.budget, None, inv.doubled)
        )
        for inv in invocations
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- the workloads -------------------------------------------------------------


def catalog(seed: int) -> list[Invocation]:
    """The built-in 18-query catalog, at CLI default budgets and --doubled.

    The catalog is fixed, so the seed does not change it.
    """
    text = json.dumps(catalog_dict())
    return [
        Invocation("default", text, CLI_BUDGET, strict=True),
        Invocation("doubled", text, CLI_BUDGET, doubled=True, strict=True),
    ]


def sweep_document() -> dict:
    """is_strong of the scaling point pulled back along n -> 3n, window k = 3..10.

    The scaling point is Q x| Z, n acting by 2^n, with the least compatible
    cone.  The inputs are fixed, so the seed does not change them.
    """
    return {
        "format": randomdocs.FORMAT,
        "groups": {
            "Z": {"kind": "free_abelian", "rank": 1},
            "Q": {"kind": "rational_vector", "rank": 1},
        },
        "cones": {
            "z_nat": {"kind": "orthant", "group": "Z"},
            "q_nat": {"kind": "orthant", "group": "Q"},
        },
        "homs": {"triple": {"kind": "linear", "source": "Z", "target": "Z", "matrix": [["3"]]}},
        "actions": {"scale2": {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "2"}},
        "points": {
            "scaling_minimal": {
                "x_group": "Q", "x_cone": "q_nat", "b_group": "Z", "b_cone": "z_nat",
                "action": "scale2", "cone": "minimal",
            },
        },
        "queries": [
            {
                "id": f"k{k}", "op": "pullback_strong", "point": "scaling_minimal",
                "along": "triple", "base_group": "Z", "base_cone": "z_nat",
                "budget": {"conjugators": 2, "summands": 6, "window": [k, 2 * k, k]},
                # The pulled-back point is strong; an unknown is sound, a no is wrong.
                "expect": {"verdict": "yes"},
            }
            for k in SWEEP_KS
        ],
    }


def pullback_sweep(seed: int) -> list[Invocation]:
    return [Invocation("sweep", json.dumps(sweep_document()), CLI_BUDGET)]


def random_documents(seed: int) -> list[Invocation]:
    return [Invocation(label, text, CLI_BUDGET) for label, text in randomdocs.documents(seed)]


def sweep_window_sizes() -> dict[str, int]:
    """Window elements of the pulled-back carrier Q x| Z at each k."""
    Q, Z = ordsplit.RationalVector(1), ordsplit.FreeAbelian(1)
    out = {}
    for k in SWEEP_KS:
        w = Window(k, 2 * k, k)
        out[f"k{k}"] = len(Q.window_elements(w)) * len(Z.window_elements(w))
    return out


_DOCUMENT = ("document.parse_document", "document.execute_query", "document.render_report_json")

WORKLOADS = {
    "catalog": catalog,
    "pullback-sweep": pullback_sweep,
    "random-documents": random_documents,
}

# Span names each workload's query ops call directly; the traced run fails
# when one records no call, so that a missed patch cannot read as zero.
MUST_REACH = {
    "catalog": _DOCUMENT + (
        "extensions.compatible_exists", "extensions.enumerate_compatible_cones",
        "points.is_rali", "points.is_strong", "points.pullback", "points.stably_strong_over",
        "classifiers.monotone_aut", "classifiers.aut_cone", "classifiers.build_classifier",
        "classifiers.admissible_check", "classifiers.sclass_membership",
    ),
    "pullback-sweep": _DOCUMENT + ("points.pullback", "points.is_strong"),
    "random-documents": _DOCUMENT + (
        "cones.GeneratedCone.contains", "extensions.compatible_exists",
        "extensions.enumerate_compatible_cones", "points.is_rali", "points.is_strong",
    ),
}
