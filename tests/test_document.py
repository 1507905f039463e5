import hashlib
import json
import subprocess
import sys

import pytest

from ordsplit import document
from ordsplit.catalog import SCENARIO_COUNT, builtin_catalog, catalog_dict
from ordsplit.cli import main as cli_main
from ordsplit.document import (
    DocumentError,
    parse_document,
    render_report_json,
    render_report_text,
    run,
)
from ordsplit.groups import StructureError
from ordsplit.verdict import State, Verdict
from helpers import SMALL_BUDGET


def minimal_doc(extra_queries=None):
    return {
        "format": "ordsplit-1",
        "groups": {
            "Z": {"kind": "free_abelian", "rank": 1},
            "Q": {"kind": "rational_vector", "rank": 1},
        },
        "cones": {
            "nat": {"kind": "orthant", "group": "Z"},
            "full": {"kind": "full", "group": "Z"},
            "qnat": {"kind": "orthant", "group": "Q"},
        },
        "actions": {
            "sgn": {"kind": "sign", "acting": "Z", "acted": "Z"},
        },
        "queries": extra_queries or [
            {
                "id": "q1",
                "op": "compatible_exists",
                "x_group": "Z", "x_cone": "nat",
                "b_group": "Z", "b_cone": "full",
                "action": "sgn",
                "budget": {"conjugators": 2, "summands": 4, "window": [3, 6, 3]},
            }
        ],
    }


def test_parse_and_run_sign_document():
    doc = parse_document(minimal_doc())
    rep = run(doc, SMALL_BUDGET)
    assert rep["errors"] == 0
    q = rep["queries"][0]
    assert q["verdict"]["state"] == "no"
    assert "monotone" in q["verdict"]["note"]


def test_dangling_reference_diagnostic():
    bad = minimal_doc()
    bad["cones"]["broken"] = {"kind": "orthant", "group": "NOPE"}
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert "NOPE" in str(err.value)
    assert "cones.broken" in str(err.value)


def test_rational_literal_normalization():
    doc = minimal_doc([
        {"id": "q1", "op": "leq", "group": "Q", "cone": "qnat",
         "left": ["2/4"], "right": ["1/2"]},
    ])
    parsed = parse_document(doc)
    r = parsed.queries[0]["_resolved"]
    from fractions import Fraction

    assert r["left"] == Fraction(1, 2)
    assert r["right"] == Fraction(1, 2)
    rep = run(parsed, SMALL_BUDGET)
    assert rep["queries"][0]["verdict"]["state"] == "yes"


def test_bad_format_rejected():
    doc = minimal_doc()
    doc["format"] = "something-else"
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_malformed_element_literal():
    doc = minimal_doc([
        {"id": "q1", "op": "leq", "group": "Z", "cone": "nat",
         "left": ["banana"], "right": ["1"]},
    ])
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_duplicate_query_ids_rejected():
    q = {"id": "dup", "op": "leq", "group": "Z", "cone": "nat",
         "left": ["0"], "right": ["1"]}
    with pytest.raises(DocumentError):
        parse_document(minimal_doc([q, dict(q)]))


def test_unknown_op_rejected():
    with pytest.raises(DocumentError):
        parse_document(minimal_doc([{"id": "q", "op": "frobnicate"}]))


def test_catalog_has_enough_scenarios_and_passes():
    assert SCENARIO_COUNT >= 7
    doc = builtin_catalog()
    rep = run(doc)
    assert rep["errors"] == 0
    assert rep["mismatches"] == 0


def test_catalog_determinism():
    r1 = run(builtin_catalog())
    r2 = run(builtin_catalog())
    assert render_report_json(r1) == render_report_json(r2)


def test_catalog_budget_doubling_flips_no_definite_verdict():
    base = run(builtin_catalog())
    double = run(builtin_catalog(), doubled=True)
    for q1, q2 in zip(base["queries"], double["queries"]):
        s1 = q1.get("verdict", {}).get("state")
        s2 = q2.get("verdict", {}).get("state")
        if s1 in ("yes", "no"):
            assert s2 == s1, f"{q1['id']}: {s1} flipped to {s2}"


def test_report_renderings():
    rep = run(builtin_catalog())
    text = render_report_text(rep)
    assert "sign_incompatible" in text
    assert "expected-ok" in text
    js = render_report_json(rep)
    parsed = json.loads(js)
    assert parsed["format"] == "ordsplit-report-1"


def test_ops_filter_skips_other_queries():
    doc = builtin_catalog()
    rep = run(doc, ops={"lattice"})
    states = {q["id"]: q for q in rep["queries"]}
    assert states["lattice_window_2_2"].get("skipped") is None
    assert states["sign_incompatible"].get("skipped") is True


def test_query_errors_surface_per_query():
    doc = minimal_doc()
    doc["homs"] = {"neg": {"kind": "linear", "source": "Z", "target": "Z", "matrix": [["-1"]]}}
    doc["points"] = {
        "pt": {"x_group": "Z", "x_cone": "nat", "b_group": "Z", "b_cone": "nat",
               "action": "sgn_not_here", "cone": "product"},
    }
    # fix the action reference so parsing succeeds, then break execution:
    doc["points"]["pt"]["action"] = "triv"
    doc["actions"]["triv"] = {"kind": "trivial", "acting": "Z", "acted": "Z"}
    doc["queries"] = [
        {"id": "bad", "op": "pullback_strong", "point": "pt", "along": "neg",
         "base_group": "Z", "base_cone": "nat",
         "budget": {"conjugators": 2, "summands": 4, "window": [2, 4, 2]}},
    ]
    parsed = parse_document(doc)
    rep = run(parsed, SMALL_BUDGET)
    assert rep["errors"] == 1
    assert "monotone" in rep["queries"][0]["error"]


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ordsplit.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_cli_catalog_and_alias(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    r1 = _cli("catalog", "--report", "json", "--out", str(out1))
    r2 = _cli("paper", "--report", "json", "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_cli_validate_and_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()))
    r = _cli("validate", str(good))
    assert r.returncode == 0
    bad = tmp_path / "bad.json"
    doc = minimal_doc()
    doc["cones"]["broken"] = {"kind": "orthant", "group": "NOPE"}
    bad.write_text(json.dumps(doc))
    r = _cli("validate", str(bad))
    assert r.returncode == 2
    assert "NOPE" in r.stderr


def test_cli_check_subcommand(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(minimal_doc()))
    r = _cli("check", str(path), "--report", "json")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["queries"][0]["verdict"]["state"] == "no"


# --- the three compatibility ops no catalog scenario runs ------------------------


def ops_doc(queries):
    doc = minimal_doc(queries)
    doc["groups"]["Z2"] = {"kind": "free_abelian", "rank": 2}
    doc["cones"]["gen"] = {
        "kind": "generated", "group": "Z2", "generators": [["1", "0"], ["1", "1"]],
    }
    doc["actions"]["scale2"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "2"}
    doc["points"] = {
        # Q x| Z, n acting by 2^n, with the lexicographic cone.
        "scal_lex": {"x_group": "Q", "x_cone": "qnat", "b_group": "Z", "b_cone": "nat",
                     "action": "scale2", "cone": "lex"},
        # Z x| Z under the sign action with the componentwise cone N x Z.
        "sgn_prod": {"x_group": "Z", "x_cone": "nat", "b_group": "Z", "b_cone": "full",
                     "action": "sgn", "cone": "product"},
    }
    return parse_document(doc)


def _verdicts(doc):
    rep = run(doc, SMALL_BUDGET)
    assert rep["errors"] == 0
    return {e["id"]: e for e in rep["queries"]}


def test_is_compatible_op():
    got = _verdicts(ops_doc([
        {"id": "lex", "op": "is_compatible", "point": "scal_lex"},
        {"id": "lex_def", "op": "is_compatible", "point": "scal_lex", "mode": "definitional"},
        {"id": "sgn", "op": "is_compatible", "point": "sgn_prod"},
    ]))
    assert got["lex"]["verdict"] == {"state": "yes"} and got["lex"]["mode"] == "interval"
    assert got["lex_def"]["verdict"] == {"state": "yes"}
    assert got["lex_def"]["mode"] == "definitional"
    # (0, -3) + (1, -3) = (-1, -6): the sign of -3 flips the kernel part.
    assert got["sgn"]["verdict"] == {
        "state": "no", "witness": "((0, -3), (1, -3))", "note": "not closed under addition",
    }


def test_cone_contains_op():
    got = _verdicts(ops_doc([
        {"id": "member", "op": "cone_contains", "cone": "gen", "element": ["2", "1"]},
        {"id": "separated", "op": "cone_contains", "cone": "gen", "element": ["-1", "0"]},
        {"id": "negative", "op": "cone_contains", "cone": "nat", "element": ["-3"]},
    ]))
    assert got["member"]["verdict"]["state"] == "yes"
    assert got["separated"]["verdict"]["state"] == "no"
    assert got["separated"]["verdict"]["witness"] == "(-1, 0)"
    assert "separating functional" in got["separated"]["verdict"]["note"]
    assert got["negative"]["verdict"] == {"state": "no", "witness": "-3"}


def test_point_cone_contains_op():
    got = _verdicts(ops_doc([
        {"id": "over_positive", "op": "point_cone_contains", "point": "scal_lex",
         "element": [["-1"], ["1"]]},
        {"id": "negative_fibre", "op": "point_cone_contains", "point": "scal_lex",
         "element": [["-1/2"], ["0"]]},
    ]))
    assert got["over_positive"]["verdict"] == {"state": "yes"}
    assert got["negative_fibre"]["verdict"] == {"state": "no", "witness": "(-1/2, 0)"}


# --- every no that leaves the document layer carries a witness -------------------


def _catalog_entry(op):
    """The report and the first entry of the catalog's queries of one op."""
    rep = run(builtin_catalog(), ops={op})
    return rep, next(e for e in rep["queries"] if not e.get("skipped"))


def test_classify_into_undecided_part_is_unknown_not_no(monkeypatch):
    from ordsplit.classifiers import ClassifyReport
    from ordsplit.verdict import no, unknown, yes

    parts = [yes(), unknown("saturation budget exhausted"), yes()]
    monkeypatch.setattr(document, "classify_into",
                        lambda pt, cls, b: ClassifyReport(None, *parts))
    _, entry = _catalog_entry("classify_into")
    assert entry["verdict"] == {"state": "unknown", "note": "saturation budget exhausted"}
    assert entry["details"]["middle_monotone"] == "unknown"
    parts[2] = no((1, 0), "moved")
    _, entry = _catalog_entry("classify_into")
    assert entry["verdict"] == {"state": "no", "witness": "(1, 0)", "note": "moved"}


def test_lattice_undecided_family_is_unknown_and_a_no_names_the_family(monkeypatch):
    from ordsplit import extensions
    from ordsplit.verdict import no, unknown

    real = extensions.validate_family
    verdicts = {(0, 1, 2): unknown("family conditions hit undecided memberships")}

    def fake(fam, action, budget):
        v = verdicts.get(fam.sets.thresholds)
        if v is None:
            return real(fam, action, budget)
        return extensions.FamilyValidation(v, v)

    monkeypatch.setattr(extensions, "validate_family", fake)
    _, entry = _catalog_entry("lattice")
    assert entry["verdict"]["state"] == "unknown"
    assert entry["details"]["all_compatible"] is False
    verdicts[(0, 0, 2)] = no(3, "condition 3")
    _, entry = _catalog_entry("lattice")
    assert entry["verdict"] == {"state": "no", "witness": "((0,2), 3)"}


def test_no_classifier_witness_not_found_is_unknown(monkeypatch):
    monkeypatch.setattr(document, "no_classifier_witness", lambda X, b: None)
    _, entry = _catalog_entry("no_classifier_witness")
    assert entry["verdict"] == {"state": "unknown", "note": "no witness found in the window"}


def test_no_without_witness_becomes_an_error_entry(monkeypatch):
    monkeypatch.setattr(document, "is_rali", lambda pt, b: Verdict(State.NO))
    rep, entry = _catalog_entry("is_rali")
    assert "without a witness" in entry["error"]
    assert rep["errors"] == sum(1 for e in rep["queries"] if e["op"] == "is_rali")
    with pytest.raises(StructureError):
        document.verdict_json(Verdict(State.NO, None, "bare"))


# --- budgets are checked at the document boundary --------------------------------


@pytest.mark.parametrize("budget", [
    {"conjugators": 0},
    {"summands": -1},
    {"window": [0, 4, 2]},
    {"window": 5},
    {"conjugators": "many"},
    ["conjugators", 2],
])
def test_bad_query_budget_rejected_at_parse(budget):
    doc = minimal_doc()
    doc["queries"][0]["budget"] = budget
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "queries[0].budget"


def test_cli_bad_query_budget_exits_2(tmp_path):
    doc = minimal_doc()
    doc["queries"][0]["budget"] = {"conjugators": 0}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "check"):
        r = _cli(command, str(path))
        assert r.returncode == 2
        assert "queries[0].budget" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("flag", ["--budget-conj", "--budget-sum", "--window"])
@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_cli_rejects_non_positive_budget_flags(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["catalog", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err


# --- the op table and the report bytes --------------------------------------------


def test_cli_subcommand_runs_exactly_its_ops(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog_dict()))
    out = tmp_path / "report.json"
    assert cli_main(["classifier", str(path), "--report", "json", "--out", str(out)]) == 0
    ran = {e["op"] for e in json.loads(out.read_text())["queries"] if not e.get("skipped")}
    assert ran == {"admissible", "classifier_rali", "no_classifier_witness"}


@pytest.mark.parametrize("doubled, digest", [
    (False, "e148dd76fe9d253db92842f917862d425309b717ec919a175ae7884f26f6a439"),
    (True, "b5e4cc6322faca4ddb8466f71187568cba6167ba124845f95d5b46636e6e707e"),
])
def test_catalog_report_bytes_pinned(doubled, digest):
    text = render_report_json(run(builtin_catalog(), doubled=doubled))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
