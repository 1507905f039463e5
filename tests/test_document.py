import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
from ordsplit.verdict import SaturationBudget, State, Verdict, Window
from helpers import SMALL_BUDGET, count_window_items


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


def test_structurally_decided_catalog_queries_walk_few_window_elements(monkeypatch):
    # Deterministic cost pin: the window elements handed out while answering
    # each query, at the CLI default and the doubled budgets.  Condition 4
    # and the orbit remark of trivially acted families, and pair maps
    # between componentwise cones, no longer scan (before: 168/168, 21/39
    # and 189/1209).
    bounds = {
        "lattice_window_2_2": (112, 112),
        "family_doubling": (14, 26),
        "classify_rali_qz": (0, 0),
    }
    sizes = count_window_items(monkeypatch)
    queries = {q["id"]: q for q in builtin_catalog().queries}
    for qid, limits in bounds.items():
        for doubled, limit in zip((False, True), limits):
            del sizes[:]
            out = document.execute_query(queries[qid], SaturationBudget(), doubled)
            assert out["matched"], qid
            assert sum(sizes) <= limit, (qid, doubled, sizes)


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


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ordsplit.cli", *args],
        capture_output=True, text=True, timeout=600, env=_child_env(),
    )


def test_python_dash_m_ordsplit_runs_the_cli():
    r = subprocess.run([sys.executable, "-m", "ordsplit", "catalog"],
                       capture_output=True, text=True, timeout=600, env=_child_env())
    assert r.returncode == 0, r.stderr


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
        # No op reads a "mode" key, so it is ignored like any other.
        {"id": "lex_mode", "op": "is_compatible", "point": "scal_lex", "mode": "definitional"},
        {"id": "sgn", "op": "is_compatible", "point": "sgn_prod"},
    ]))
    assert got["lex"]["verdict"] == {"state": "yes"}
    assert {k: v for k, v in got["lex_mode"].items() if k != "id"} == {
        k: v for k, v in got["lex"].items() if k != "id"
    }
    assert "mode" not in got["lex"]
    # (0, -3) + (1, -3) = (-1, -6): the sign of -3 flips the kernel part.
    assert got["sgn"]["verdict"] == {
        "state": "no", "witness": "((0, -3), (1, -3))", "note": "not closed under addition",
    }


def test_every_field_resolver_is_read_by_an_op():
    read = {f for op in document.QUERY_OPS.values() for f in op.fields}
    assert read == set(document._FIELDS)


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

    def fake(fam, budget):
        v = verdicts.get(fam.sets.thresholds)
        if v is None:
            return real(fam, budget)
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
    {"conjugators": 2.5},
    {"summands": True},
    {"window": [2.5, 4, 2]},
    {"window": [3, 6]},
    {"window": None},
    {"window": [300000, 1, 1]},
    {"window": [1, 100000, 1]},
    {"windows": [3, 6, 3]},
    {"conjugator": 1},
])
def test_bad_query_budget_rejected_at_parse(budget):
    doc = minimal_doc()
    doc["queries"][0]["budget"] = budget
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert err.value.location == "queries[0].budget"


def test_unknown_budget_key_is_named():
    doc = minimal_doc()
    doc["queries"][0]["budget"] = {"windows": [300000, 1, 1], "conjugators": 2}
    with pytest.raises(DocumentError, match="unknown budget key 'windows'"):
        parse_document(doc)


def test_cli_bad_query_budget_exits_2(tmp_path):
    # A fractional window bound used to pass validate and crash the run.
    for budget in ({"conjugators": 0}, {"window": [2.5, 4, 2]}):
        doc = minimal_doc()
        doc["queries"][0]["budget"] = budget
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
    (False, "55177396310b229583853849490212c9b8befc70b45c5059e63d1b920a8cca66"),
    (True, "8e2be43f0f84d1a78376d1906e7c0232939fd9879c402c424e1e6544e7b940fa"),
])
def test_catalog_report_bytes_pinned(doubled, digest):
    text = render_report_json(run(builtin_catalog(), doubled=doubled))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _sweep_document(ks):
    """is_strong of the scaling point Q x| Z (n acting by 2^n, least cone)
    pulled back along n -> 3n, one query per window k."""
    return {
        "format": document.FORMAT,
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
                "expect": {"verdict": "yes"},
            }
            for k in ks
        ],
    }


def test_sweep_report_bytes_pinned():
    doc = parse_document(json.dumps(_sweep_document(range(3, 6))))
    text = render_report_json(run(doc, SaturationBudget(2, 6, Window(8, 16, 8))))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "3585f207c846220a301133864aa19ad581c5233a651701172e07d345d0936cc7"
    )


# --- malformed documents exit 2 with a location, never a traceback ----------------


def _validate_exit(tmp_path, capsys, doc, command="validate"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli_main([command, str(path)])
    return code, capsys.readouterr().err


SHAPE_SPEC = {"x_group": "Z", "x_cone": "nat", "b_group": "Z", "b_cone": "nat"}


@pytest.mark.parametrize("section, location", [("queries", "queries[0]"), ("points", "points.p")])
def test_cli_rejects_action_between_other_groups(tmp_path, capsys, section, location):
    doc = minimal_doc()
    # Q acting on Z, declared over a Z base.
    doc["actions"]["tq"] = {"kind": "trivial", "acting": "Q", "acted": "Z"}
    spec = dict(SHAPE_SPEC, action="tq")
    if section == "queries":
        doc["queries"] = [dict(spec, op="compatible_exists")]
    else:
        doc["points"] = {"p": spec}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"{location}: action does not match the kernel/base groups" in err


@pytest.mark.parametrize("section, location", [("queries", "queries[0]"), ("points", "points.p")])
def test_cli_rejects_a_cone_on_another_group(tmp_path, capsys, section, location):
    # The document is the one place where a group name meets a cone name.
    doc = minimal_doc()
    if section == "queries":
        doc["queries"] = [{"op": "leq", "group": "Z", "cone": "qnat", "left": 0, "right": 1}]
    else:
        doc["points"] = {"p": dict(SHAPE_SPEC, x_cone="qnat", action="sgn")}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"{location}: cone 'qnat' lives on Q, not Z" in err


@pytest.mark.parametrize("command", ["validate", "lattice"])
def test_cli_rejects_non_object_scope(tmp_path, capsys, command):
    doc = minimal_doc([dict(SHAPE_SPEC, op="lattice", action="sgn", scope=["exhaustive"])])
    code, err = _validate_exit(tmp_path, capsys, doc, command)
    assert code == 2
    assert "queries[0]: scope must be an object" in err


def _bad_numbers():
    def rank(doc):
        doc["groups"]["Z"]["rank"] = "two"

    def cayley_cell(doc):
        doc["groups"]["C2"] = {"kind": "finite_cayley", "table": [["0", "x"], ["1", "0"]]}

    def matrix_entry(doc):
        doc["homs"] = {"m": {"kind": "linear", "source": "Z", "target": "Z", "matrix": [["x"]]}}

    def ratio(doc):
        doc["actions"]["sc"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "1/0"}

    def threshold(doc):
        doc["queries"] = [dict(SHAPE_SPEC, op="validate_family", action="sgn",
                               thresholds=[0, "x"])]

    def fractional_rank(doc):
        doc["groups"]["Z"]["rank"] = 1.5

    # A JSON 0.1 is the binary float 3602879701896397/2**55, not 1/10.
    def float_ratio(doc):
        doc["actions"]["sc"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": 0.1}

    def float_matrix_entry(doc):
        doc["homs"] = {"m": {"kind": "linear", "source": "Q", "target": "Q", "matrix": [[0.1]]}}

    def infinite_ratio(doc):
        doc["actions"]["sc"] = {"kind": "scaling", "acting": "Z", "acted": "Q",
                                "ratio": float("inf")}

    cases = [
        (rank, "groups.Z.rank: expected an integer, got 'two'"),
        (fractional_rank, "groups.Z.rank: expected an integer, got 1.5"),
        (float_ratio, "actions.sc.ratio: expected a number, got 0.1"),
        (float_matrix_entry, "homs.m.matrix[0][0]: expected a number, got 0.1"),
        (infinite_ratio, "actions.sc.ratio: expected a number, got inf"),
        (cayley_cell, "groups.C2.table[0][1]: expected an integer, got 'x'"),
        (matrix_entry, "homs.m.matrix[0][0]: expected a number, got 'x'"),
        (ratio, "actions.sc.ratio: expected a number, got '1/0'"),
        (threshold, "queries[0]: expected an integer, got 'x'"),
    ]
    return [pytest.param(mutate, message, id=mutate.__name__) for mutate, message in cases]


@pytest.mark.parametrize("mutate, message", _bad_numbers())
def test_cli_rejects_malformed_numbers(tmp_path, capsys, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert message in err


def test_cli_rejects_section_that_is_not_an_object(tmp_path, capsys):
    doc = minimal_doc()
    doc["groups"] = []
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "groups: expected an object" in err


def test_cli_rejects_non_additive_table_hom(tmp_path, capsys):
    # Precomposing the sign action with this table made compatible_exists
    # answer yes on data that is not an action.
    doc = minimal_doc()
    doc["groups"]["Z2"] = {"kind": "finite_cyclic", "n": 2}
    doc["cones"]["z2_full"] = {"kind": "full", "group": "Z2"}
    doc["cones"]["triv"] = {"kind": "trivial", "group": "Z"}
    doc["homs"] = {"bad": {"kind": "finite_table", "source": "Z2", "target": "Z",
                           "map": [[["r0"], ["1"]], [["r1"], ["0"]]]}}
    doc["actions"]["twist"] = {"kind": "precomposed", "base": "sgn", "along": "bad"}
    doc["queries"] = [{"op": "compatible_exists", "x_group": "Z", "x_cone": "triv",
                       "b_group": "Z2", "b_cone": "z2_full", "action": "twist"}]
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "homs.bad: not a homomorphism: h(0) != 0 at 0" in err
    # h(0) = 0 but h(r2 + r1) != h(r2) + h(r1): the first (element, generator) pair.
    doc["groups"]["Z3"] = {"kind": "finite_cyclic", "n": 3}
    doc["homs"]["bad"] = {"kind": "finite_table", "source": "Z3", "target": "Z",
                          "map": [[["r0"], ["0"]], [["r1"], ["1"]], [["r2"], ["2"]]]}
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert exc.value.location == "homs.bad"
    assert exc.value.message == "not a homomorphism: additivity fails at (2, 1)"


def test_parse_checks_a_table_map_on_generators(monkeypatch):
    # h(a + g) = h(a) + h(g) for each a and generator g: linear, not |Z_n|^2.
    from ordsplit.homs import TableHom

    n = 200
    doc = minimal_doc()
    doc["groups"]["Zn"] = {"kind": "finite_cyclic", "n": n}
    doc["homs"] = {"id": {"kind": "finite_table", "source": "Zn", "target": "Zn",
                          "map": [[[f"r{i}"], [f"r{i}"]] for i in range(n)]}}
    calls = []
    real = TableHom._apply

    def counting(self, el):
        calls.append(el)
        return real(self, el)

    monkeypatch.setattr(TableHom, "_apply", counting)
    parse_document(doc)
    assert 0 < len(calls) <= 4 * n


# --- malformed shapes of names, ids and list fields ---------------------------------


def _bad_shapes():
    def unhashable_name(doc):
        doc["cones"]["nat"]["group"] = ["Z"]

    def query_id(doc):
        doc["queries"][0]["id"] = ["q1"]

    def query_op(doc):
        doc["queries"][0]["op"] = {"name": "compatible_exists"}

    def cayley_table(doc):
        doc["groups"]["C2"] = {"kind": "finite_cayley", "table": 5}

    def cayley_row(doc):
        doc["groups"]["C2"] = {"kind": "finite_cayley", "table": [["0", "1"], 5]}

    def factors(doc):
        doc["groups"]["ZZ"] = {"kind": "direct_product", "factors": 5}

    def elements(doc):
        doc["cones"]["e"] = {"kind": "extensional", "group": "Z", "elements": 5}

    def generators(doc):
        doc["cones"]["g"] = {"kind": "generated", "group": "Z", "generators": 5}

    def matrix(doc):
        doc["homs"] = {"m": {"kind": "linear", "source": "Z", "target": "Z", "matrix": [5]}}

    def hom_images(doc):
        doc["homs"] = {"m": {"kind": "generator_images", "source": "Z", "target": "Z",
                             "images": 5}}

    def action_images(doc):
        doc["actions"]["m"] = {"kind": "matrix", "acting": "Z", "acted": "Z", "images": [5]}

    def table_map(doc):
        doc["groups"]["Z2"] = {"kind": "finite_cyclic", "n": 2}
        doc["homs"] = {"t": {"kind": "finite_table", "source": "Z2", "target": "Z2", "map": 5}}

    def thresholds(doc):
        doc["queries"] = [dict(SHAPE_SPEC, op="validate_family", action="sgn", thresholds=5)]

    def table_action_entry(doc):
        doc["groups"]["Z2"] = {"kind": "finite_cyclic", "n": 2}
        doc["actions"]["t"] = {"kind": "finite_table", "acting": "Z2", "acted": "Z2",
                               "images": [[["r0"]]]}

    def table_action_pair(doc):
        doc["groups"]["Z2"] = {"kind": "finite_cyclic", "n": 2}
        doc["actions"]["t"] = {"kind": "finite_table", "acting": "Z2", "acted": "Z2",
                               "images": [[["r0"], [[["r0"]]]]]}

    cases = [
        (unhashable_name, "cones.nat: group names are strings, got ['Z']"),
        (query_id, "queries[0].id: query ids are strings, got ['q1']"),
        (query_op, "queries[0]: unknown op {'name': 'compatible_exists'}"),
        (cayley_table, "groups.C2.table: expected a list, got 5"),
        (cayley_row, "groups.C2.table[1]: expected a list, got 5"),
        (factors, "groups.ZZ.factors: expected a list, got 5"),
        (elements, "cones.e.elements: expected a list, got 5"),
        (generators, "cones.g.generators: expected a list, got 5"),
        (matrix, "homs.m.matrix[0]: expected a list, got 5"),
        (hom_images, "homs.m.images: expected a list, got 5"),
        (action_images, "actions.m.images[0]: expected a list, got 5"),
        (table_map, "homs.t.map: expected a list, got 5"),
        (thresholds, "queries[0].thresholds: expected a list, got 5"),
        (table_action_entry, "actions.t.images[0]: expected a 2-element list"),
        (table_action_pair, "actions.t.images[0][1][0]: expected a 2-element list"),
    ]
    return [pytest.param(mutate, message, id=mutate.__name__) for mutate, message in cases]


@pytest.mark.parametrize("mutate, message", _bad_shapes())
def test_cli_rejects_malformed_shapes(tmp_path, capsys, mutate, message):
    doc = minimal_doc()
    mutate(doc)
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert message in err and "Traceback" not in err


# --- the window cap -----------------------------------------------------------------


def _rank3_minimal_doc():
    doc = minimal_doc([])
    doc["groups"]["Q3"] = {"kind": "rational_vector", "rank": 3}
    units = [[str(s * (i == j)) for j in range(3)] for i in range(3) for s in (1, -1)]
    doc["cones"]["q3_all"] = {"kind": "generated", "group": "Q3", "generators": units}
    doc["actions"]["sgn3"] = {"kind": "sign", "acting": "Z", "acted": "Q3"}
    doc["points"] = {"p": {"x_group": "Q3", "x_cone": "q3_all", "b_group": "Z",
                           "b_cone": "full", "action": "sgn3", "cone": "minimal"}}
    return doc


def test_cli_rejects_window_over_the_cap_at_parse_time(tmp_path, capsys):
    # Deciding the minimal point scans Q^3 to check that the unit 1 of the
    # full base acts (by -I) pointwise equivalently to the identity under a
    # generated kernel cone, and Q^3's default window has 167^3 = 4,657,463
    # elements.
    started = time.monotonic()
    code, err = _validate_exit(tmp_path, capsys, _rank3_minimal_doc())
    assert time.monotonic() - started < 1
    assert code == 2
    assert "points.p: window of Q^3 needs 4657463 elements, over the cap of 200000" in err


def test_cli_wide_window_on_q_is_a_query_error(tmp_path, capsys):
    doc = minimal_doc([{"id": "rali", "op": "is_rali", "point": "p"}])
    doc["actions"]["s"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "2"}
    doc["points"] = {"p": {"x_group": "Q", "x_cone": "qnat", "b_group": "Z", "b_cone": "nat",
                           "action": "s", "cone": "minimal"}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = cli_main(["classify", str(path), "--window", "1000", "--report", "json",
                     "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())["queries"][0]
    assert entry["error"] == "window of Q needs 4001000 elements, over the cap of 200000"


# --- matrix actions through a document ----------------------------------------------


@pytest.mark.parametrize("matrix, verdict", [
    ([["1", "1"], ["0", "1"]],
     {"state": "no", "witness": "(-1, (0, 1))", "note": "phi_-1 is not monotone"}),
    ([["0", "1"], ["1", "0"]],
     {"state": "yes", "witness": "lex", "note": "lexicographic cone is compatible"}),
])
def test_matrix_action_compatible_exists(matrix, verdict):
    doc = minimal_doc([{"op": "compatible_exists", "x_group": "Z2", "x_cone": "nat2",
                        "b_group": "Z", "b_cone": "nat", "action": "m"}])
    doc["groups"]["Z2"] = {"kind": "free_abelian", "rank": 2}
    doc["cones"]["nat2"] = {"kind": "orthant", "group": "Z2"}
    doc["actions"]["m"] = {"kind": "matrix", "acting": "Z", "acted": "Z2", "images": [matrix]}
    rep = run(parse_document(doc))
    assert rep["errors"] == 0
    assert rep["queries"][0]["verdict"] == verdict


# --- every single-value mutation of the catalog parses or fails cleanly --------------


MUTANT_VALUES = (5, "x", [], {}, None, -1, [5])


def _value_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


def test_catalog_mutants_parse_or_raise_document_error():
    base = catalog_dict()
    paths = list(_value_paths(base))
    assert len(paths) == 462
    for path in paths:
        for value in MUTANT_VALUES:
            doc = copy.deepcopy(base)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = copy.deepcopy(value)
            try:
                parse_document(doc)
            except DocumentError:
                pass
            except Exception as exc:  # pragma: no cover - the failure report
                pytest.fail(f"{path} = {value!r}: {type(exc).__name__}: {exc}")


# --- a finite carrier needs closed kernel and base cones ---------------------------


def _unclosed_finite_base_doc(**extra):
    """Z2 over Z4, trivially acted, with the base set {r0, r1, r2}: r1 + r2 = r3."""
    doc = minimal_doc()
    doc["groups"].update(Z2={"kind": "finite_cyclic", "n": 2}, Z4={"kind": "finite_cyclic", "n": 4})
    doc["cones"].update(
        px={"kind": "trivial", "group": "Z2"},
        pb={"kind": "extensional", "group": "Z4", "elements": [["r0"], ["r1"], ["r2"]]},
    )
    doc["actions"]["t4"] = {"kind": "trivial", "acting": "Z4", "acted": "Z2"}
    doc.update(extra)
    return doc


FINITE_SHAPE = {"x_group": "Z2", "x_cone": "px", "b_group": "Z4", "b_cone": "pb", "action": "t4"}
UNCLOSED_BASE = "the base cone set(3) of a finite carrier is not closed"


def test_lattice_over_an_unclosed_finite_base_cone_is_a_query_error(tmp_path, capsys):
    doc = _unclosed_finite_base_doc(
        queries=[dict(FINITE_SHAPE, op="lattice", scope={"kind": "exhaustive"})]
    )
    (entry,) = run(parse_document(doc))["queries"]
    assert entry["error"] == UNCLOSED_BASE
    code, err = _validate_exit(tmp_path, capsys, doc, "lattice")
    assert code == 1 and "Traceback" not in err


def test_minimal_point_over_an_unclosed_finite_base_cone_exits_2(tmp_path, capsys):
    doc = _unclosed_finite_base_doc(points={"p": dict(FINITE_SHAPE, cone="minimal")})
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"points.p: {UNCLOSED_BASE}" in err


# --- expect and the superadditive scope are checked at parse time ------------------


LATTICE_QUERY = dict(SHAPE_SPEC, op="lattice", action="sgn",
                     scope={"kind": "superadditive", "length": 2, "max_value": 2})


@pytest.mark.parametrize("change, location, message", [
    ({"expect": 5}, "queries[0].expect", "expected an object, got 5"),
    ({"expect": {"details": [1]}}, "queries[0].expect.details", "expected an object, got [1]"),
    ({"scope": {"kind": "superadditive", "length": 0, "max_value": 2}}, "queries[0]", "length >= 1"),
    ({"scope": {"kind": "superadditive", "length": -1, "max_value": 2}}, "queries[0]", "length >= 1"),
    ({"scope": {"kind": "superadditive", "length": 2, "max_value": -1}}, "queries[0]", "max_value >= 0"),
    ({"scope": {"kind": "superadditive", "length": 14, "max_value": 2}}, "queries[0]",
     "window of superadditive(14,2) needs 268435456 elements, over the cap of 200000"),
    ({"scope": {"kind": "superadditive", "length": 10**9, "max_value": 2}}, "queries[0]",
     "needs inf elements"),
])
def test_expect_and_superadditive_scope_rejected_at_parse(change, location, message):
    started = time.monotonic()
    with pytest.raises(DocumentError) as err:
        parse_document(minimal_doc([dict(LATTICE_QUERY, **change)]))
    assert time.monotonic() - started < 1
    assert err.value.location == location
    assert message in err.value.message


def test_cli_rejects_non_object_expect_without_a_traceback(tmp_path, capsys):
    doc = minimal_doc()
    doc["queries"][0]["expect"] = 5
    for command in ("validate", "check"):
        code, err = _validate_exit(tmp_path, capsys, doc, command)
        assert code == 2
        assert "queries[0].expect: expected an object, got 5" in err and "Traceback" not in err


# --- every single-value mutation of a catalog query that parses also runs ------------


def test_catalog_query_mutants_that_parse_run_without_raising():
    # Each query alone, so a mutant exercises only its own op.  A query that
    # raises inside run (not a per-query error entry) would crash the CLI.
    base = catalog_dict()
    budget = SaturationBudget(1, 2, Window(2, 4, 2))
    ran = 0
    for query in base["queries"]:
        for path in _value_paths(query):
            for value in MUTANT_VALUES:
                doc = copy.deepcopy(base)
                doc["queries"] = [copy.deepcopy(query)]
                node = doc["queries"][0]
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = copy.deepcopy(value)
                try:
                    parsed = parse_document(doc)
                except DocumentError:
                    continue
                try:
                    report = run(parsed, budget)
                except Exception as exc:  # pragma: no cover - the failure report
                    pytest.fail(f"{query['id']} {path} = {value!r}: {type(exc).__name__}: {exc}")
                assert len(report["queries"]) == 1
                ran += 1
    assert ran == 313


def test_cli_integer_literal_over_the_digit_limit_exits_2(tmp_path):
    # Python refuses to convert integers of more than 4300 digits.
    path = tmp_path / "doc.json"
    text = json.dumps(minimal_doc())
    assert '"rank": 1}' in text
    path.write_text(text.replace('"rank": 1}', '"rank": 1' + "0" * 5000 + "}", 1))
    r = _cli("validate", str(path))
    assert r.returncode == 2
    assert "invalid: document:" in r.stderr and "Traceback" not in r.stderr


def test_generated_cones_on_rational_and_product_carriers():
    # Q reaches _within_cap's Fraction branch; Z x Z reaches _flatten's
    # DirectProduct branch.
    doc = minimal_doc([
        {"id": "q_sum", "op": "cone_contains", "cone": "halves", "element": ["5/6"]},
        {"id": "q_neg", "op": "cone_contains", "cone": "halves", "element": ["-1"]},
        {"id": "zz_in", "op": "cone_contains", "cone": "diag", "element": [["3"], ["1"]]},
        {"id": "zz_out", "op": "cone_contains", "cone": "diag", "element": [["0"], ["1"]]},
    ])
    doc["groups"]["ZZ"] = {"kind": "direct_product", "factors": ["Z", "Z"]}
    doc["cones"]["halves"] = {"kind": "generated", "group": "Q", "generators": [["1/2"], ["1/3"]]}
    doc["cones"]["diag"] = {
        "kind": "generated", "group": "ZZ", "generators": [[["1"], ["0"]], [["1"], ["1"]]],
    }
    got = {k: v["verdict"] for k, v in _verdicts(parse_document(doc)).items()}
    for key in ("q_sum", "zz_in"):
        assert got[key]["state"] == "yes" and got[key]["note"] == "saturation"
    assert got["q_neg"] == {
        "state": "no", "witness": "-1", "note": "separating functional (1)",
    }
    assert got["zz_out"] == {
        "state": "no", "witness": "(0, 1)", "note": "separating functional (1, -1)",
    }


def test_compatible_exists_does_not_decide_a_rational_factor_on_generators():
    # The lattice Z^2 is a cone on Q x Z.  Both generators are ~ their
    # negatives, but x = (1/4, 0) is not (2x is outside Z^2), so the sign
    # action has no compatible order: generators do not decide Q x Z, and
    # the window finds such an x ((-5/3, -3) here), as the cone excludes
    # points outside the lattice exactly.
    doc = minimal_doc([{"id": "qz", "op": "compatible_exists", "x_group": "QZ",
                        "x_cone": "lattice", "b_group": "Z", "b_cone": "full",
                        "action": "sgn_qz"}])
    doc["groups"]["QZ"] = {"kind": "direct_product", "factors": ["Q", "Z"]}
    doc["cones"]["lattice"] = {"kind": "generated", "group": "QZ", "generators": [
        [["1"], ["0"]], [["-1"], ["0"]], [["0"], ["1"]], [["0"], ["-1"]],
    ]}
    doc["actions"]["sgn_qz"] = {"kind": "sign", "acting": "Z", "acted": "QZ"}
    got = _verdicts(parse_document(doc))["qz"]["verdict"]
    assert got == {"state": "no", "witness": "(1, (-5/3, -3))",
                   "note": "unit 1 acts without being pointwise equivalent to id"}


def test_cli_rejects_a_nonzero_linear_map_from_rationals_into_integers(tmp_path, capsys):
    doc = minimal_doc()
    doc["homs"] = {"m": {"kind": "linear", "source": "Q", "target": "Z", "matrix": [["2"]]}}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "homs.m: no nonzero map from Q into Z" in err
    doc["homs"]["m"]["matrix"] = [["0"]]
    assert _validate_exit(tmp_path, capsys, doc)[0] == 0


def _table_action(phi0, phi1):
    """Z_2 acting on Z_n, n = len(phi0): r0 maps x to phi0[x] and r1 to phi1[x]."""
    return {
        "kind": "finite_table", "acting": "Z2", "acted": "Zn",
        "images": [
            [[f"r{b}"], [[[f"r{x}"], [f"r{y}"]] for x, y in enumerate(phi)]]
            for b, phi in enumerate((phi0, phi1))
        ],
    }


@pytest.mark.parametrize("action", [
    pytest.param(_table_action([0, 1, 2], [1, 0, 2]), id="not_additive"),
    pytest.param(_table_action([0, 1, 2, 3, 4], [0, 2, 4, 1, 3]), id="composition"),
    pytest.param(_table_action([0, 2, 1], [0, 1, 2]), id="zero_not_identity"),
    pytest.param(_table_action([0, 1, 2], [0, 0, 0]), id="not_bijective"),
])
def test_cli_rejects_finite_table_action_law_failures(tmp_path, capsys, action):
    doc = minimal_doc()
    doc["groups"]["Z2"] = {"kind": "finite_cyclic", "n": 2}
    doc["groups"]["Zn"] = {"kind": "finite_cyclic", "n": len(action["images"][0][1])}
    doc["actions"]["bad"] = action
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "invalid: actions.bad:" in err and "Traceback" not in err


_Q_KERNEL = {"x_group": "Q", "x_cone": "qnat", "action": "sgn_q"}
_Q_BASE = {"b_group": "Q", "b_cone": "qnat", "action": "triv_q"}


@pytest.mark.parametrize("thresholds, message", [
    (["1", "2"], "threshold sequence must start with x_0 = 0"),
    (["0", "-3"], "thresholds live in N plus infinity"),
    (dict(_Q_KERNEL, thresholds=["0", "1"]), "threshold fibres need kernel Z and base Z"),
    (dict(_Q_BASE, thresholds=["0", "1"]), "threshold fibres need kernel Z and base Z"),
])
def test_cli_rejects_bad_family_thresholds_at_parse(tmp_path, capsys, thresholds, message):
    # A list is the thresholds over the (Z, N) base on (Z, N); a dict also
    # overrides the shape.
    fields = thresholds if isinstance(thresholds, dict) else {"thresholds": thresholds}
    spec = {**SHAPE_SPEC, "action": "sgn", **fields}
    doc = minimal_doc([dict(spec, op="validate_family")])
    doc["actions"]["sgn_q"] = {"kind": "sign", "acting": "Z", "acted": "Q"}
    doc["actions"]["triv_q"] = {"kind": "trivial", "acting": "Q", "acted": "Z"}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"queries[0]: {message}" in err
    assert "Traceback" not in err
    family = {"kind": "family", "thresholds": spec.pop("thresholds")}
    doc["queries"] = []
    doc["points"] = {"p": dict(spec, cone=family)}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"points.p: {message}" in err


def test_cli_rejects_a_residue_outside_its_modulus(tmp_path, capsys):
    # A literal is built exact and checked once: r3 is no residue mod 3.
    doc = minimal_doc([{"op": "cone_contains", "cone": "z3", "element": ["r3"]}])
    doc["groups"]["Z3"] = {"kind": "finite_cyclic", "n": 3}
    doc["cones"]["z3"] = {"kind": "full", "group": "Z3"}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "queries[0]: malformed element literal ['r3']: expected residue mod 3, got 3" in err
    assert "Traceback" not in err


def test_cli_rejects_rational_literals_with_an_exponent(tmp_path, capsys):
    doc = minimal_doc([{"op": "cone_contains", "cone": "qnat", "element": ["-1e5000"]}])
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "queries[0]: malformed element literal ['-1e5000']" in err
    assert "Traceback" not in err
    doc["actions"]["sc"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "1e9999999"}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "actions.sc.ratio: expected a number, got '1e9999999'" in err
    for lit in ("1/3", "-2", "0.5"):
        doc = minimal_doc([{"op": "cone_contains", "cone": "qnat", "element": [lit]}])
        assert _validate_exit(tmp_path, capsys, doc)[0] == 0


def test_cli_accepts_exact_floats(tmp_path, capsys):
    doc = minimal_doc()
    doc["actions"]["sc"] = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": 0.5}
    doc["homs"] = {"m": {"kind": "linear", "source": "Q", "target": "Q", "matrix": [[-0.25]]}}
    doc["groups"]["Z2"] = {"kind": "free_abelian", "rank": 2.0}
    assert _validate_exit(tmp_path, capsys, doc)[0] == 0
    parsed = parse_document(doc)
    assert parsed.actions["sc"].images == (((Fraction(1, 2),),),)
    assert parsed.homs["m"].matrix == ((Fraction(-1, 4),),)
    assert parsed.groups["Z2"].rank == 2


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"acting": "Z2"}, "scaling action needs acting group Z"),
        ({"acted": "Z"}, "scaling action needs acted group Q^k"),
        ({"ratio": "0"}, "scaling ratio must be positive"),
        ({"ratio": "-1"}, "scaling ratio must be positive"),
    ],
    ids=["acting-Z2", "acted-Z", "ratio-0", "ratio-minus-1"],
)
def test_cli_rejects_bad_scaling_actions(tmp_path, capsys, fields, message):
    doc = minimal_doc()
    doc["groups"]["Z2"] = {"kind": "free_abelian", "rank": 2}
    spec = {"kind": "scaling", "acting": "Z", "acted": "Q", "ratio": "2"}
    doc["actions"]["sc"] = {**spec, **fields}
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert f"actions.sc: {message}" in err
    assert "Traceback" not in err


def _finite_carriers_over_the_cap():
    def cyclic(doc):
        doc["groups"]["Zbig"] = {"kind": "finite_cyclic", "n": 300000}

    def product(doc):
        doc["groups"]["Z500"] = {"kind": "finite_cyclic", "n": 500}
        doc["groups"]["Zbig"] = {"kind": "direct_product", "factors": ["Z500", "Z500"]}

    def semidirect(doc):
        doc["groups"]["X"] = {"kind": "finite_cyclic", "n": 1000}
        doc["groups"]["B"] = {"kind": "finite_cyclic", "n": 300}
        doc["cones"]["xt"] = {"kind": "trivial", "group": "X"}
        doc["cones"]["bt"] = {"kind": "trivial", "group": "B"}
        doc["actions"]["tr"] = {"kind": "trivial", "acting": "B", "acted": "X"}
        doc["queries"] = [{"op": "lattice", "x_group": "X", "x_cone": "xt", "b_group": "B",
                           "b_cone": "bt", "action": "tr", "scope": {"kind": "exhaustive"}}]

    return [
        pytest.param(cyclic, "groups.Zbig", id="cyclic"),
        pytest.param(product, "groups.Zbig", id="product"),
        pytest.param(semidirect, "queries[0]", id="semidirect"),
    ]


@pytest.mark.parametrize("mutate, location", _finite_carriers_over_the_cap())
def test_cli_rejects_finite_carriers_over_the_window_cap(tmp_path, capsys, mutate, location):
    doc = minimal_doc()
    mutate(doc)
    code, err = _validate_exit(tmp_path, capsys, doc, "lattice")
    assert code == 2
    assert f"invalid: {location}: window of" in err and "over the cap" in err


def test_cli_rejects_mismatched_pullback_and_pair_maps_at_parse(tmp_path, capsys):
    doc = minimal_doc()
    doc["homs"] = {"id_q": {"kind": "identity", "source": "Q", "target": "Q"}}
    doc["cones"]["triv"] = {"kind": "trivial", "group": "Z"}
    doc["points"] = {
        "p": dict(SHAPE_SPEC, action="sgn", cone="product"),
        "m": {"x_group": "Z", "x_cone": "triv", "b_group": "Z", "b_cone": "nat",
              "action": "sgn", "cone": "minimal"},
    }
    doc["queries"] = [{"op": "pullback_strong", "point": "p", "along": "id_q",
                       "base_group": "Q", "base_cone": "qnat"}]
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "queries[0]: pullback map must go from the new base into the old one" in err
    doc["queries"] = [{"op": "ssfl", "src": "m", "dst": "p", "a": "id_q", "c": "id_q"}]
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "queries[0]: pair map parts do not match the carriers" in err


def test_cli_rejects_ssfl_maps_that_do_not_intertwine_the_actions(tmp_path, capsys):
    # id x id from Z x|_trivial Z to Z x|_sign Z is not additive: phi_1(1) = 1 but
    # phi'_1(1) = -1.  The query used to answer yes.
    doc = minimal_doc()
    doc["homs"] = {"id": {"kind": "identity", "source": "Z", "target": "Z"}}
    doc["cones"]["triv"] = {"kind": "trivial", "group": "Z"}
    doc["actions"]["tr"] = {"kind": "trivial", "acting": "Z", "acted": "Z"}
    row = {"x_group": "Z", "x_cone": "triv", "b_group": "Z", "b_cone": "nat", "cone": "product"}
    doc["points"] = {"s": dict(row, action="tr"), "d": dict(row, action="sgn")}
    doc["queries"] = [{"op": "ssfl", "src": "s", "dst": "d", "a": "id", "c": "id"}]
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 2
    assert "queries[0]: a and c do not intertwine the actions at (b, x) = (1, 1)" in err
    doc["queries"][0]["dst"] = "s"
    code, err = _validate_exit(tmp_path, capsys, doc)
    assert code == 0
