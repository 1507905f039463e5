"""Declarative problem documents and deterministic reports.

A document is JSON with a versioned format tag: named groups, cones, actions,
homomorphisms, and points, plus a list of queries executed in order.  Element
literals are arrays of strings ("3", "-1/2", "r4" for residue four), nested
for composite carriers.  Reports are JSON (machine) or aligned text (human)
and are byte-stable for a fixed document and budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

from .actions import (
    Action,
    FiniteTableAction,
    MatrixAction,
    PrecomposedAction,
    SignAction,
    TrivialAction,
)
from .classifiers import (
    aut_cone,
    admissible_check,
    build_classifier,
    classify_into,
    monotone_aut,
    no_classifier_witness,
    sclass_membership,
)
from .cones import (
    Cone,
    ExtensionalCone,
    FullCone,
    OrthantCone,
    TrivialCone,
    generated_cone,
)
from .extensions import (
    ExtensionShape,
    SplitExtension,
    SuperadditiveWindow,
    ExhaustiveFinite,
    FamilyCone,
    UpSetFibers,
    compatible_exists,
    enumerate_compatible_cones,
    is_compatible,
    point,
    validate_family,
    INF,
)
from .groups import (
    CayleyGroup,
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    StructureError,
    format_element,
)
from .homs import (
    FreeImagesHom,
    Homomorphism,
    IdentityHom,
    LinearHom,
    PairHom,
    TableHom,
    check_homomorphism,
)
from .points import (
    PointMorphism,
    default_base_catalog,
    equivariance_failure,
    is_rali,
    is_strong,
    pullback,
    ssfl_check,
    stably_strong_over,
)
from .verdict import (
    SaturationBudget,
    State,
    Verdict,
    Window,
    check_window_size,
    unknown,
    vand,
)

FORMAT = "ordsplit-1"
REPORT_FORMAT = "ordsplit-report-1"


class DocumentError(ValueError):
    """Parse or validation failure, with a dotted location path."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


@dataclass
class ProblemDocument:
    groups: dict[str, Group]
    cones: dict[str, Cone]
    actions: dict[str, Action]
    homs: dict[str, Homomorphism]
    points: dict[str, SplitExtension]
    queries: list[dict]


# --- element literals ----------------------------------------------------------


def parse_element(G: Group, lit, where: str):
    try:
        el = _element_value(G, lit, where)
        G.check(el)
        return el
    except (StructureError, ValueError) as exc:
        raise DocumentError(where, f"malformed element literal {lit!r}: {exc}") from exc


def _element_value(G: Group, lit, where: str):
    if isinstance(G, (FreeAbelian, RationalVector)):
        if not (isinstance(lit, list) and len(lit) == G.rank):
            raise DocumentError(where, f"expected {G.rank} coordinate strings")
        return G.from_coords([_scalar(G, s, where) for s in lit])
    if isinstance(G, (CyclicGroup, CayleyGroup)):
        if not (isinstance(lit, list) and len(lit) == 1 and isinstance(lit[0], str)):
            raise DocumentError(where, 'expected ["rN"] residue literal')
        s = lit[0]
        if not s.startswith("r"):
            raise DocumentError(where, f"residue literal must look like 'r4', got {s!r}")
        return int(s[1:])
    if isinstance(G, (DirectProduct, Semidirect)):
        parts = G.factors if isinstance(G, DirectProduct) else (G.x_group, G.b_group)
        if not (isinstance(lit, list) and len(lit) == len(parts)):
            raise DocumentError(where, f"expected {len(parts)} component literals")
        return tuple(_element_value(p, c, where) for p, c in zip(parts, lit))
    raise DocumentError(where, f"no literal syntax for {G}")


def _scalar(G, s, where):
    if not isinstance(s, str):
        raise DocumentError(where, f"coordinates are strings, got {s!r}")
    if isinstance(G, FreeAbelian):
        return int(s)
    if "e" in s.lower():
        # Fraction computes 10**exponent, which the digit limit does not bound.
        raise ValueError("exponent notation is not accepted")
    return Fraction(s)


# --- section parsers ------------------------------------------------------------


def parse_document(text: str | dict) -> ProblemDocument:
    if isinstance(text, str):
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise DocumentError("document", f"invalid JSON: {exc}") from exc
    else:
        raw = text
    if not isinstance(raw, dict):
        raise DocumentError("document", "top level must be an object")
    if raw.get("format") != FORMAT:
        raise DocumentError("format", f"expected {FORMAT!r}, got {raw.get('format')!r}")
    groups: dict[str, Group] = {}
    for name, spec in _section(raw, "groups", dict).items():
        groups[name] = _parse_group(name, spec, groups)
    cones: dict[str, Cone] = {}
    for name, spec in _section(raw, "cones", dict).items():
        cones[name] = _parse_cone(name, spec, groups)
    actions: dict[str, Action] = {}
    homs: dict[str, Homomorphism] = {}
    for name, spec in _section(raw, "homs", dict).items():
        homs[name] = _parse_hom(name, spec, groups)
    for name, spec in _section(raw, "actions", dict).items():
        actions[name] = _parse_action(name, spec, groups, actions, homs)
    points: dict[str, SplitExtension] = {}
    for name, spec in _section(raw, "points", dict).items():
        points[name] = _parse_point(name, spec, groups, cones, actions)
    doc = ProblemDocument(groups, cones, actions, homs, points, [])
    ids = set()
    for i, spec in enumerate(_section(raw, "queries", list)):
        q = _validate_query(i, spec, doc)
        if q["id"] in ids:
            raise DocumentError(f"queries[{i}].id", f"duplicate query id {q['id']!r}")
        ids.add(q["id"])
        doc.queries.append(q)
    return doc


def _section(raw: dict, key: str, kind: type):
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        raise DocumentError(key, f"expected {'an object' if kind is dict else 'a list'}")
    return value


def _need(spec: dict, key: str, where: str):
    if not isinstance(spec, dict):
        raise DocumentError(where, f"expected an object, got {spec!r}")
    if key not in spec:
        raise DocumentError(where, f"missing field {key!r}")
    return spec[key]


def _number(value, where: str, kind: type = int):
    """kind(value), refusing booleans and a float other than its decimal (0.1, not 0.5)."""
    try:
        # Fraction("1e9999999") computes 10**exponent, which the digit limit does not bound.
        out = None if isinstance(value, str) and "e" in value.lower() else kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (
        isinstance(value, float) and Fraction(repr(value)) != out
    ):
        what = "an integer" if kind is int else "a number"
        raise DocumentError(where, f"expected {what}, got {value!r}")
    return out


def _positive(value, where: str) -> int:
    n = _number(value, where)
    if n < 1:
        raise DocumentError(where, f"expected a positive integer, got {value!r}")
    return n


def _int(spec: dict, key: str, where: str, default: int | None = None) -> int:
    value = _need(spec, key, where) if default is None else spec.get(key, default)
    return _number(value, f"{where}.{key}")


def _at(where: str, key) -> str:
    return f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"


def _list(spec, key, where: str) -> list:
    """The list at a field of an object, or at an int index of a list."""
    value = spec[key] if isinstance(key, int) else _need(spec, key, where)
    if not isinstance(value, list):
        raise DocumentError(_at(where, key), f"expected a list, got {value!r}")
    return value


def _pairs(spec, key, where: str) -> list:
    """A list of 2-element lists, such as [src, dst] literal pairs."""
    entries = _list(spec, key, where)
    for i in range(len(entries)):
        if len(_list(entries, i, _at(where, key))) != 2:
            raise DocumentError(_at(_at(where, key), i), "expected a 2-element list")
    return entries


def _table(spec, key, where: str, kind: type = int) -> tuple:
    """A list of lists of numbers: a Cayley table or a matrix."""
    rows = _list(spec, key, where)
    at = _at(where, key)
    return tuple(
        tuple(_number(c, _at(_at(at, i), j), kind) for j, c in enumerate(_list(rows, i, at)))
        for i in range(len(rows))
    )


def _ref(table: dict, name, where: str, what: str):
    if not isinstance(name, str):
        raise DocumentError(where, f"{what} names are strings, got {name!r}")
    if name not in table:
        raise DocumentError(where, f"unknown {what} {name!r}")
    return table[name]


def _parse_group(name, spec, groups) -> Group:
    where = f"groups.{name}"
    kind = _need(spec, "kind", where)
    try:
        if kind == "free_abelian":
            return FreeAbelian(_int(spec, "rank", where))
        if kind == "rational_vector":
            return RationalVector(_int(spec, "rank", where))
        if kind == "finite_cyclic":
            return CyclicGroup(_int(spec, "n", where))
        if kind == "finite_cayley":
            return CayleyGroup(_table(spec, "table", where), _int(spec, "identity", where, 0))
        if kind == "direct_product":
            factors = tuple(
                _ref(groups, f, where, "group") for f in _list(spec, "factors", where)
            )
            return DirectProduct(factors)
        if kind == "semidirect":
            raise DocumentError(
                where, "declare semidirect carriers through points, not groups"
            )
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    raise DocumentError(where, f"unknown group kind {kind!r}")


def _parse_cone(name, spec, groups) -> Cone:
    where = f"cones.{name}"
    kind = _need(spec, "kind", where)
    G = _ref(groups, _need(spec, "group", where), where, "group")
    try:
        if kind == "orthant":
            return OrthantCone(G)
        if kind == "trivial":
            return TrivialCone(G)
        if kind == "full":
            return FullCone(G)
        if kind == "extensional":
            els = frozenset(
                parse_element(G, lit, where) for lit in _list(spec, "elements", where)
            )
            return ExtensionalCone(G, els)
        if kind == "generated":
            gens = [parse_element(G, lit, where) for lit in _list(spec, "generators", where)]
            return generated_cone(G, gens)
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    raise DocumentError(where, f"unknown cone kind {kind!r}")


def _parse_hom(name, spec, groups) -> Homomorphism:
    where = f"homs.{name}"
    kind = _need(spec, "kind", where)
    src = _ref(groups, _need(spec, "source", where), where, "group")
    dst = _ref(groups, _need(spec, "target", where), where, "group")
    try:
        if kind == "linear":
            return LinearHom(src, dst, _table(spec, "matrix", where, Fraction))
        if kind == "generator_images":
            images = tuple(
                parse_element(dst, lit, where) for lit in _list(spec, "images", where)
            )
            return FreeImagesHom(src, dst, images)
        if kind == "finite_table":
            pairs = {}
            for entry in _pairs(spec, "map", where):
                a = parse_element(src, entry[0], where)
                b = parse_element(dst, entry[1], where)
                pairs[a] = b
            h = TableHom.from_dict(src, dst, pairs)
            v = check_homomorphism(h)
            if v.is_no:
                pair = format_element(v.witness)
                raise DocumentError(where, f"not a homomorphism: {v.note} at {pair}")
            return h
        if kind == "identity":
            if src != dst:
                raise DocumentError(where, "identity needs source = target")
            return IdentityHom(src)
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    raise DocumentError(where, f"unknown homomorphism kind {kind!r}")


def _parse_action(name, spec, groups, actions, homs) -> Action:
    where = f"actions.{name}"
    kind = _need(spec, "kind", where)
    try:
        if kind == "precomposed":
            base = _ref(actions, _need(spec, "base", where), where, "action")
            along = _ref(homs, _need(spec, "along", where), where, "homomorphism")
            return PrecomposedAction(base, along)
        acting = _ref(groups, _need(spec, "acting", where), where, "group")
        acted = _ref(groups, _need(spec, "acted", where), where, "group")
        if kind == "trivial":
            return TrivialAction(acting, acted)
        if kind == "sign":
            return SignAction(acting, acted)
        if kind == "scaling":
            ratio = _number(_need(spec, "ratio", where), f"{where}.ratio", Fraction)
            return MatrixAction.scaling(acting, acted, ratio)
        if kind == "matrix":
            images = _list(spec, "images", where)
            matrices = tuple(
                _table(images, i, _at(where, "images"), Fraction) for i in range(len(images))
            )
            return MatrixAction(acting, acted, matrices)
        if kind == "finite_table":
            table = {}
            for i, entry in enumerate(_pairs(spec, "images", where)):
                b = parse_element(acting, entry[0], where)
                mapping = {}
                for pair in _pairs(entry, 1, _at(_at(where, "images"), i)):
                    a = parse_element(acted, pair[0], where)
                    v = parse_element(acted, pair[1], where)
                    mapping[a] = v
                table[b] = TableHom.from_dict(acted, acted, mapping)
            return FiniteTableAction.from_homs(acting, acted, table)
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    raise DocumentError(where, f"unknown action kind {kind!r}")


def _pre(groups, cones, spec, gkey, ckey, where) -> Cone:
    gname, cname = _need(spec, gkey, where), _need(spec, ckey, where)
    G = _ref(groups, gname, where, "group")
    C = _ref(cones, cname, where, "cone")
    if C.group != G:
        raise DocumentError(where, f"cone {cname!r} lives on {C.group}, not {G}")
    return C


def _shape(spec, groups, cones, actions, where) -> ExtensionShape:
    x = _pre(groups, cones, spec, "x_group", "x_cone", where)
    b = _pre(groups, cones, spec, "b_group", "b_cone", where)
    action = _ref(actions, _need(spec, "action", where), where, "action")
    try:
        shape = ExtensionShape(x, b, action)
        shape.carrier  # a finite carrier over the window cap is refused here
        return shape
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc


def _family(shape, spec, where) -> FamilyCone:
    thresholds = _list(spec, "thresholds", where)
    try:
        fibers = UpSetFibers(tuple(INF if t == "inf" else _number(t, where) for t in thresholds))
        return FamilyCone(shape, fibers)
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc


def _parse_point(name, spec, groups, cones, actions) -> SplitExtension:
    where = f"points.{name}"
    shape = _shape(spec, groups, cones, actions, where)
    tag = spec.get("cone", "product")
    try:
        if tag in ("product", "lex", "minimal"):
            return point(shape, tag)
        if isinstance(tag, dict) and tag.get("kind") == "family":
            return point(shape, _family(shape, tag, where))
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    raise DocumentError(where, f"unknown point cone tag {tag!r}")


# --- queries --------------------------------------------------------------------
#
# Each op lists the fields it reads.  _FIELDS resolves them against the
# document in that order, so a field may use the ones before it, and the
# executor receives them positionally, followed by the budget.  Executors
# call library functions through this module's globals, never through a
# stored function object, so that a name rebound here (by a test, or by the
# benchmark's tracer) reaches every op.


def _ref_field(key: str, table: str, what: str):
    return lambda spec, doc, r, where: _ref(
        getattr(doc, table), _need(spec, key, where), where, what
    )


def _pre_field(gkey: str, ckey: str):
    return lambda spec, doc, r, where: _pre(doc.groups, doc.cones, spec, gkey, ckey, where)


def _element_field(key: str, carrier):
    return lambda spec, doc, r, where: parse_element(carrier(r), _need(spec, key, where), where)


def _scope_field(spec, doc, r, where):
    scope = _need(spec, "scope", where)
    if not isinstance(scope, dict):
        raise DocumentError(where, f"scope must be an object, got {scope!r}")
    if scope.get("kind") == "superadditive":
        length, max_value = _int(scope, "length", where), _int(scope, "max_value", where)
        if length < 1 or max_value < 0:
            raise DocumentError(where, f"scope needs length >= 1 and max_value >= 0, got {scope!r}")
        # Each place takes max_value + 2 values; past length 64 the count is
        # over the cap whatever max_value is, so the power is not computed.
        count = (max_value + 2) ** length if length <= 64 else math.inf
        try:
            check_window_size(f"superadditive({length},{max_value})", count)
        except StructureError as exc:
            raise DocumentError(where, str(exc)) from exc
        return SuperadditiveWindow(length, max_value)
    if scope.get("kind") == "exhaustive":
        return ExhaustiveFinite()
    raise DocumentError(where, f"unknown scope {scope!r}")


def _base_field(spec, doc, r, where):
    base = _pre(doc.groups, doc.cones, spec, "base_group", "base_cone", where)
    if r["along"].source != base.group or r["along"].target != r["point"].b.group:
        raise DocumentError(where, "pullback map must go from the new base into the old one")
    return base


def _pair_field(spec, doc, r, where):
    c = _ref(doc.homs, _need(spec, "c", where), where, "homomorphism")
    try:
        PairHom(r["src"].carrier, r["dst"].carrier, r["a"], c)
    except StructureError as exc:
        raise DocumentError(where, str(exc)) from exc
    failure = equivariance_failure(r["a"], c, r["src"], r["dst"])
    if failure is not None:
        raise DocumentError(
            where,
            f"a and c do not intertwine the actions at (b, x) = {format_element(failure)}",
        )
    return c


def _order_field(spec, doc, r, where):
    which = spec.get("order", "tilde")
    if which not in ("tilde", "plus", "minus"):
        raise DocumentError(where, f"unknown order {which!r}")
    return which


_FIELDS = {
    "shape": lambda spec, doc, r, where: _shape(spec, doc.groups, doc.cones, doc.actions, where),
    "thresholds": lambda spec, doc, r, where: _family(r["shape"], spec, where),
    "scope": _scope_field,
    "point": _ref_field("point", "points", "point"),
    "cone": _ref_field("cone", "cones", "cone"),
    # On the queried point's carrier, or on the queried cone's group.
    "element": _element_field(
        "element", lambda r: r["point"].carrier if "point" in r else r["cone"].group
    ),
    "pre": _pre_field("group", "cone"),
    "left": _element_field("left", lambda r: r["pre"].group),
    "right": _element_field("right", lambda r: r["pre"].group),
    "along": _ref_field("along", "homs", "homomorphism"),
    "base": _base_field,
    "src": _ref_field("src", "points", "point"),
    "dst": _ref_field("dst", "points", "point"),
    "a": _ref_field("a", "homs", "homomorphism"),
    "c": _pair_field,
    "x": _pre_field("x_group", "x_cone"),
    "order": _order_field,
}


@dataclass(frozen=True)
class QueryOp:
    """command: the CLI subcommand that runs the op; fields: the query fields
    it reads; execute(*fields, budget) returns a Verdict, or (Verdict, extra)
    where extra holds the report entry's other top-level keys."""

    command: str
    fields: tuple[str, ...]
    execute: Callable[..., Any]


def _validate_family(_shape, family, b):
    fv = validate_family(family, b)
    return fv.conditions, {"details": {"orbit_remark": fv.orbit_remark.state.value}}


def _lattice(shape, scope, b):
    rep = enumerate_compatible_cones(shape, scope)
    details = {
        "scope": rep.scope,
        "count": rep.count,
        "labels": list(rep.labels),
        "meets_closed": rep.meets_closed,
        "joins_closed_in_window": rep.joins_closed_in_window,
        "all_compatible": rep.compatible.is_yes,
    }
    return rep.compatible, {"details": details}


def _stably_strong(pt, b):
    rep = stably_strong_over(pt, default_base_catalog(pt.b), b)
    entries = [[label, v.state.value] for label, v in rep.entries]
    return rep.aggregate, {"details": {"note": rep.note, "entries": entries}}


def _ssfl(src, dst, a, c, b):
    mid = PairHom(src.carrier, dst.carrier, a, c)
    return ssfl_check(PointMorphism(a, mid, c), src, dst, b)


def _classify_into(pt, order, b):
    cls = build_classifier(pt.x, aut_cone(monotone_aut(pt.x), order), b)
    rep = classify_into(pt, cls, b)
    parts = {
        "base_monotone": rep.base_monotone,
        "middle_monotone": rep.middle_monotone,
        "uniqueness": rep.uniqueness,
    }
    return vand(*parts.values()), {"details": {k: v.state.value for k, v in parts.items()}}


def _no_classifier_witness(x, b):
    w = no_classifier_witness(x, b)
    if w is None:
        # The search covers the window only, so finding nothing proves nothing.
        return unknown("no witness found in the window")
    return Verdict(State.YES, w[0], f"moves {format_element(w[1])}")


QUERY_OPS: dict[str, QueryOp] = {
    "compatible_exists": QueryOp(
        "check", ("shape",), lambda shape, b: compatible_exists(shape, b)
    ),
    "is_compatible": QueryOp(
        "check", ("point",), lambda pt, b: is_compatible(pt.cone, pt, b)
    ),
    "cone_contains": QueryOp("check", ("cone", "element"), lambda c, x, b: c.contains(x, b)),
    "point_cone_contains": QueryOp(
        "check", ("point", "element"), lambda pt, x, b: pt.cone.contains(x, b)
    ),
    "leq": QueryOp("check", ("pre", "left", "right"), lambda pre, x, y, b: pre.leq(x, y, b)),
    "validate_family": QueryOp("check", ("shape", "thresholds"), _validate_family),
    "lattice": QueryOp("lattice", ("shape", "scope"), _lattice),
    "is_rali": QueryOp("classify", ("point",), lambda pt, b: is_rali(pt, b)),
    "is_strong": QueryOp("classify", ("point",), lambda pt, b: is_strong(pt, b)),
    "stably_strong": QueryOp("classify", ("point",), _stably_strong),
    "classify_into": QueryOp("classify", ("point", "order"), _classify_into),
    "sclass_membership": QueryOp(
        "classify",
        ("point", "order"),
        lambda pt, order, b: sclass_membership(pt, aut_cone(monotone_aut(pt.x), order), b),
    ),
    "ssfl": QueryOp("classify", ("src", "dst", "a", "c"), _ssfl),
    "pullback_strong": QueryOp(
        "pullback",
        ("point", "along", "base"),
        lambda pt, along, base, b: is_strong(pullback(pt, along, base, b), b),
    ),
    "admissible": QueryOp(
        "classifier",
        ("x", "order"),
        lambda x, order, b: admissible_check(aut_cone(monotone_aut(x), order), b),
    ),
    "classifier_rali": QueryOp(
        "classifier",
        ("x", "order"),
        lambda x, order, b: is_rali(
            build_classifier(x, aut_cone(monotone_aut(x), order), b), b
        ),
    ),
    "no_classifier_witness": QueryOp("classifier", ("x",), _no_classifier_witness),
}


def _validate_query(i, spec, doc: ProblemDocument) -> dict:
    where = f"queries[{i}]"
    if not isinstance(spec, dict):
        raise DocumentError(where, "queries are objects")
    op = _need(spec, "op", where)
    if not isinstance(op, str) or op not in QUERY_OPS:
        raise DocumentError(where, f"unknown op {op!r}")
    if not isinstance(spec.get("id", ""), str):
        raise DocumentError(f"{where}.id", f"query ids are strings, got {spec['id']!r}")
    q = dict(spec)
    q.setdefault("id", f"q{i}")
    resolved: dict[str, Any] = {}
    for name in QUERY_OPS[op].fields:
        resolved[name] = _FIELDS[name](spec, doc, resolved, where)
    q["_resolved"] = resolved
    expect = spec.get("expect", {})
    if not isinstance(expect, dict):
        raise DocumentError(f"{where}.expect", f"expected an object, got {expect!r}")
    details = expect.get("details", {})
    if not isinstance(details, dict):
        raise DocumentError(f"{where}.expect.details", f"expected an object, got {details!r}")
    q["_budget"] = _budget_fields(spec, f"{where}.budget")
    return q


def _budget_fields(spec: dict, where: str) -> dict:
    """The SaturationBudget fields a query's budget sets; the run's budget
    supplies the others."""
    if "budget" not in spec:
        return {}
    raw = spec["budget"]
    if not isinstance(raw, dict):
        raise DocumentError(where, "budget is an object")
    for key in raw:
        if key not in ("conjugators", "summands", "window"):
            raise DocumentError(where, f"unknown budget key {key!r}")
    out = {}
    for key, name in (("conjugators", "max_conjugators"), ("summands", "max_summands")):
        if key in raw:
            out[name] = _positive(raw[key], where)
    if "window" in raw:
        w = raw["window"]
        if not (isinstance(w, list) and len(w) == 3):
            raise DocumentError(where, f"window is a list of 3 positive integers, got {w!r}")
        window = Window(*(_positive(c, where) for c in w))
        try:
            check_window_size("Z", window.z_size)
            check_window_size("Q", window.q_size)
        except StructureError as exc:
            raise DocumentError(where, str(exc)) from exc
        out["window"] = window
    return out


# --- execution -----------------------------------------------------------------


def _query_budget(q: dict, default: SaturationBudget, doubled: bool = False) -> SaturationBudget:
    out = replace(default, **q["_budget"]) if q["_budget"] else default
    return out.doubled() if doubled else out


def verdict_json(v: Verdict) -> dict:
    if v.is_no and v.witness is None:
        raise StructureError(f"'no' verdict without a witness: {v.note or 'no note'}")
    out = {"state": v.state.value}
    if v.witness is not None:
        out["witness"] = format_element(v.witness)
    if v.note:
        out["note"] = v.note
    if v.budget_used:
        out["budget_used"] = {k: list(val) if isinstance(val, tuple) else val for k, val in v.budget_used}
    return out


def execute_query(q: dict, budget: SaturationBudget, doubled: bool = False) -> dict:
    execute = QUERY_OPS[q["op"]].execute
    result = execute(*q["_resolved"].values(), _query_budget(q, budget, doubled))
    verdict, extra = result if isinstance(result, tuple) else (result, {})
    out: dict[str, Any] = {"id": q["id"], "op": q["op"], "verdict": verdict_json(verdict), **extra}
    if "expect" in q:
        out["expected"] = q["expect"]
        out["matched"] = _matches(q["expect"], out)
    return out


def _matches(expect: dict, out: dict) -> bool:
    for key, want in expect.items():
        if key == "verdict":
            if out.get("verdict", {}).get("state") != want:
                return False
        elif key == "details":
            got = out.get("details", {})
            for k, v in want.items():
                if got.get(k) != v:
                    return False
        elif key == "witness":
            if out.get("verdict", {}).get("witness") != want:
                return False
        else:
            if out.get(key) != want:
                return False
    return True


def run(
    doc: ProblemDocument,
    budget: SaturationBudget | None = None,
    ops: set[str] | None = None,
    doubled: bool = False,
) -> dict:
    """Execute the document's queries in order; deterministic JSON report."""
    budget = budget or SaturationBudget()
    entries = []
    errors = 0
    mismatches = 0
    for q in doc.queries:
        if ops is not None and q["op"] not in ops:
            entries.append({"id": q["id"], "op": q["op"], "skipped": True})
            continue
        try:
            entry = execute_query(q, budget, doubled)
        except StructureError as exc:
            entry = {"id": q["id"], "op": q["op"], "error": str(exc)}
            errors += 1
        if entry.get("matched") is False:
            mismatches += 1
        entries.append(entry)
    return {
        "format": REPORT_FORMAT,
        "budgets": {
            "conjugators": budget.max_conjugators,
            "summands": budget.max_summands,
            "window": [
                budget.window.int_bound,
                budget.window.num_bound,
                budget.window.den_bound,
            ],
        },
        "queries": entries,
        "errors": errors,
        "mismatches": mismatches,
    }


def render_report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_report_text(report: dict) -> str:
    lines = []
    for e in report["queries"]:
        qid = e.get("id", "?")
        op = e.get("op", "?")
        if e.get("skipped"):
            lines.append(f"{qid:<24} {op:<22} skipped")
            continue
        if "error" in e:
            lines.append(f"{qid:<24} {op:<22} ERROR {e['error']}")
            continue
        v = e.get("verdict", {})
        state = v.get("state", "-")
        extra = []
        if "witness" in v:
            extra.append(f"witness={v['witness']}")
        if "note" in v:
            extra.append(v["note"])
        if "details" in e and "count" in e["details"]:
            extra.append(f"count={e['details']['count']}")
        if "matched" in e:
            extra.append("expected-ok" if e["matched"] else "EXPECTATION MISMATCH")
        lines.append(f"{qid:<24} {op:<22} {state:<8} {' '.join(extra)}")
    lines.append(
        f"errors={report['errors']} mismatches={report['mismatches']}"
    )
    return "\n".join(lines) + "\n"
