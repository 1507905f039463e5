"""Element checks: the public operations check, the _-prefixed ones trust.

Group.add/neg/conjugate, Action.apply and Homomorphism.apply check their
operands once and hand them to _add/_neg/_conjugate/_apply, which composites
call on their parts.  What a composite trusts is checked where it enters:
a Semidirect's action must act on its groups, and a TableHom's pairs must be
elements of its source and target.
"""

import ast
import dataclasses
import importlib.util
import inspect
import pkgutil
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ordsplit
from ordsplit.actions import Action, ActionHom, MatrixAction, ProductAction, SignAction, TrivialAction
from ordsplit.classifiers import FiniteAutGroup, OrthantPermAutGroup
from ordsplit.cones import FullCone, GeneratedCone, OrthantCone
from ordsplit.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
)
from ordsplit.homs import Homomorphism, IdentityHom, LinearHom, PairHom, TableHom
from ordsplit.verdict import SaturationBudget, Window, vand, yes

from helpers import ComposedHom

Z = FreeAbelian(1)
Q = RationalVector(1)
Z2 = CyclicGroup(2)
SRC = Path(ordsplit.__file__).resolve().parent


def scaling_carrier():
    return Semidirect(Q, Z, MatrixAction.scaling(Z, Q, 2))


def test_semidirect_add_checks_each_component_once(monkeypatch):
    calls = Counter()
    for cls in (FreeAbelian, RationalVector):
        def counting(self, el, check=cls.check, name=cls.__name__):
            calls[name] += 1
            return check(self, el)

        monkeypatch.setattr(cls, "check", counting)
    sd = scaling_carrier()
    assert sd.add((Fraction(1), 1), (Fraction(3), -1)) == (Fraction(7), 0)
    assert calls == {"RationalVector": 2, "FreeAbelian": 2}


class Bad:
    """An operand no carrier accepts."""


@pytest.mark.parametrize("G, good", [
    (DirectProduct((Z, Q)), (1, Fraction(1))),
    (scaling_carrier(), (Fraction(1), 1)),
])
@pytest.mark.parametrize("bad", [
    lambda good: (good[0], Bad()),
    lambda good: (Bad(), good[1]),
    lambda good: good + (good[0],),
    lambda good: list(good),
])
def test_composite_group_operations_refuse_a_malformed_operand(G, good, bad):
    el = bad(good)
    for op in (lambda: G.add(good, el), lambda: G.add(el, good), lambda: G.neg(el),
               lambda: G.conjugate(good, el), lambda: G.conjugate(el, good)):
        with pytest.raises(ShapeError):
            op()


def test_product_action_apply_refuses_a_malformed_operand():
    act = ProductAction(SignAction(Z, Z), MatrixAction.scaling(Z, Q, Fraction(2)))
    assert act.apply((1, -1), (3, Fraction(1))) == (-3, Fraction(1, 2))
    for b, x in (((1, Fraction(1)), (3, Fraction(1))), ((1, -1), (3, 1)), ((1,), (3, Fraction(1)))):
        with pytest.raises(ShapeError):
            act.apply(b, x)


def test_composed_hom_apply_refuses_a_malformed_operand():
    h = ComposedHom(LinearHom.scalar(Q, Q, Fraction(1, 2)), LinearHom.scalar(Z, Q, Fraction(3)))
    assert h.apply(2) == Fraction(3)
    for el in (Fraction(2), True, 2.0):
        with pytest.raises(ShapeError):
            h.apply(el)


def test_semidirect_refuses_an_action_on_other_groups():
    with pytest.raises(StructureError, match="does not act on the given groups"):
        Semidirect(Q, Z2, MatrixAction.scaling(Z, Q, Fraction(2)))
    with pytest.raises(StructureError, match="does not act on the given groups"):
        Semidirect(Q, Z, TrivialAction(Z, Z))


def test_pair_hom_and_action_hom_refuse_parts_they_would_trust():
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    with pytest.raises(StructureError, match="parts do not match"):
        PairHom(sd, sd, LinearHom.scalar(Q, Q, Fraction(2)), IdentityHom(Z))
    with pytest.raises(ShapeError):
        SignAction(Z, Z).as_hom(Fraction(1))


def test_an_int_scaling_ratio_gives_exact_powers():
    # q**b for an int q and a negative b is a float; the carrier's add
    # would pass it on unchecked.
    x, b = scaling_carrier().add((Fraction(1), -1), (Fraction(3), 0))
    assert (x, b) == (Fraction(5, 2), -1) and type(x) is Fraction


def test_table_hom_refuses_values_outside_its_target_and_bool_keys():
    with pytest.raises(ShapeError):
        TableHom.from_dict(Z2, Z, {0: 0, 1: Fraction(1, 2)})
    with pytest.raises(ShapeError):
        TableHom(Z2, Z2, ((False, 0), (True, 1)))


def test_subclasses_of_int_and_fraction_are_refused():
    class Int(int):
        pass

    class Frac(Fraction):
        pass

    for G, el in ((Z, Int(1)), (Z2, Int(1)), (FreeAbelian(2), (1, Int(1))),
                  (Q, Frac(1)), (RationalVector(2), (Fraction(1), Frac(1)))):
        with pytest.raises(ShapeError):
            G.check(el)
        with pytest.raises(ShapeError):
            G.neg(el)
    with pytest.raises(ShapeError):
        Z.add(True, 1)
    Z2V = FreeAbelian(2)
    perms = OrthantPermAutGroup(OrthantCone(Z2V))
    trivial = OrthantPermAutGroup(OrthantCone(Z))
    for G, el in ((perms, (True, False)), (perms, (1, Int(0))), (trivial, False), (trivial, Fraction(0))):
        with pytest.raises(ShapeError):
            G.neg(el)


def test_finite_aut_group_refuses_images_outside_the_base_group():
    # True == 1 and both hash alike, so a bare membership test would take a
    # bool image for an int one; each image is checked against Z_3 first.
    aut = FiniteAutGroup(FullCone(CyclicGroup(3)))
    for el in ((False, 2, True), (0, Fraction(2), 1), (0, 2), (0, 2, 1, 0), [0, 2, 1]):
        with pytest.raises(ShapeError):
            aut.check(el)
        with pytest.raises(ShapeError):
            aut.add(el, aut.zero())
    assert aut.add((0, 2, 1), aut.zero()) == (0, 2, 1)


def test_only_the_permutation_carrier_and_the_scalings_define_aut_arithmetic():
    module = importlib.import_module("ordsplit.classifiers")
    found = {
        name
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and {"_add", "_neg"} & set(vars(cls))
    }
    assert found == {"_PermutationAutGroup", "RatScalingAutGroup"}


def test_only_the_base_classes_define_the_checked_operations():
    allowed = {
        (Group, "add"), (Group, "neg"), (Group, "conjugate"),
        (Action, "apply"), (Homomorphism, "apply"),
        (ActionHom, "apply"),  # the automorphism phi_b checks through its action
    }
    found = set()
    for info in pkgutil.iter_modules(ordsplit.__path__):
        module = importlib.import_module(f"ordsplit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            for name in ("add", "neg", "conjugate", "apply"):
                if name in vars(cls):
                    found.add((cls, name))
    assert found == allowed


def test_fixed_data_is_built_once():
    w = Window(2, 3, 2)
    first = w.rationals()
    first.append(Fraction(99))
    assert w.rationals() == sorted({Fraction(n, d) for d in (1, 2) for n in range(-3, 4)})
    aut = FiniteAutGroup(FullCone(CyclicGroup(3)))
    assert aut.order() == 2 and aut.add((0, 2, 1), (0, 2, 1)) == (0, 1, 2)
    with pytest.raises(ShapeError):
        aut.neg((1, 2, 0))


@pytest.mark.parametrize(
    "bounds", [(1, 1, 1), (2, 3, 2), (8, 16, 8), (16, 32, 16), (1, 7, 300), (1, 300, 7), (1, 1, 60000)]
)
def test_window_rationals_are_the_sorted_distinct_fractions(bounds):
    w = Window(*bounds)
    _, num, den = bounds
    expected = sorted({Fraction(n, d) for d in range(1, den + 1) for n in range(-num, num + 1)})
    got = w.rationals()
    assert got == expected
    assert all(type(q) is Fraction for q in got)


def test_immutable_constants_are_shared():
    assert yes() is yes() and vand(yes(), yes()) is yes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        yes().note = "changed"
    assert yes().note == "" and yes("n").note == "n" and yes("n") is not yes()
    assert yes(budget_used=(("window", 8),)).budget_used == (("window", 8),)
    sd = scaling_carrier()
    assert sd.zero() is sd.zero() == (Fraction(0), 0)
    assert Q.zero() is Q.zero() and type(Q.zero()) is Fraction


def _perfbench_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_tracer_installs_and_uninstalls():
    # The benchmark's tracer wraps these layers' methods by name; a refactor
    # that moves one makes install raise LookupError.
    tracer = _perfbench_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert Z.add(1, 2) == 3 and scaling_carrier().neg((Fraction(1), 1)) == (Fraction(-1, 2), -1)
    finally:
        t.uninstall()
    calls, _ = t.fold()
    assert calls["groups.add"] == 1 and calls["groups.neg"] == 1 and calls["groups.check"] >= 3
    assert "traced" not in Group.add.__qualname__


def test_perfbench_tracer_counts_one_separation_by_its_rows():
    # The tracer wraps linalg.feasible_strict by name and counts
    # len(args[0]) + len(args[1]) rows a call; handed the cone's DualCone,
    # that is still the number of generators plus the one separated vector.
    tracer = _perfbench_tracer()
    gens = ((1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1))
    t = tracer.Tracer()
    try:
        tracer.install(t)
        cone = GeneratedCone(FreeAbelian(3), gens)
        assert cone.contains((0, -1, 0), SaturationBudget(1, 2, Window(2, 2, 1))).is_no
    finally:
        t.uninstall()
    calls, _ = t.fold()
    assert calls["linalg.feasible_strict"] == 1
    assert t.counters["linalg.feasible_strict.rows"] == len(gens) + 1


# The element <-> coordinate conversion of vector carriers, written inline.
INLINE_COORDS = re.compile(r"\(\w+,\) if .*rank == 1 else|\[0\]\)? if .*rank == 1 else")


def test_vector_coordinates_and_elimination_each_live_in_one_place():
    inline = {p.name for p in SRC.glob("*.py") if INLINE_COORDS.search(p.read_text())}
    assert inline <= {"groups.py"}
    assert (SRC / "linalg.py").read_text().count("pivot = next(") == 1


def test_no_function_level_imports_but_the_verdict_groups_cycle():
    found = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body:
                found.add((path.stem, getattr(node, "module", None)))
    assert found == {("verdict", "groups")}


def test_every_module_level_definition_is_used_or_exported():
    # No function or class that neither the library nor the CLI calls: each
    # one defined at module level in the package is named somewhere in the
    # package outside its own definition, or exported in ordsplit.__all__.
    defs, refs = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [
            (path.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path.name, node.lineno))
    unused = [
        f"{file}:{node.name}"
        for file, node in defs
        if node.name not in ordsplit.__all__
        and all(f == file and node.lineno <= line <= node.end_lineno for f, line in refs.get(node.name, []))
    ]
    assert unused == []


def test_one_linear_form_of_an_action_and_one_determinant():
    # matrix_for is the one linear representation of an action and as_matrix
    # of a map; the dual cone's normals come from integer kernels, not a
    # cofactor expansion. The scaling action is MatrixAction.scaling, not a
    # class of its own.
    assert not hasattr(ordsplit.actions, "ScalingAction")
    assert "ScalingAction" not in ordsplit.__all__
    found = set()
    for info in pkgutil.iter_modules(ordsplit.__path__):
        module = importlib.import_module(f"ordsplit.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                found.update(
                    (name, attr) for attr in ("scalar_for", "as_scalar") if attr in vars(cls)
                )
    assert found == set()
    linalg = importlib.import_module("ordsplit.linalg")
    assert not hasattr(linalg, "_cofactors")


def test_one_linear_map_class_and_identities_decided_on_generators():
    # A scalar map is LinearHom.scalar, and identities between maps go
    # through homs.first_difference instead of window scans.
    assert not hasattr(ordsplit.homs, "ScalarHom")
    for fn in (
        ordsplit.points.check_point_morphism,
        ordsplit.extensions.normalize,
        ordsplit.classifiers._uniqueness_check,
    ):
        assert "window_elements" not in inspect.getsource(fn), fn.__name__


def test_one_cone_class_for_the_three_automorphism_orders():
    # P~, P+ and P- are AutOrderCone(group, order); P+ and P- share one
    # domination route, and aut_cone reads no budget.
    for name in (
        "TildeCone", "PlusCone", "MinusCone",
        "_dominates_id", "_dominated_by_id_on_negatives", "_order_units",
    ):
        assert not hasattr(ordsplit.classifiers, name), name
    assert "budget" not in inspect.signature(ordsplit.classifiers.aut_cone).parameters


def test_a_preordered_group_is_its_cone():
    # A cone knows its group, so (G, P) is the cone P: no wrapper stores G a
    # second time, a point's order is its cone, and the lex cone takes the
    # component cones as the componentwise cone does.
    assert not hasattr(ordsplit.cones, "PreorderedGroup")
    assert "PreorderedGroup" not in ordsplit.__all__
    assert not hasattr(ordsplit.extensions.SplitExtension, "pre")
    names = [[f.name for f in dataclasses.fields(cls)]
             for cls in (ordsplit.cones.LexCone, ordsplit.cones.ProductCone)]
    assert names[0] == names[1]


def test_only_the_routes_the_library_takes():
    # An element literal is built exact and checked, never coerced; the
    # automorphism enumeration is between finite groups; a Cayley table's
    # generators are its non-identity indices; and a least cone's cache is
    # its own.
    for info in pkgutil.iter_modules(ordsplit.__path__):
        module = importlib.import_module(f"ordsplit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Group) and cls.__module__ == module.__name__:
                assert not {"make", "_coerce", "_coerce_scalar"} & set(vars(cls)), cls
    cayley = [f.name for f in dataclasses.fields(ordsplit.groups.CayleyGroup)]
    assert cayley == ["table", "identity"]
    assert list(inspect.signature(ordsplit.homs.enumerate_homomorphisms).parameters) == ["G", "H"]
    with pytest.raises(TypeError, match="_cache"):
        GeneratedCone(scaling_carrier(), ((Fraction(1), 1),), _cache={})


def test_law_checks_are_finite_and_no_path_only_tests_reach():
    # The action and additivity laws are checked on finite groups only (a
    # window could not decide them); solve reduces [a | b] per call, with no
    # kept elimination; the twisted carrier is Semidirect itself; a matrix
    # action has one apply path; and a No records no budget.
    linalg = importlib.import_module("ordsplit.linalg")
    assert not {"Elimination", "eliminate"} & set(vars(linalg))
    assert "semidirect" not in ordsplit.__all__
    assert not hasattr(ordsplit.extensions, "semidirect")
    assert "_int_matrices" not in {f.name for f in dataclasses.fields(MatrixAction)}
    assert list(inspect.signature(ordsplit.homs.check_homomorphism).parameters) == ["h"]
    assert list(inspect.signature(ordsplit.verdict.no).parameters) == ["witness", "note"]
    with pytest.raises(StructureError, match="finite groups only"):
        ordsplit.actions.validate_action(SignAction(Z, Z))
    with pytest.raises(StructureError, match="finite groups only"):
        ordsplit.actions.validate_action(TrivialAction(Z2, Z))
    with pytest.raises(StructureError, match="finite sources only"):
        ordsplit.homs.check_homomorphism(IdentityHom(Z))
