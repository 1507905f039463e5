import itertools
import random
from collections import Counter
from dataclasses import dataclass
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsplit import cones as cones_module
from ordsplit.actions import FiniteTableAction, MatrixAction, SignAction, TrivialAction
from ordsplit.cones import (
    Cone,
    ExtensionalCone,
    FibreCone,
    FullCone,
    GeneratedCone,
    LexCone,
    OrthantCone,
    ProductCone,
    TrivialCone,
    _scan_inclusions,
    check_cone_axioms,
    cone_subset,
    cones_equal,
    fibrewise,
    generated_cone,
    is_monotone,
    _finite_closure,
    units_subgroup,
)
from ordsplit.document import parse_document, run
from ordsplit import extensions as extensions_module
from ordsplit.extensions import (
    ExhaustiveFinite,
    ExtensionShape,
    FamilyCone,
    UpSetFibers,
    compatible_exists,
    enumerate_compatible_cones,
    is_compatible,
    minimal_cone,
    point,
    pointwise_sim_id,
    product_cone,
)
from ordsplit.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
    word_ball,
)
from ordsplit.homs import IdentityHom, LinearHom, PairHom, TableHom
from ordsplit.points import is_rali, is_strong, pullback
from ordsplit.verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Window,
    clean_scan,
    for_all_members,
    unknown,
)

from helpers import (
    SMALL_BUDGET,
    IntersectionCone,
    assert_state,
    count_window_items,
    oracle_check_cone_axioms,
    oracle_cone_closure,
    oracle_is_closed,
    oracle_scan_inclusions,
    oracle_units_scan,
    random_finite_extension,
    reference_least_cone_route,
    strictly_positive,
    symmetric_cayley,
)

Z = FreeAbelian(1)
Q = RationalVector(1)
Z2V = FreeAbelian(2)
Q2V = RationalVector(2)
ZN = OrthantCone(Z)
ZF = FullCone(Z)
Z0 = TrivialCone(Z)
QP = OrthantCone(Q)
Z2N = OrthantCone(Z2V)


def test_orthant_membership():
    c = OrthantCone(Z2V)
    assert_state(c.contains((3, 0)), "yes")
    assert_state(c.contains((-1, 2)), "no")


def test_trivial_and_full():
    t = TrivialCone(Z)
    assert_state(t.contains(0), "yes")
    assert_state(t.contains(5), "no")
    assert_state(FullCone(Z).contains(-7), "yes")


def test_generated_cone_membership_and_certificate():
    g = generated_cone(Z2V, [(1, 0), (1, 1)])
    v = g.contains((3, 1), SMALL_BUDGET)
    assert_state(v, "yes")
    v = g.contains((1, 2), SMALL_BUDGET)
    assert_state(v, "no", "separating functional exists")
    assert "functional" in v.note


def test_generated_cone_empty_is_trivial():
    assert isinstance(generated_cone(Z2V, []), TrivialCone)


def test_generated_cone_finite_matches_oracle():
    S3 = symmetric_cayley(3)
    for seed in ([1], [2], [1, 4], [5]):
        got = generated_cone(S3, seed)
        expected = oracle_cone_closure(S3, seed)
        assert isinstance(got, ExtensionalCone)
        assert got.elements == expected


def test_generated_cone_refuses_a_finite_carrier():
    # generated_cone closes finite carriers exactly; GeneratedCone never sees one.
    Z4 = CyclicGroup(4)
    with pytest.raises(StructureError):
        GeneratedCone(Z4, (1,))
    assert generated_cone(Z4, [2]) == ExtensionalCone(Z4, frozenset({0, 2}))


def test_generated_cone_refuses_a_bad_generator_when_built():
    # Saturation adds and conjugates unchecked, so the generators are checked up front.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    for bad in ((0, True), (Fraction(1), 0), 3):
        with pytest.raises(ShapeError):
            GeneratedCone(sd, ((0, 1), bad))


def test_generated_cone_takes_a_generator_tuple_or_its_own_componentwise_cone():
    # The source is a tuple of checked generators, or the componentwise cone
    # on the cone's own semidirect carrier; the source type is the
    # certificate, so anything else is refused when built.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    prod = ProductCone(sd, TrivialCone(Z), OrthantCone(Z))
    assert GeneratedCone(sd, ((0, 1),)).finite_generators() == ((0, 1),)
    assert GeneratedCone(sd, prod).finite_generators() == ((0, 1),)
    other = Semidirect(Z, Z, TrivialAction(Z, Z))
    direct = DirectProduct((Z, Z))
    for G, source in (
        (sd, [(0, 1)]),
        (sd, OrthantCone(Z)),
        (sd, TrivialCone(sd)),
        (direct, ProductCone(direct, TrivialCone(Z), OrthantCone(Z))),
        (sd, ProductCone(other, TrivialCone(Z), OrthantCone(Z))),
    ):
        with pytest.raises(ShapeError):
            GeneratedCone(G, source)
    Z4 = CyclicGroup(4)
    fin = Semidirect(Z4, Z4, TrivialAction(Z4, Z4))
    with pytest.raises(StructureError):
        GeneratedCone(fin, ProductCone(fin, TrivialCone(Z4), FullCone(Z4)))


def test_generated_cone_s3_transposition_is_everything():
    S3 = symmetric_cayley(3)
    from ordsplit.groups import element_order

    t = next(a for a in S3.elements() if element_order(S3, a) == 2)
    cone = generated_cone(S3, [t])
    assert len(cone.elements) == 6


def test_generated_cone_sign_carrier_conjugates():
    # Conjugating (0,1) by (y,0) reaches (2y,1): membership of (2,1) is a Yes,
    # and the fibre over 1 is exactly 2Z, so (1,1) is an exact No.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = GeneratedCone(sd, ProductCone(sd, TrivialCone(Z), OrthantCone(Z)))
    assert_state(cone.contains((2, 1), SMALL_BUDGET), "yes")
    assert_state(cone.contains((1, 1), SMALL_BUDGET), "no")


def test_generated_cone_explicit_sign_generator():
    # On the sign carrier, conjugating (0,1) by (y,0) reaches (2y,1); odd
    # fibre parts lie outside the fibre lattice 2Z.  Window(1, 2, 1) holds
    # no period of the action, and the lattice needs none.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = generated_cone(sd, [(0, 1)])
    for budget in (SMALL_BUDGET, SaturationBudget(2, 5, Window(1, 2, 1))):
        assert_state(cone.contains((2, 1), budget), "yes")
        assert_state(cone.contains((1, 1), budget), "no")
    assert sd.conjugate((1, 0), (0, 1)) == (2, 1)


def _lattice_cases():
    """(carrier, generators, box, bases, budget): cones of generators (0, e)
    on Z^2 x| Z^n.  The box holds the fibre parts asked about and the r of
    the brute-force conjugates; bases holds the base parts asked about."""
    swap, shear = (MatrixAction(Z, Z2V, (m,)) for m in (((0, 1), (1, 0)), ((1, 1), (0, 1))))
    flips = MatrixAction(Z2V, Z2V, (((-1, 0), (0, 1)), ((1, 0), (0, -1))))
    box3, box2 = (list(itertools.product(range(-k, k + 1), repeat=2)) for k in (3, 2))
    over_z = [((0, 0), 1)], box3, (-1, 0, 1, 2), SMALL_BUDGET
    return [
        (Semidirect(Z2V, Z, swap), *over_z),
        (Semidirect(Z2V, Z, shear), *over_z),
        (Semidirect(Z2V, Z2V, flips), [((0, 0), (1, 0)), ((0, 0), (0, 1))], box2, box2,
         SaturationBudget(1, 2, Window(2, 2, 2))),
    ]


@pytest.mark.parametrize(
    "G, generators, box, bases, budget", _lattice_cases(), ids=["swap", "shear", "sign-flips"]
)
def test_z2_conjugators_and_fibre_lattice_match_sums_of_conjugates(G, generators, box, bases, budget):
    # On Z^2 x| Z the swap and the shear make I - phi singular; on Z^2 x| Z^2
    # two commuting sign flips put the fibres in the lattice 2Z x 2Z of the
    # I - phi_{e_i}.  Over each generator's base part e the cone holds
    # exactly the conjugates ((I - phi_e) r, e), over a sum of two base parts
    # the sums of two; a brute-force oracle lists both.  Each fibre part
    # outside the oracle's fibres is outside the lattice: an exact no.
    cone = generated_cone(G, generators)
    X0 = G.x_group.zero()
    shifts = G.b_group.window_elements(Window(1, 1, 1))
    conjugates = {G.conjugate((r, c), g) for g in generators for r in box for c in shifts}
    sums = {G.zero()} | conjugates | {G.add(a, b) for a in conjugates for b in conjugates}
    fibres = {xp for xp, _ in sums}
    lattice_no = "fibre residue obstruction: fibre outside the lattice of I - phi_e"
    decided = 0
    for b in bases:
        for xp in box:
            x = (xp, b)
            v = cone.contains(x, budget)
            decided += not v.is_unknown
            if v.is_yes:
                assert x in sums, x
            if v.is_no:
                assert x not in sums and v.witness == x, x
            if (X0, b) in generators and xp != X0:
                assert v.is_yes == (x in conjugates), (x, v)
                if v.is_yes:
                    assert v.note.startswith("conjugator"), v
            if xp not in fibres:
                assert (v.state.value, v.note) == ("no", lattice_no), (x, v)
    assert decided


def test_leq_basics():
    assert_state(ZN.leq(2, 5), "yes")
    assert_state(Z0.leq(0, 1), "no")
    assert_state(ZF.leq(7, -3), "yes")


def test_sim_and_strictly_positive():
    assert_state(ZF.sim(3, -5), "yes")
    assert_state(strictly_positive(ZN, 1), "yes")
    assert_state(strictly_positive(ZN, 0), "no")
    Z6 = CyclicGroup(6)
    evens = ExtensionalCone(Z6, frozenset({0, 2, 4}))
    assert_state(evens.sim(2, 0), "yes")


def test_no_strictly_positive_on_finite_groups():
    # Finite positives are units, so nothing is strictly positive.
    Z6 = CyclicGroup(6)
    evens = ExtensionalCone(Z6, frozenset({0, 2, 4}))
    for b in Z6.elements():
        assert not strictly_positive(evens, b).is_yes


def test_units_subgroup():
    assert units_subgroup(ZN).elements == frozenset({0})
    full = units_subgroup(ZF)
    assert full.exact and full.elements is None and full.generators == (1,)
    Z6 = CyclicGroup(6)
    evens = ExtensionalCone(Z6, frozenset({0, 2, 4}))
    assert units_subgroup(evens).elements == frozenset({0, 2, 4})
    assert units_subgroup(QP).elements == frozenset({Fraction(0)})


def test_units_of_an_infinite_carrier_come_from_the_window_scan():
    # cone{(1,0), (-1,0), (0,1)} on Z^2 has the units Z x 0, found in the
    # window and so not exact.
    window = Window(3, 6, 3)
    cone = generated_cone(Z2V, [(1, 0), (-1, 0), (0, 1)])
    units = units_subgroup(cone, SaturationBudget(2, 6, window))
    assert not units.exact
    assert units.elements == frozenset((a, 0) for a in Z.window_elements(window))
    assert units.note == "window search"


def test_is_monotone_examples():
    assert_state(is_monotone(IdentityHom(Z), ZN, ZN), "yes")
    v = is_monotone(LinearHom.scalar(Z, Z, Fraction(-1)), ZN, ZN)
    assert_state(v, "no")
    assert v.witness == 1
    assert_state(is_monotone(LinearHom.scalar(Q, Q, Fraction(2)), QP, QP), "yes")
    # A clean scan of a finite carrier saw all of it, not a window.
    Z5 = CyclicGroup(5)
    X = ExtensionalCone(Z5, frozenset({0, 1, 4}))
    v = is_monotone(IdentityHom(Z5), X, X)
    assert_state(v, "yes")
    assert (v.note, v.budget_used) == ("exhaustive", ())


def test_matrix_maps_out_of_an_orthant_decide_by_their_columns():
    # Into an orthant every column must be >= 0, into the trivial order 0;
    # the witness is the basis vector of the first failing column.
    Z20 = TrivialCone(Z2V)
    assert_state(is_monotone(IdentityHom(Z2V), Z2N, Z2N), "yes")
    h = LinearHom(Z2V, Z2V, ((1, 0), (-1, 2)))
    v = is_monotone(h, Z2N, Z2N)
    assert_state(v, "no")
    assert v.witness == (1, 0)
    assert_state(is_monotone(LinearHom(Z2V, Z2V, ((0, 0), (0, 0))), Z2N, Z20), "yes")
    v = is_monotone(LinearHom(Z2V, Z2V, ((0, 0), (0, 3))), Z2N, Z20)
    assert_state(v, "no")
    assert v.witness == (0, 1)
    v = is_monotone(LinearHom.scalar(Z, Z, Fraction(1)), ZN, Z0)
    assert_state(v, "no")
    assert v.witness == 1


def test_pair_maps_between_componentwise_cones_decide_by_their_parts(monkeypatch):
    # Over the sign action the componentwise cone is not a known cone, so the
    # generator route is closed: only the parts or the window scan decide.
    sizes = count_window_items(monkeypatch)
    for x_cone in (ZN, Z0):
        pt = point(ExtensionShape(x_cone, ZN, SignAction(Z, Z)), "product")
        for hx, hb in (
            (IdentityHom(Z), IdentityHom(Z)),
            (LinearHom.scalar(Z, Z, 2), IdentityHom(Z)),
            (IdentityHom(Z), LinearHom.scalar(Z, Z, 3)),
        ):
            v = is_monotone(PairHom(pt.carrier, pt.carrier, hx, hb), pt.cone, pt.cone, SMALL_BUDGET)
            assert (v.state.value, v.note) == ("yes", "monotone on both components")
    assert sizes == []
    # A non-monotone part falls through to the scan, whose no names the
    # first failing element of the window.
    pt = point(ExtensionShape(ZN, ZN, SignAction(Z, Z)), "product")
    minus = LinearHom.scalar(Z, Z, -1)
    for hx, hb, witness in ((minus, IdentityHom(Z), (1, 0)), (IdentityHom(Z), minus, (0, 1))):
        v = is_monotone(PairHom(pt.carrier, pt.carrier, hx, hb), pt.cone, pt.cone, SMALL_BUDGET)
        assert (v.state.value, v.witness, v.note) == (
            "no", witness, "positive element with non-positive image"
        )
    assert sizes == [49, 49]
    # Over a trivial action the generator route names the generator.
    pt = point(ExtensionShape(ZN, ZN, TrivialAction(Z, Z)), "product")
    v = is_monotone(PairHom(pt.carrier, pt.carrier, minus, IdentityHom(Z)), pt.cone, pt.cone)
    assert (v.state.value, v.witness, v.note) == ("no", (1, 0), "generator image not positive")


def test_pair_maps_out_of_or_into_other_cones_keep_their_routes(monkeypatch):
    shape = ExtensionShape(ZN, ZN, TrivialAction(Z, Z))
    prod, lex = point(shape, "product"), point(shape, "lex")
    ident = PairHom(prod.carrier, prod.carrier, IdentityHom(Z), IdentityHom(Z))
    sizes = count_window_items(monkeypatch)
    v = is_monotone(ident, lex.cone, prod.cone, SMALL_BUDGET)
    assert (v.state.value, v.witness, v.note) == (
        "no", (-3, 1), "positive element with non-positive image"
    )
    v = is_monotone(ident, prod.cone, lex.cone, SMALL_BUDGET)
    assert (v.state.value, v.note) == ("yes", "window-verified")
    assert sizes == [49, 49]


def test_is_monotone_generator_reduction_matches_bruteforce():
    S3 = symmetric_cayley(3)
    cone_elems = oracle_cone_closure(S3, [3])
    src = ExtensionalCone(S3, cone_elems)
    from ordsplit.homs import enumerate_automorphisms

    for h in enumerate_automorphisms(S3):
        got = is_monotone(h, src, src)
        brute = all(h.apply(x) in cone_elems for x in cone_elems)
        assert got.is_yes == brute


def test_cone_axioms_checker():
    assert_state(check_cone_axioms(OrthantCone(Z2V), SMALL_BUDGET), "yes")
    bad = ExtensionalCone(Z, frozenset({0, 1, 2}))  # not closed: 1+2=3 missing
    v = check_cone_axioms(bad, SMALL_BUDGET)
    assert_state(v, "no")


def test_clean_scans_read_exhaustive_or_record_their_window():
    # A finite carrier is scanned whole; elsewhere the Yes names its window.
    v = check_cone_axioms(ExtensionalCone(CyclicGroup(5), frozenset({0})))
    assert (v.state.value, v.note, v.budget_used) == ("yes", "exhaustive", ())
    v = cone_subset(OrthantCone(Q), FullCone(Q))
    window = (("window", DEFAULT_BUDGET.window.int_bound),)
    assert (v.state.value, v.note, v.budget_used) == ("yes", "window-verified", window)


def test_cone_subset_and_intersection():
    nat = OrthantCone(Z)
    assert_state(cone_subset(TrivialCone(Z), nat, SMALL_BUDGET), "yes")
    assert_state(cone_subset(FullCone(Z), nat, SMALL_BUDGET), "no")
    both = IntersectionCone(Z, (nat, FullCone(Z)))
    assert_state(both.contains(3), "yes")
    assert_state(both.contains(-3), "no")


def test_cone_carrier_mismatch_raises():
    with pytest.raises(ShapeError, match="lex cone components live on other carriers"):
        LexCone(Semidirect(Z, Z, TrivialAction(Z, Z)), QP, ZN)
    with pytest.raises(ShapeError):
        OrthantCone(Z).contains(Fraction(1, 2))


@settings(max_examples=50)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_leq_translation_invariance(x, y, g):
    if ZN.leq(x, y).is_yes:
        assert ZN.leq(g + x, g + y).is_yes
        assert ZN.leq(x + g, y + g).is_yes


@settings(max_examples=50)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_leq_transitive(x, y, z):
    if ZN.leq(x, y).is_yes and ZN.leq(y, z).is_yes:
        assert ZN.leq(x, z).is_yes


@settings(max_examples=30)
@given(st.integers(-5, 5))
def test_leq_reflexive(x):
    assert ZN.leq(x, x).is_yes


def test_minus_plus_membership_symmetric():
    # -x+y in P iff y-x in P (conjugation closure), on a nonabelian carrier.
    S3 = symmetric_cayley(3)
    cone = ExtensionalCone(S3, oracle_cone_closure(S3, [3]))
    for x in S3.elements():
        for y in S3.elements():
            left = cone.contains(S3.add(S3.neg(x), y)).is_yes
            right = cone.contains(S3.add(y, S3.neg(x))).is_yes
            assert left == right


def test_cone_yes_closed_under_window_ops():
    # The lex cone on the scaling carrier is a genuine cone; membership Yes
    # must be stable under window sums and conjugations.
    sd = Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2)))
    cone = LexCone(sd, QP, OrthantCone(Z))
    w = Window(2, 2, 2)
    members = [x for x in sd.window_elements(w) if cone.contains(x).is_yes]
    assert_state(cone.contains(sd.zero()), "yes")
    for a in members[:20]:
        for b in members[:20]:
            s = sd.add(a, b)
            assert not cone.contains(s).is_no
    carrier_els = sd.window_elements(Window(1, 2, 2))
    for g in carrier_els:
        for a in members[:12]:
            assert not cone.contains(sd.conjugate(g, a)).is_no


def test_generated_cone_cache_safe_under_concurrent_queries():
    from concurrent.futures import ThreadPoolExecutor

    sd = Semidirect(Z, Z, SignAction(Z, Z))
    cone = GeneratedCone(sd, ProductCone(sd, TrivialCone(Z), OrthantCone(Z)))
    queries = [(2 * k, b) for k in range(-3, 4) for b in range(0, 4)]
    expected = {q: cone.contains(q, SMALL_BUDGET).state for q in queries}
    fresh = GeneratedCone(sd, ProductCone(sd, TrivialCone(Z), OrthantCone(Z)))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda q: fresh.contains(q, SMALL_BUDGET).state, queries * 3))
    for q, state in zip(queries * 3, results):
        assert state == expected[q]


def test_generated_cone_builds_its_dual_cone_once(monkeypatch):
    # The separating rays are built on the first exclusion and kept in the
    # cone's cache; a re-parsed document holds new cones and starts cold, as
    # each CLI invocation does.
    built = []
    real = cones_module.dual_cone
    monkeypatch.setattr(cones_module, "dual_cone", lambda rows, n: built.append(rows) or real(rows, n))
    cone = GeneratedCone(Z2V, ((1, 0), (1, 1)))
    excluded = [(0, 1), (-1, 0), (-2, 1), (0, -3), (3, 5)]
    assert all(cone.contains(x, SMALL_BUDGET).is_no for x in excluded)
    assert built == [[(1, 0), (1, 1)]]
    doc = {
        "format": "ordsplit-1",
        "groups": {"Z2": {"kind": "free_abelian", "rank": 2}},
        "cones": {"diag": {"kind": "generated", "group": "Z2", "generators": [["1", "0"], ["1", "1"]]}},
        "queries": [
            {"id": f"q{i}", "op": "cone_contains", "cone": "diag", "element": [str(a), str(b)]}
            for i, (a, b) in enumerate(excluded)
        ],
    }
    for parses in (1, 2):
        report = run(parse_document(doc), SMALL_BUDGET)
        assert [q["verdict"]["state"] for q in report["queries"]] == ["no"] * len(excluded)
        assert len(built) == 1 + parses


def test_generated_cone_excludes_points_outside_the_integer_span():
    # The cone is a monoid inside the generators' integer span, so a point of
    # the rational cone that the span misses is an exact No.
    one, zero = Fraction(1), Fraction(0)
    lattice = generated_cone(DirectProduct((Q, Z)), [(one, 0), (-one, 0), (zero, 1), (zero, -1)])
    v = lattice.contains((Fraction(1, 2), 0), SMALL_BUDGET)
    assert_state(v, "no")
    assert (v.witness, v.note) == ((Fraction(1, 2), 0), "outside the integer span of the generators")
    assert_state(lattice.contains((Fraction(3), -2), SMALL_BUDGET), "yes")
    wedge = generated_cone(Z2V, [(1, 0), (1, 2)])
    v = wedge.contains((1, 1), SMALL_BUDGET)
    assert_state(v, "no")
    assert v.note == "outside the integer span of the generators"
    assert_state(wedge.contains((3, 4), SMALL_BUDGET), "yes")
    assert "functional" in wedge.contains((0, 1), SMALL_BUDGET).note


def test_generated_cone_flattens_an_abelian_semidirect_carrier():
    # Z x| Z under the trivial action is abelian: it flattens to Z^2, where
    # a dual ray separates (-1, 0) and the integer span misses (1, 1).
    sd = Semidirect(Z, Z, TrivialAction(Z, Z))
    wedge = generated_cone(sd, [(1, 0), (1, 2)])
    v = wedge.contains((-1, 0), SMALL_BUDGET)
    assert_state(v, "no")
    assert v.note.startswith("separating functional")
    v = wedge.contains((1, 1), SMALL_BUDGET)
    assert_state(v, "no")
    assert v.note == "outside the integer span of the generators"
    assert_state(wedge.contains((3, 4), SMALL_BUDGET), "yes")


def test_generated_membership_budget_monotone():
    g = generated_cone(Z2V, [(2, 1), (0, 1)])
    small = SaturationBudget(1, 2, Window(2, 4, 2))
    big = SaturationBudget(2, 8, Window(4, 8, 4))
    for el in [(4, 2), (2, 3), (6, 4)]:
        v1 = g.contains(el, small)
        v2 = g.contains(el, big)
        if v1.is_yes:
            assert v2.is_yes
        if v1.is_no:
            assert v2.is_no


def test_public_contains_refuses_malformed_elements():
    # contains checks and _contains trusts: a composite cone hands its parts
    # components it never checks again, so its own contains must refuse.
    for bad in (True, Fraction(1)):
        with pytest.raises(ShapeError):
            OrthantCone(Z).contains(bad)
    shape = ExtensionShape(Z0, ZN, SignAction(Z, Z))
    sd = shape.carrier
    product = ProductCone(sd, TrivialCone(Z), OrthantCone(Z))
    composites = [
        product,
        pullback(point(shape, "minimal"), LinearHom.scalar(Z, Z, Fraction(2)), ZN, SMALL_BUDGET).cone,
        minimal_cone(shape, SMALL_BUDGET),
        GeneratedCone(sd, product),
        LexCone(sd, Z0, ZN),
        FamilyCone(shape, UpSetFibers((0, 1))),
        IntersectionCone(sd, (product, LexCone(sd, Z0, ZN))),
    ]
    assert [type(c).__name__ for c in composites] == [
        "ProductCone", "PullbackCone", "FibreCone", "GeneratedCone", "LexCone", "FamilyCone",
        "IntersectionCone",
    ]
    for cone in composites:
        for bad in ((1,), (1, 0, 0), [0, 1], (True, 0), (0, Fraction(1))):
            with pytest.raises(ShapeError):
                cone.contains(bad, SMALL_BUDGET)


def test_composite_cones_refuse_parts_on_other_carriers():
    sd = Semidirect(Z, Z, TrivialAction(Z, Z))
    with pytest.raises(ShapeError):
        ProductCone(sd, OrthantCone(Q), OrthantCone(Z))
    with pytest.raises(ShapeError):
        LexCone(sd, ZN, QP)


def test_lex_membership_asks_each_base_sign_once(monkeypatch):
    # 0 <= b and b <= 0 are asked once each, whether or not b turns out
    # strictly positive; strictly_positive followed by sim asked each twice.
    # The fibre order is full, so every orthant query is a base query.
    # LexCone asks its parts' trusting _contains.
    calls = []
    orthant_contains = OrthantCone._contains

    def counting(self, x, budget):
        calls.append(x)
        return orthant_contains(self, x, budget)

    monkeypatch.setattr(OrthantCone, "_contains", counting)
    lex = LexCone(Semidirect(Z, Z, TrivialAction(Z, Z)), ZF, ZN)
    for el, state in [((1, 0), "yes"), ((-1, 0), "yes"), ((5, -1), "no"), ((-5, 1), "yes")]:
        calls.clear()
        assert_state(lex.contains(el, SMALL_BUDGET), state, str(el))
        assert len(calls) == 2, (el, calls)


def _scaling_least_cone():
    return minimal_cone(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), SMALL_BUDGET)


def _sign_least_cone():
    return minimal_cone(ExtensionShape(Z0, ZN, SignAction(Z, Z)), SMALL_BUDGET)


# Saturation on Z^2 x| Z is slow at SMALL_BUDGET; this keeps it to 27 elements.
_TINY_BUDGET = SaturationBudget(1, 2, Window(1, 2, 1))


def _swap_least_cone():
    # Z^2 under the swap with N^2: a kernel cone neither {0} nor on Q^k, so
    # fibrewise refuses it; its memberships take _source_route and the later routes.
    return minimal_cone(ExtensionShape(Z2N, ZN, MatrixAction(Z, Z2V, (SWAP,))), _TINY_BUDGET)


def test_least_cones_print_their_source():
    # A point carrying a least cone prints a short tag, not the dataclass
    # repr of the cone's carrier and action.
    pt = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")
    assert str(pt) == "((Q, >=0) -> (Q x| Z), least(>=0 x >=0)) <-> (Z, >=0)"
    swap = _swap_least_cone()
    assert isinstance(swap, GeneratedCone) and str(swap) == "least(>=0 x >=0)"
    sd = Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2)))
    assert str(GeneratedCone(sd, ((Fraction(1), 1), (Fraction(0), 1)))) == "generated(2)"


_SATURATED = (("conjugators", 2), ("summands", 5), ("window", (3, 6, 3)))

# (element, state, note, budget_used) on the least cones of the scaling point
# (Q x| Z, n acting by 2^n) and the sign point (Z x| Z, kernel cone {0}).
# A no's witness is the element itself.
LEAST_CONE_ROUTES = {
    "scaling": [
        ((Fraction(0), 0), "yes", "", ()),
        ((Fraction(1), -1), "no", "base part outside the base cone", ()),
        ((Fraction(0), -2), "no", "base part outside the base cone", ()),
        ((Fraction(-1, 2), 0), "no", "kernel reflects the fibre order", ()),
        ((Fraction(1, 2), 0), "yes", "source element", ()),
        ((Fraction(3), 2), "yes", "source element", ()),
        ((Fraction(0), 3), "yes", "source element", ()),
        ((Fraction(-5, 3), 1), "yes", "fibre in P_X + L_S, S = {e1}", ()),
    ],
    "sign": [
        ((0, 0), "yes", "", ()),
        ((1, -1), "no", "base part outside the base cone", ()),
        ((-1, 0), "no", "kernel reflects the fibre order", ()),
        ((2, 0), "no", "kernel reflects the fibre order", ()),
        ((0, 2), "yes", "source element", ()),
        ((2, 1), "yes", "fibre in P_X + L_S, S = {e1}", ()),
        ((-2, 1), "yes", "fibre in P_X + L_S, S = {e1}", ()),
        ((3, 1), "no", "fibre residue obstruction: fibre outside L_S, S = {e1}", ()),
        ((-4, 2), "yes", "fibre in P_X + L_S, S = {e1}", ()),
    ],
}


@pytest.mark.parametrize("name", sorted(LEAST_CONE_ROUTES))
def test_least_cone_membership_routes(name):
    # Zero, base part outside, source element, the kernel at b = 0, then
    # the fibre P_X + L_S over b >= 1, in that order.
    cone = {"scaling": _scaling_least_cone, "sign": _sign_least_cone}[name]()
    assert isinstance(cone, FibreCone) and isinstance(cone.source, ProductCone)
    for el, state, note, used in LEAST_CONE_ROUTES[name]:
        v = cone.contains(el, SMALL_BUDGET)
        assert (v.state.value, v.note, v.budget_used) == (state, note, used), el
        assert v.witness == (el if state == "no" else None), el


@dataclass(frozen=True)
class _Undecided(Cone):
    group: Group

    def _contains(self, x, budget):
        return unknown("undecided")


def test_undecided_base_part_falls_through_as_before():
    # With the base part unknown, b = 0 still reads the kernel part, and
    # elsewhere the membership goes on to the later routes.
    sd = Semidirect(Q, Z, MatrixAction.scaling(Z, Q, Fraction(2)))
    cone = GeneratedCone(sd, ProductCone(sd, OrthantCone(Q), _Undecided(Z)))
    expected = [
        ((Fraction(1, 2), 0), "yes", "kernel part positive", ()),
        ((Fraction(-1, 2), 0), "no", "kernel reflects the fibre order", ()),
        ((Fraction(1), 1), "unknown", "saturation budget exhausted", _SATURATED),
        ((Fraction(-1), 1), "unknown", "saturation budget exhausted", _SATURATED),
    ]
    for el, state, note, used in expected:
        v = cone.contains(el, SMALL_BUDGET)
        assert (v.state.value, v.note, v.budget_used) == (state, note, used), el


@pytest.mark.parametrize(
    "build, budget, most",
    [
        (_scaling_least_cone, SMALL_BUDGET, 0),
        (_sign_least_cone, SMALL_BUDGET, 0),
        (_swap_least_cone, _TINY_BUDGET, 1),
    ],
    ids=["scaling", "sign", "swap"],
)
def test_certified_membership_asks_each_component_cone_at_most_once(build, budget, most, monkeypatch):
    # The per-cone caches (the fibre tests, conjugator systems and the
    # saturation) are filled by a first pass over the window; the second
    # counts what each membership asks by itself.  A FibreCone reads
    # coordinates and asks neither component cone; any other certified cone
    # asks each at most once.
    cone = build()
    assert isinstance(cone.source, ProductCone) and isinstance(cone, FibreCone) == (most == 0)
    kernel, base = cone.source.x_cone, cone.source.b_cone
    calls = Counter()

    def counting(cls):
        inner = cls._contains

        def _contains(self, x, budget):
            if self is kernel or self is base:
                calls[self is base] += 1
            return inner(self, x, budget)

        return _contains

    for cls in {type(kernel), type(base)}:
        monkeypatch.setattr(cls, "_contains", counting(cls))
    els = cone.group.window_elements(budget.window)
    for el in els:
        cone.contains(el, budget)
    for el in els:
        calls.clear()
        cone.contains(el, budget)
        assert calls[True] <= most and calls[False] <= most, (el, calls)


SWAP, SHEAR = ((0, 1), (1, 0)), ((1, 1), (0, 1))


def _fibre_shapes():
    """(name, shape, window, conjugator box): compatible shapes over (Z^n, N^n)
    whose least cone the fibre route decides; the box holds the r of the
    brute-force decompositions below."""
    QT = TrivialCone(Q)
    Q2P, Q2T = OrthantCone(Q2V), TrivialCone(Q2V)
    Z2T = TrivialCone(Z2V)
    wide, narrow, rational_box = Window(3, 6, 3), Window(2, 2, 2), Window(6, 12, 6)
    by_2_and_3 = MatrixAction(Z2V, Q, (((2,),), ((3,),)))
    by_2_and_1 = MatrixAction(Z2V, Q, (((2,),), ((1,),)))
    flips = MatrixAction(Z2V, Z2V, (((-1, 0), (0, 1)), ((1, 0), (0, -1))))
    return [
        ("Q-scaling-2", ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), wide, rational_box),
        ("Q-scaling-1_3", ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(1, 3))), wide, rational_box),
        ("Q-trivial-scaling-2", ExtensionShape(QT, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), wide, rational_box),
        ("Q-trivial-sign", ExtensionShape(QT, ZN, MatrixAction(Z, Q, (((-1,),),))), wide, rational_box),
        ("Q2-swap", ExtensionShape(Q2P, ZN, MatrixAction(Z, Q2V, (SWAP,))), narrow, narrow),
        ("Q2-trivial-shear", ExtensionShape(Q2T, ZN, MatrixAction(Z, Q2V, (SHEAR,))), narrow, narrow),
        ("Q-over-Z2-by-2-and-3", ExtensionShape(QP, Z2N, by_2_and_3), narrow, narrow),
        ("Z-trivial-sign", ExtensionShape(Z0, ZN, SignAction(Z, Z)), wide, narrow),
        ("Z2-trivial-swap", ExtensionShape(Z2T, ZN, MatrixAction(Z, Z2V, (SWAP,))), narrow, narrow),
        ("Z2-trivial-shear", ExtensionShape(Z2T, ZN, MatrixAction(Z, Z2V, (SHEAR,))), narrow, narrow),
        # Two commuting sign flips: L_S is 2Z on the flipped coordinates of S,
        # so r in {-1, 0, 1} reaches every fibre of the window.
        ("Z2-trivial-over-Z2-by-sign-flips", ExtensionShape(Z2T, Z2N, flips), narrow, Window(1, 1, 1)),
        # L_S is Q when S holds e1 and 0 on S = {e2}.
        ("Q-trivial-over-Z2-by-2-and-1", ExtensionShape(QT, Z2N, by_2_and_1), narrow, narrow),
    ]


def _sum_of_conjugates(shape, x, conjugates):
    """Is x = (p, 0) + sum over i in S of conj_(r_i, 0)(0, e_i) + (0, b - e_S)
    for some p in P_X and r_i in the box, S = supp(b)?  conjugates[i] lists
    conj_(r, 0)(0, e_i) over the box.  Group arithmetic only: each summand is
    a conjugate of an element of the componentwise cone."""
    G, X, B = shape.carrier, shape.x.group, shape.b.group
    coords = B.coords(x[1])
    S = [i for i, c in enumerate(coords) if c]
    rest = (X.zero(), B.from_coords([c - (c > 0) for c in coords]))
    for summands in itertools.product(*(conjugates[i] for i in S)):
        total = rest
        for c in reversed(summands):
            total = G.add(c, total)
        p, base = G.add(x, G.neg(total))
        assert base == B.zero()
        if shape.x.contains(p).is_yes:
            return True
    return False


@pytest.mark.parametrize(
    "name, shape, window, box", _fibre_shapes(), ids=[s[0] for s in _fibre_shapes()]
)
def test_fibre_route_matches_sums_of_conjugates_and_the_old_routes(name, shape, window, box):
    # The FibreCone decides every window element through the source, the
    # structural shortcuts and the fibre test.  A fibre yes is a brute-force
    # sum of conjugates, and a fibre no has none in the box.  At a small
    # budget, two GeneratedCones never contradict it: the one over the same
    # componentwise cone, and the one of that cone's window sample as
    # generators (so on the old routes: conjugator, fibre lattice and
    # saturation).
    budget = SaturationBudget(1, 2, window)
    cone = minimal_cone(shape, budget)
    assert isinstance(cone, FibreCone)
    general = GeneratedCone(cone.group, cone.source)
    old = GeneratedCone(cone.group, tuple(cone.source.positive_sample(window, budget)))
    G, X, B = shape.carrier, shape.x.group, shape.b.group
    conjugates = [
        [G.conjugate((r, B.zero()), (X.zero(), e)) for r in X.window_elements(box)]
        for e in B.generators()
    ]
    fibre_yes = 0
    for x in G.window_elements(window):
        v = cone.contains(x, budget)
        assert not v.is_unknown, (name, x, v)
        if "L_S" in v.note:
            fibre_yes += v.is_yes
            assert _sum_of_conjugates(shape, x, conjugates) == v.is_yes, (name, x, v)
        for reference in (general, old):
            w = reference.contains(x, budget)
            assert w.is_unknown or w.state == v.state, (name, x, v, w)
    assert fibre_yes, name


def _coordinate_route_cases():
    """(name, shape, budget): every _fibre_shapes() shape, and the scaling
    point's pullback along n -> 3n."""
    cases = [(name, shape, SaturationBudget(1, 2, window)) for name, shape, window, _ in _fibre_shapes()]
    budget = SaturationBudget(2, 6, Window(3, 6, 3))
    scaling = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")
    pb = pullback(scaling, LinearHom.scalar(Z, Z, Fraction(3)), ZN, budget)
    return cases + [("scaling-pullback-3n", pb, budget)]


@pytest.mark.parametrize(
    "name, shape, budget", _coordinate_route_cases(), ids=[c[0] for c in _coordinate_route_cases()]
)
def test_coordinate_route_answers_as_the_zero_source_and_fibre_routes(name, shape, budget):
    # On every window element, the FibreCone gives the verdict, witness,
    # note and budget trail of the zero test, _source_route and _fibre_route
    # composed, run on a second cone.  The window is asked backwards, so the
    # fibre table of the fresh cone fills in another order than the window's.
    cone, reference = minimal_cone(shape, budget), minimal_cone(shape, budget)
    assert isinstance(cone, FibreCone)
    assert cone is not reference and not cone._fibres
    for x in reversed(cone.group.window_elements(budget.window)):
        v = cone.contains(x, budget)
        w = reference_least_cone_route(reference, x, budget)
        assert (v.state, v.witness, v.note, v.budget_used) == (
            w.state, w.witness, w.note, w.budget_used
        ), (name, x)
    assert set(cone._fibres) == set(cone.group.b_group.window_elements(budget.window))


def test_minimal_cone_is_a_fibre_cone_exactly_where_fibrewise_holds():
    # minimal_cone checks fibrewise once: a FibreCone on every shape above
    # and on the sweep's pullback, a GeneratedCone on the swap point, on the
    # scaling point pulled back from (Z, {0}) and on a base cone that decides
    # nothing (compatible under a trivial action, which scans no units).
    scaling = point(ExtensionShape(QP, ZN, MatrixAction.scaling(Z, Q, Fraction(2))), "minimal")
    from_trivial = pullback(scaling, LinearHom.scalar(Z, Z, Fraction(-1)), Z0, SMALL_BUDGET)
    undecided = ExtensionShape(QP, _Undecided(Z), TrivialAction(Z, Q))
    general = [_swap_least_cone()] + [minimal_cone(s, SMALL_BUDGET) for s in (from_trivial, undecided)]
    exact = [minimal_cone(shape, budget) for _, shape, budget in _coordinate_route_cases()]
    for built, kind in ((general, GeneratedCone), (exact, FibreCone)):
        for cone in built:
            assert type(cone) is kind and isinstance(cone.source, ProductCone), cone
            assert fibrewise(cone.group, cone.source) == (kind is FibreCone), cone
    for source in (general[1].source, ((Fraction(0), 1),)):
        with pytest.raises(ShapeError):
            FibreCone(general[1].group, source)


def test_a_fibre_of_all_of_q_asks_no_dual_ray(monkeypatch):
    # Under scaling by 2 with P_X = {0}, L_S = Im(1 - 2) is all of Q: its
    # dual cone has no rays, and every fibre yes skips feasible_strict.
    shape = ExtensionShape(TrivialCone(Q), ZN, MatrixAction.scaling(Z, Q, Fraction(2)))
    budget = SaturationBudget(1, 2, Window(2, 2, 2))
    cone = minimal_cone(shape, budget)
    calls = []
    feasible_strict = cones_module.feasible_strict
    monkeypatch.setattr(cones_module, "feasible_strict", lambda *a: calls.append(a) or feasible_strict(*a))
    fibre_yes = [x for x in cone.group.window_elements(budget.window)
                 if "L_S" in cone.contains(x, budget).note]
    assert fibre_yes and calls == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_finite_closure_matches_the_fixpoint_oracle(seed, k):
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    carrier = Semidirect(x_cone.group, b_cone.group, action)
    S = rng.sample(carrier.elements(), k)
    assert _finite_closure(carrier, S) == oracle_cone_closure(carrier, S)


def _random_finite_set(rng: random.Random, G: Group, kind: str) -> frozenset:
    """A closed cone, a subgroup (often not normal) or a set holding 0."""
    els = G.elements()
    seed = rng.sample(els, rng.randint(0, 2))
    if kind == "closure":
        return _finite_closure(G, seed)
    if kind == "subgroup":
        return frozenset(word_ball(G, seed))
    return frozenset(rng.sample(els, rng.randint(0, len(els)))) | {G.zero()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["closure", "subgroup", "subset"]))
def test_finite_closure_test_matches_the_pairwise_oracle(seed, kind):
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    carrier = Semidirect(x_cone.group, b_cone.group, action)
    S = _random_finite_set(rng, carrier, kind)
    assert ExtensionalCone(carrier, S).known_cone() == oracle_is_closed(carrier, S)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["closure", "subgroup", "subset"]))
def test_units_of_a_finite_set_match_the_membership_scan(seed, kind):
    # A closed cone returns itself; the report must be the scan's, field
    # for field.  Any other set is scanned.
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    carrier = Semidirect(x_cone.group, b_cone.group, action)
    cone = ExtensionalCone(carrier, _random_finite_set(rng, carrier, kind))
    for budget in (DEFAULT_BUDGET, SMALL_BUDGET):
        assert units_subgroup(cone, budget) == oracle_units_scan(cone, budget)
    for part in (x_cone, b_cone):
        assert units_subgroup(part) == oracle_units_scan(part)


def _z8_by_sign_of_s3() -> Semidirect:
    """Z_8 x| S_3, an odd permutation acting by negation: 48 elements."""
    X, B = CyclicGroup(8), symmetric_cayley(3)
    perms = sorted(itertools.permutations(range(3)))
    odd = {i for i, p in enumerate(perms)
           if sum(p[a] > p[b] for a, b in itertools.combinations(range(3), 2)) % 2}
    ident = TableHom.from_dict(X, X, {x: x for x in X.elements()})
    neg = TableHom.from_dict(X, X, {x: X.neg(x) for x in X.elements()})
    table = {b: neg if b in odd else ident for b in B.elements()}
    return Semidirect(X, B, FiniteTableAction.from_homs(B, X, table))


def test_finite_closure_is_decided_from_generators(monkeypatch):
    # The pairwise test spends |S|^2 additions and |G||S| conjugations; the
    # generator walk must stay far below that on every closed cone here.
    G = _z8_by_sign_of_s3()
    calls = Counter()

    def counting(name):
        real = getattr(Semidirect, name)

        def op(self, *args):
            if self is G:
                calls[name] += 1
            return real(self, *args)

        return op

    for name in ("_add", "_conjugate"):
        monkeypatch.setattr(Semidirect, name, counting(name))
    kernel = frozenset((x, 0) for x in G.x_group.elements())
    for S in (frozenset(G.elements()), kernel, _finite_closure(G, [(0, 1)])):
        calls.clear()
        assert ExtensionalCone(G, S).known_cone()
        pairwise = len(S) ** 2 + len(G.elements()) * len(S)
        assert 0 < 8 * sum(calls.values()) <= pairwise, (len(S), calls)


def _cones_on(rng: random.Random, carrier: Semidirect, x_cone: Cone, b_cone: Cone) -> list:
    """The product and lex cones of the shape and a lex cone over a random
    base set (a closed base cone on a finite group is all units), a
    closure, a random subset, the trivial and the full cone of the carrier."""
    B = b_cone.group
    return [
        ProductCone(carrier, x_cone, b_cone),
        LexCone(carrier, x_cone, b_cone),
        LexCone(carrier, x_cone, ExtensionalCone(B, _random_finite_set(rng, B, "subset"))),
        ExtensionalCone(carrier, _random_finite_set(rng, carrier, "closure")),
        ExtensionalCone(carrier, _random_finite_set(rng, carrier, "subset")),
        TrivialCone(carrier),
        FullCone(carrier),
    ]


def _scan_members(C: Cone) -> frozenset:
    return frozenset(x for x in C.group.elements() if C.contains(x).is_yes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_member_set_routes_match_the_membership_scans(seed):
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    carrier = Semidirect(x_cone.group, b_cone.group, action)
    cones = _cones_on(rng, carrier, x_cone, b_cone)
    for C in cones:
        assert C.finite_members() == _scan_members(C), C
    budget = DEFAULT_BUDGET
    clean = clean_scan(carrier, budget.window)
    for P, Q in itertools.product(cones, repeat=2):
        for lower, upper in ((True, False), (False, True), (True, True)):
            assert (_scan_inclusions(P, Q, lower, upper, budget, clean)
                    == oracle_scan_inclusions(P, Q, lower, upper, budget, clean)), (P, Q)
        fast = cone_subset(P, Q), cones_equal(P, Q)
        with mock.patch.object(cones_module, "_scan_inclusions", oracle_scan_inclusions):
            assert fast == (cone_subset(P, Q), cones_equal(P, Q)), (P, Q)
    # pointwise_sim_id against its scan of x_cone.sim, for every phi_b, on
    # cones of the kernel with and without a member set.
    X = x_cone.group
    kernel_cones = [x_cone, TrivialCone(X), FullCone(X),
                    ExtensionalCone(X, _random_finite_set(rng, X, "subset")),
                    IntersectionCone(X, (x_cone, FullCone(X)))]
    for b in b_cone.group.elements():
        h = action.as_hom(b)
        for C in kernel_cones:
            scan = for_all_members(
                X.elements(), None, lambda x: C.sim(h.apply(x), x, budget),
                "automorphism moves an element", "pointwise comparison hit undecided memberships",
                clean_scan(X, budget.window),
            )
            assert pointwise_sim_id(h, C, budget) == scan, (b, C)
    # compatible_exists walks the picked unit generators; walking every
    # unit gives the same verdict.
    for px, pb in itertools.product(kernel_cones[:4], (b_cone, FullCone(b_cone.group))):
        shape = ExtensionShape(px, pb, action)
        with mock.patch.object(extensions_module, "greedy_generators", lambda G, pool: None):
            every_unit = compatible_exists(shape)
        assert compatible_exists(shape) == every_unit, shape


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cone_axioms_read_member_sets_as_the_membership_scan(seed):
    # check_cone_axioms asks through membership(cone); its verdict must be
    # the contains scan's, field for field, with and without a member set.
    rng = random.Random(seed)
    x_cone, b_cone, action = random_finite_extension(rng)
    carrier = Semidirect(x_cone.group, b_cone.group, action)
    X = x_cone.group
    for C in _cones_on(rng, carrier, x_cone, b_cone) + [
        x_cone, IntersectionCone(X, (x_cone, FullCone(X))),
        ExtensionalCone(X, _random_finite_set(rng, X, "subset")),
    ]:
        for budget in (DEFAULT_BUDGET, SMALL_BUDGET):
            assert check_cone_axioms(C, budget) == oracle_check_cone_axioms(C, budget), C


def test_finite_split_queries_read_member_sets(monkeypatch):
    # On the 48-element carrier, the point queries, the lattice and
    # compatible_exists ask the product and lex cones no membership.
    G = _z8_by_sign_of_s3()
    X, B = G.x_group, G.b_group
    calls = Counter()
    for cls in (ProductCone, LexCone):
        def counting(self, x, budget, _real=cls._contains, _name=cls.__name__):
            calls[_name] += 1
            return _real(self, x, budget)

        monkeypatch.setattr(cls, "_contains", counting)
    x_cones = (TrivialCone(X), generated_cone(X, [4]), generated_cone(X, [2]), FullCone(X))
    b_cones = (TrivialCone(B), generated_cone(B, [3]), FullCone(B))  # 3 is a 3-cycle: A_3
    seen = Counter()
    for px, pb in itertools.product(x_cones, b_cones):
        shape = ExtensionShape(px, pb, G.action)
        exists = compatible_exists(shape)
        seen[exists.state.value] += 1
        assert enumerate_compatible_cones(shape, ExhaustiveFinite()).count <= 1
        if not exists.is_yes:
            continue
        for tag in ("product", "lex", "minimal"):
            pt = point(shape, tag)
            for v in (is_rali(pt), is_strong(pt)):
                seen[v.state.value] += 1
    assert calls == Counter(), calls
    assert seen["yes"] and seen["no"], seen


def test_is_compatible_reads_member_sets(monkeypatch):
    # The product cone of ({0,2,4,6}, A_3) on the 48-element carrier: the
    # cone axioms and both comparisons ask it no membership (769 when the
    # axioms asked contains).
    G = _z8_by_sign_of_s3()
    calls = Counter()
    real = ProductCone._contains

    def counting(self, x, budget):
        calls["ProductCone"] += 1
        return real(self, x, budget)

    monkeypatch.setattr(ProductCone, "_contains", counting)
    shape = ExtensionShape(generated_cone(G.x_group, [2]), generated_cone(G.b_group, [3]), G.action)
    assert_state(is_compatible(product_cone(shape), shape), "yes")
    assert calls == Counter(), calls
