import random

import pytest
from fractions import Fraction

from ordsplit.classifiers import monotone_aut
from ordsplit.cones import OrthantCone
from ordsplit.groups import (
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    RationalVector,
    Semidirect,
    StructureError,
)
from ordsplit.actions import MatrixAction, SignAction
from ordsplit.homs import (
    FreeImagesHom,
    IdentityHom,
    KernelHom,
    LinearHom,
    PairHom,
    ProjectionHom,
    SectionHom,
    TableHom,
    check_homomorphism,
    enumerate_automorphisms,
    enumerate_homomorphisms,
    first_difference,
    invert,
)
from ordsplit.verdict import Window

from helpers import assert_state, compose, klein_four, oracle_automorphisms, symmetric_cayley

Z = FreeAbelian(1)
Q = RationalVector(1)


def test_scalar_and_linear_apply():
    assert LinearHom.scalar(Z, Z, Fraction(3)).apply(4) == 12
    # A 1 x 1 matrix prints as the scalar it is.
    assert str(LinearHom.scalar(Z, Z, -3)) == "(*-3)"
    m = LinearHom(FreeAbelian(2), FreeAbelian(2), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert m.apply((2, 5)) == (5, 2)


def test_scalar_into_integers_must_be_integral():
    with pytest.raises(StructureError):
        LinearHom.scalar(Z, Z, Fraction(1, 2))
    # fine into Q
    h = LinearHom.scalar(Q, Q, Fraction(1, 2))
    assert h.apply(Fraction(3)) == Fraction(3, 2)


def test_no_nonzero_map_from_rationals_into_integers():
    # Q is divisible and Z has no nonzero divisible element: Hom(Q^k, Z^m) = 0.
    Z2 = FreeAbelian(2)
    with pytest.raises(StructureError, match="no nonzero map from Q into Z"):
        LinearHom(Q, Z, ((Fraction(2),),))
    with pytest.raises(StructureError, match="no nonzero map"):
        LinearHom(RationalVector(2), Z2, ((0, 0), (0, 1)))
    with pytest.raises(StructureError, match="no nonzero map"):
        LinearHom.scalar(Q, Z, Fraction(3))
    assert LinearHom(Q, Z2, ((0,), (0,))).apply(Fraction(1, 4)) == (0, 0)
    assert LinearHom.scalar(Q, Z, Fraction(0)).apply(Fraction(1, 4)) == 0


def _additive_on_window(h, window):
    els = h.source.window_elements(window)
    add = h.source.add
    return all(h.apply(add(a, b)) == h.target.add(h.apply(a), h.apply(b)) for a in els for b in els)


def test_check_homomorphism_linear_yes():
    # On an infinite source a map is additive by construction, the yes that
    # stands in for check_homomorphism there; a window scan agrees.
    m = LinearHom(FreeAbelian(2), FreeAbelian(2), ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    assert m.additive_by_construction() and _additive_on_window(m, Window(3, 3, 1))


def test_check_homomorphism_bad_table_no():
    Z2, Z3 = CyclicGroup(2), CyclicGroup(3)
    h = TableHom.from_dict(Z2, Z3, {0: 0, 1: 1})
    v = check_homomorphism(h)
    assert_state(v, "no")
    assert v.witness == (1, 1)


def test_check_homomorphism_generator_images_rational():
    h = FreeImagesHom(Z, Q, (Fraction(1, 2),))
    assert h.additive_by_construction() and _additive_on_window(h, Window(3, 4, 2))
    assert h.apply(3) == Fraction(3, 2)


def test_enumerate_automorphisms_counts():
    assert len(enumerate_automorphisms(CyclicGroup(1))) == 1
    assert len(enumerate_automorphisms(CyclicGroup(6))) == 2
    assert len(enumerate_automorphisms(klein_four())) == 6
    assert len(enumerate_automorphisms(symmetric_cayley(3))) == 6


def test_enumerate_automorphisms_matches_permutation_oracle():
    for G in (CyclicGroup(4), CyclicGroup(6), klein_four()):
        assert len(enumerate_automorphisms(G)) == oracle_automorphisms(G)


def test_automorphisms_closed_under_composition_and_inverse():
    G = klein_four()
    auts = enumerate_automorphisms(G)
    tables = {h.pairs for h in auts}
    identity_table = tuple(sorted((x, x) for x in G.elements()))
    assert identity_table in tables
    for h1 in auts:
        assert invert(h1).pairs in tables
        for h2 in auts:
            assert compose(h1, h2).pairs in tables


def test_enumerate_homomorphisms_refuses_an_infinite_source_or_target():
    for G, H in ((Z, Z), (CyclicGroup(2), Z), (FreeAbelian(2), CyclicGroup(2))):
        with pytest.raises(StructureError, match="both groups must be finite"):
            enumerate_homomorphisms(G, H)


def test_enumerate_homomorphisms_z2_to_k4():
    homs = enumerate_homomorphisms(CyclicGroup(2), klein_four())
    assert len(homs) == 4


def test_structure_maps_of_semidirect():
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    k, s, p = KernelHom(sd), SectionHom(sd), ProjectionHom(sd)
    assert k.apply(5) == (5, 0)
    assert s.apply(3) == (0, 3)
    assert p.apply((7, 2)) == 2
    for h in (k, s, p):
        assert h.additive_by_construction() and _additive_on_window(h, Window(3, 3, 1))


def test_pair_hom_and_inverse():
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    h = PairHom(sd, sd, IdentityHom(Z), LinearHom.scalar(Z, Z, Fraction(-1)))
    assert h.apply((3, 2)) == (3, -2)
    hi = invert(h)
    assert hi.apply((3, -2)) == (3, 2)


def test_compose_simplifies_scalars():
    h = compose(LinearHom.scalar(Z, Z, Fraction(2)), LinearHom.scalar(Z, Z, Fraction(3)))
    assert h == LinearHom.scalar(Z, Z, 6)


def test_invert_linear_unimodular():
    m = LinearHom(FreeAbelian(2), FreeAbelian(2), ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    inv = invert(m)
    assert inv.apply(m.apply((2, 3))) == (2, 3)


def _invertible_representations():
    Z2, Q2 = FreeAbelian(2), RationalVector(2)
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    c5 = CyclicGroup(5)
    return [
        pytest.param(IdentityHom(Z2), id="identity"),
        pytest.param(LinearHom.scalar(Z, Z, Fraction(-1)), id="scalar-z"),
        pytest.param(LinearHom.scalar(Q, Q, Fraction(-2, 3)), id="scalar-q"),
        pytest.param(LinearHom(Z2, Z2, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))),
                     id="linear-z"),
        pytest.param(LinearHom(Q2, Q2, ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-1)))),
                     id="linear-q"),
        pytest.param(TableHom.from_dict(c5, c5, {a: 2 * a % 5 for a in range(5)}), id="table"),
        pytest.param(PairHom(sd, sd, LinearHom.scalar(Z, Z, Fraction(-1)), IdentityHom(Z)), id="pair"),
    ]


@pytest.mark.parametrize("h", _invertible_representations())
def test_invert_is_a_two_sided_inverse_on_a_window(h):
    # order_iso_check trusts invert() to be exact, without a round-trip scan.
    inv = invert(h)
    assert inv is not None
    assert inv.source == h.target and inv.target == h.source
    window = Window(3, 4, 3)
    for x in h.source.window_elements(window):
        assert inv.apply(h.apply(x)) == x
    for y in h.target.window_elements(window):
        assert h.apply(inv.apply(y)) == y


def test_check_homomorphism_refuses_an_infinite_source():
    # Equivariance of a pair map cannot be certified from the representation,
    # and a window scan cannot decide additivity on an infinite source.
    sd = Semidirect(Z, Z, SignAction(Z, Z))
    h = PairHom(sd, sd, IdentityHom(Z), IdentityHom(Z))
    assert not h.additive_by_construction()
    with pytest.raises(StructureError, match="finite sources only"):
        check_homomorphism(h)


def test_verdict_is_not_boolean():
    import pytest as _pytest
    from ordsplit.verdict import yes as _yes

    with _pytest.raises(TypeError):
        bool(_yes())


def test_free_images_into_noncommuting_targets_rejected():
    S3 = symmetric_cayley(3)
    a = next(x for x in S3.elements() if x != S3.zero())
    b = next(x for x in S3.elements() if x != S3.zero() and S3.add(a, x) != S3.add(x, a))
    with pytest.raises(StructureError):
        FreeImagesHom(FreeAbelian(2), S3, (a, b))


@pytest.mark.parametrize("seed", range(4))
def test_first_difference_matches_a_full_scan(seed):
    # Seeded pairs of homomorphisms: generators decide them exactly when a
    # scan of every element (finite) or of a window (Z^2, Q^2) finds no
    # difference.  Each pair is equal about half the time.
    rng = random.Random(seed)
    finite = [klein_four(), DirectProduct((CyclicGroup(2), CyclicGroup(4))), symmetric_cayley(3)]
    pairs = []
    for G in finite:
        homs = enumerate_homomorphisms(G, G)
        for _ in range(12):
            f = rng.choice(homs)
            g = TableHom(G, G, f.pairs) if rng.random() < 0.5 else rng.choice(homs)
            pairs.append((G, f, g, G.elements()))
    for G in (FreeAbelian(2), RationalVector(2)):
        entries = [Fraction(n) for n in range(-2, 3)]
        if isinstance(G, RationalVector):
            entries += [Fraction(n, 2) for n in (-3, -1, 1, 3)]
        for _ in range(12):
            m = [[rng.choice(entries) for _ in range(2)] for _ in range(2)]
            other = [row[:] for row in m]
            if rng.random() < 0.5:
                other[rng.randrange(2)][rng.randrange(2)] += 1
            f, g = (LinearHom(G, G, tuple(map(tuple, a))) for a in (m, other))
            pairs.append((G, f, g, G.window_elements(Window(2, 2, 2))))
    seen = set()
    for G, f, g, scan in pairs:
        got = first_difference(G, f.apply, g.apply)
        equal = all(f.apply(x) == g.apply(x) for x in scan)
        assert (got is None) == equal, (G, f, g)
        if got is not None:
            assert got in G.generators() and f.apply(got) != g.apply(got)
        seen.add(equal)
    assert seen == {True, False}


def test_first_difference_refuses_a_carrier_its_generators_do_not_decide():
    aut = monotone_aut(OrthantCone(Q))
    with pytest.raises(StructureError, match="do not decide"):
        first_difference(aut, lambda a: a, lambda a: a)


def test_matrix_strings_print_exact_entries():
    Z, Q, Q2 = FreeAbelian(1), RationalVector(1), RationalVector(2)
    strings = [
        str(MatrixAction.scaling(Z, Q, Fraction(2))),
        str(LinearHom(Q2, Q2, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1))))),
        str(FreeImagesHom(Z, Q, (Fraction(1, 2),))),
    ]
    assert strings == ["matrix(((2)))", "linear((1, 1/2), (0, 1))", "gen-images(1/2)"]
    assert not any("Fraction(" in s for s in strings)
