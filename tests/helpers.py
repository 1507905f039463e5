"""Shared builders and independent brute-force oracles.

The brute-force oracles here use only raw group arithmetic (add/neg/conjugate)
so they stay independent of the cone machinery they are used to check.
definitional_compatible is the paper's other compatibility route, built from
the library's monotonicity checks, for comparison with is_compatible, and
reference_least_cone_route is the route composition whose verdicts the least
cone's coordinate route must repeat exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ordsplit.actions import FiniteTableAction, ProductAction
from ordsplit.cones import (
    Cone,
    ExtensionalCone,
    FullCone,
    GeneratedCone,
    PointProductCone,
    ProductCone,
    _fibre_test,
    check_cone_axioms,
    is_monotone,
)
from ordsplit.extensions import (
    ExplicitFibers,
    ExtensionShape,
    FamilyCone,
    SplitExtension,
    compatible_exists,
    point,
    pointwise_sim_id,
)
from ordsplit.groups import (
    CayleyGroup,
    CyclicGroup,
    DirectProduct,
    Group,
    ShapeError,
    StructureError,
)
from ordsplit.homs import (
    Homomorphism,
    IdentityHom,
    KernelHom,
    LinearHom,
    ProjectionHom,
    SectionHom,
    TableHom,
    enumerate_homomorphisms,
)
from ordsplit.linalg import mat_mul
from ordsplit.points import (
    StablyStrongReport,
    default_base_catalog,
    is_rali,
    is_strong,
    stably_strong_over,
)
from ordsplit.verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    Window,
    for_all_members,
    no,
    vall,
    vand,
    vnot,
    yes,
)

SMALL_BUDGET = SaturationBudget(2, 5, Window(3, 6, 3))


def assert_state(verdict, state: str, msg: str = ""):
    assert verdict.state.value == state, f"{msg or 'verdict'}: got {verdict}"


def symmetric_cayley(n: int) -> CayleyGroup:
    perms = sorted(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}

    def comp(p, q):
        return tuple(p[q[i]] for i in range(n))

    table = tuple(tuple(idx[comp(p, q)] for q in perms) for p in perms)
    return CayleyGroup(table, idx[tuple(range(n))])


def klein_four() -> DirectProduct:
    return DirectProduct((CyclicGroup(2), CyclicGroup(2)))


@dataclass(frozen=True)
class ComposedHom(Homomorphism):
    outer: Homomorphism
    inner: Homomorphism

    def __post_init__(self):
        if self.inner.target != self.outer.source:
            raise StructureError("composition mismatch")

    @property
    def source(self):
        return self.inner.source

    @property
    def target(self):
        return self.outer.target

    def _apply(self, el):
        return self.outer._apply(self.inner._apply(el))

    def as_matrix(self):
        a, b = self.outer.as_matrix(), self.inner.as_matrix()
        if a is not None and b is not None:
            return mat_mul(a, b)
        return None

    def additive_by_construction(self):
        return self.outer.additive_by_construction() and self.inner.additive_by_construction()

    def __str__(self):
        return f"{self.outer} . {self.inner}"


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner, simplified where the representations allow."""
    if inner.target != outer.source:
        raise StructureError("composition mismatch")
    if isinstance(outer, IdentityHom):
        return inner
    if isinstance(inner, IdentityHom):
        return outer
    if isinstance(outer, LinearHom) and isinstance(inner, LinearHom):
        return LinearHom(inner.source, outer.target, mat_mul(outer.matrix, inner.matrix))
    if isinstance(inner, TableHom):
        return TableHom.from_dict(
            inner.source, outer.target, {a: outer.apply(b) for a, b in inner.pairs}
        )
    return ComposedHom(outer, inner)


def strictly_positive(P: Cone, b, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """0 <= b and not b <= 0 in P; the No side must be exact for a Yes."""
    pos = P.leq(P.group.zero(), b, budget)
    back = P.leq(b, P.group.zero(), budget)
    return vand(pos, vnot(back, b))


# --- constructions that only the tests use ------------------------------------


@dataclass(frozen=True)
class IntersectionCone(Cone):
    group: Group
    cones: tuple[Cone, ...]

    def __post_init__(self):
        for c in self.cones:
            if c.group != self.group:
                raise ShapeError("intersection components live on different carriers")

    def _contains(self, x, budget):
        return vand(*(c._contains(x, budget) for c in self.cones))

    def known_cone(self):
        return all(c.known_cone() for c in self.cones)

    def __str__(self):
        return " & ".join(str(c) for c in self.cones)


def point_product(pt1: SplitExtension, pt2: SplitExtension) -> SplitExtension:
    """Componentwise product of two points in the category of points."""
    x_group = DirectProduct((pt1.x.group, pt2.x.group))
    b_group = DirectProduct((pt1.b.group, pt2.b.group))
    x = ProductCone(x_group, pt1.x, pt2.x)
    b = ProductCone(b_group, pt1.b, pt2.b)
    shape = ExtensionShape(x, b, ProductAction(pt1.action, pt2.action))
    return point(shape, PointProductCone(shape.carrier, pt1.cone, pt2.cone))


@dataclass(frozen=True)
class PointClassification:
    rali: Verdict
    strong: Verdict
    stably_strong: StablyStrongReport


def classify_point(
    pt: SplitExtension,
    catalog: list[tuple[Cone, Homomorphism]] | None = None,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> PointClassification:
    if catalog is None:
        catalog = default_base_catalog(pt.b)
    return PointClassification(
        rali=is_rali(pt, budget),
        strong=is_strong(pt, budget),
        stably_strong=stably_strong_over(pt, catalog, budget),
    )


def is_minimal_equal_product(
    shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Least cone equals the componentwise cone iff positives act pointwise ~ id."""
    v = compatible_exists(shape, budget)
    if not v.is_yes:
        raise StructureError(f"no compatible order known: {v}")
    gens, note = shape.b.finite_generators(), "on positive generators"
    if gens is None:
        gens, note = shape.b.positive_sample(budget.window, budget), "window-verified"
    v = vall(
        (b, pointwise_sim_id(shape.action.as_hom(b), shape.x, budget))
        for b in gens
        if not shape.action.is_identity_for(b)
    )
    if v.is_no:
        return no(v.witness, "positive base element acts nontrivially")
    return yes(note) if v.is_yes else v


def cone_to_family(
    P: Cone,
    shape: ExtensionShape,
    window: Window | None = None,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> FamilyCone:
    """Window snapshot of a cone as explicit fibres X_b = {x : (x,b) in P}."""
    if isinstance(P, FamilyCone):
        return P
    window = window or budget.window
    fibers = []
    for b in shape.b.group.window_elements(window):
        fib = frozenset(
            x
            for x in shape.x.group.window_elements(window)
            if P.contains((x, b), budget).is_yes
        )
        fibers.append((b, fib))
    return FamilyCone(shape, ExplicitFibers(tuple(sorted(fibers, key=repr))))


# --- reference routes -----------------------------------------------------------


def reference_least_cone_route(cone, x, budget: SaturationBudget) -> Verdict:
    """Membership of x in a FibreCone by the composition its route stands
    for: the zero test, then the source shortcuts of a GeneratedCone over
    the same source (which ask the component cones), then the fibre test
    of supp(b), built from b's coordinates here rather than read from the
    cone's tables."""
    if x == cone.group.zero():
        return yes()
    v = GeneratedCone(cone.group, cone.source)._source_route(x, budget)
    if v is not None:
        return v
    y, b = x
    S = tuple(i for i, c in enumerate(cone.group.b_group.coords(b)) if c)
    test = _fibre_test(cone.group, S, cone._kernel_orthant)
    return cone._fibre_route(x, test, cone.group.x_group.coords(y))


# --- independent oracles --------------------------------------------------------


def oracle_cone_closure(G: Group, seed) -> frozenset:
    """Least subset containing seed and 0, closed under + and conjugation."""
    els = G.elements()
    S = {G.zero()} | set(seed)
    changed = True
    while changed:
        changed = False
        for g in els:
            for x in list(S):
                c = G.conjugate(g, x)
                if c not in S:
                    S.add(c)
                    changed = True
        for a in list(S):
            for b in list(S):
                c = G.add(a, b)
                if c not in S:
                    S.add(c)
                    changed = True
    return frozenset(S)


def oracle_words(G: Group, max_len: int) -> list:
    """The sums of at most max_len generators of G and their negatives, in
    breadth-first order from 0."""
    gens = list(G.generators())
    steps = gens + [G.neg(g) for g in gens]
    seen = {G.zero()}
    frontier = [G.zero()]
    out = [G.zero()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in steps:
                c = G.add(w, s)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    out.append(c)
        frontier = nxt
    return out


def oracle_is_closed(G: Group, S: frozenset) -> bool:
    if G.zero() not in S:
        return False
    for a in S:
        for b in S:
            if G.add(a, b) not in S:
                return False
    for g in G.elements():
        for a in S:
            if G.conjugate(g, a) not in S:
                return False
    return True


def oracle_is_compatible_set(carrier, S: frozenset, px: frozenset, pb: frozenset) -> bool:
    """Definitional test: S is a cone making all three structure maps monotone
    and reflecting the fibre order."""
    if not oracle_is_closed(carrier, S):
        return False
    xz = carrier.x_group.zero()
    bz = carrier.b_group.zero()
    for x in px:
        if (x, bz) not in S:
            return False
    for b in pb:
        if (xz, b) not in S:
            return False
    for (x, b) in S:
        if b not in pb:
            return False
        if b == bz and x not in px:
            return False
    return True


def definitional_compatible(
    P: Cone, shape: ExtensionShape, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Compatibility by definition: the cone axioms, the kernel inclusion,
    section and projection monotone, and the fibre order reflected.

    The oracle for `is_compatible`, which checks the paper's equivalent
    interval (componentwise <= P <= lexicographic) instead.
    """
    if P.group != shape.carrier:
        raise ShapeError("cone does not live on the extension's carrier")
    return vand(
        check_cone_axioms(P, budget),
        is_monotone(KernelHom(shape.carrier), shape.x, P, budget),
        is_monotone(SectionHom(shape.carrier), shape.b, P, budget),
        is_monotone(ProjectionHom(shape.carrier), P, shape.b, budget),
        kernel_reflects(P, shape, budget),
    )


def kernel_reflects(P: Cone, shape: ExtensionShape, budget: SaturationBudget) -> Verdict:
    """(x, 0) in P only for x in the fibre cone, on the kernel's window."""
    bz = shape.b.group.zero()
    v = for_all_members(
        shape.x.group.window_elements(budget.window),
        lambda x: P.contains((x, bz), budget),
        lambda x: shape.x.contains(x, budget),
        "fibre order not reflected", "reflection check hit undecided memberships",
        yes("window-verified" if not shape.x.group.is_finite else "exhaustive"),
    )
    return no((v.witness, bz), v.note) if v.is_no else v


def oracle_all_compatible_cones(carrier, px: frozenset, pb: frozenset) -> set[frozenset]:
    """Every definitionally compatible cone, by closed-set search.

    Forced floor: kernel and section images; allowed ceiling: base part
    positive and fibre order reflected over 0.  All closed sets in between
    are exactly the compatible cones.
    """
    xz = carrier.x_group.zero()
    bz = carrier.b_group.zero()
    xs = carrier.x_group.elements()
    floor = {(x, bz) for x in px} | {(xz, b) for b in pb} | {carrier.zero()}
    ceiling = {
        (x, b)
        for x in xs
        for b in pb
        if not (b == bz and x not in px)
    }

    def saturate(S):
        S = set(S)
        changed = True
        while changed:
            changed = False
            for g in carrier.elements():
                for a in list(S):
                    c = carrier.conjugate(g, a)
                    if c not in S:
                        if c not in ceiling:
                            return None
                        S.add(c)
                        changed = True
            for a in list(S):
                for b in list(S):
                    c = carrier.add(a, b)
                    if c not in S:
                        if c not in ceiling:
                            return None
                        S.add(c)
                        changed = True
        return frozenset(S)

    base = saturate(floor)
    results: set[frozenset] = set()
    if base is None:
        return results

    def rec(S):
        if S in results:
            return
        results.add(S)
        for u in sorted(ceiling - S, key=repr):
            T = saturate(S | {u})
            if T is not None:
                rec(T)

    rec(base)
    for S in results:
        assert oracle_is_compatible_set(carrier, S, px, pb)
    return results


def oracle_automorphisms(G: Group) -> int:
    """Count additive bijections by filtering raw permutations (small groups)."""
    els = G.elements()
    count = 0
    for perm in itertools.permutations(els):
        table = dict(zip(els, perm))
        if table[G.zero()] != G.zero():
            continue
        if all(
            table[G.add(a, b)] == G.add(table[a], table[b]) for a in els for b in els
        ):
            count += 1
    return count


def oracle_family_conjugation(fam, base_in, positives, window) -> Verdict:
    """Condition 4 of validate_family by brute force over the window: for every
    base element a, positive b, kernel element x and sample y of X_b,
    x + phi_a(y) - phi_{a+b-a}(x) lies in X_{a+b-a}."""
    B, X, action, sets = fam.shape.b, fam.shape.x, fam.shape.action, fam.sets
    xs = X.group.window_elements(window)
    samples = {b: sets.sample(b, window) for b in positives}
    for a in base_in:
        for b in positives:
            target = B.group.add(B.group.add(a, b), B.group.neg(a))
            phi_t = action.as_hom(target)
            for x in xs:
                tx = phi_t.apply(x)
                for y in samples[b]:
                    residue = X.group.sub(X.group.add(x, action.apply(a, y)), tx)
                    if not sets.contains(target, residue):
                        return no(((x, a), (y, b)), "conjugation stability fails (condition 4)")
    return yes()


def oracle_family_orbit_remark(fam, base_in, positives, window) -> Verdict:
    """phi_a(X_b) = X_{a+b-a} by brute force over the window samples."""
    B, action, sets = fam.shape.b, fam.shape.action, fam.sets
    for a in base_in:
        for b in positives:
            target = B.group.add(B.group.add(a, b), B.group.neg(a))
            for y in sets.sample(b, window):
                if not sets.contains(target, action.apply(a, y)):
                    return no((a, b, y), "orbit image escapes the conjugate fibre")
            for z in sets.sample(target, window):
                if not sets.contains(b, action.apply(B.group.neg(a), z)):
                    return no((a, b, z), "conjugate fibre not covered by the orbit image")
    return yes("window-verified" if not B.group.is_finite else "exhaustive")


def count_window_items(monkeypatch) -> list[int]:
    """Record the length of every window a carrier hands to a caller outside
    the groups layer (a product window's factor windows are not counted
    apart).  Patches each carrier class's window_elements for the test."""
    import ordsplit.classifiers  # noqa: F401  (defines the automorphism carriers)

    sizes: list[int] = []
    depth = [0]

    def counting(meth):
        def window_elements(self, *args, **kwargs):
            depth[0] += 1
            try:
                out = meth(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                sizes.append(len(out))
            return out

        return window_elements

    seen, stack = set(), list(Group.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        if "window_elements" in vars(cls):
            monkeypatch.setattr(cls, "window_elements", counting(vars(cls)["window_elements"]))
    return sizes


# --- random finite corpus -------------------------------------------------------


def _group_zoo():
    return [
        CyclicGroup(2),
        CyclicGroup(3),
        CyclicGroup(4),
        CyclicGroup(5),
        CyclicGroup(6),
        CyclicGroup(8),
        klein_four(),
        symmetric_cayley(3),
    ]


def random_finite_extension(rng: random.Random, max_carrier: int = 64):
    """A random finite split extension with random compatible-looking data."""
    zoo = _group_zoo()
    while True:
        X = rng.choice(zoo)
        B = rng.choice(zoo)
        if X.order() * B.order() <= max_carrier:
            break
    aut = _full_aut_group(X)
    homs = enumerate_homomorphisms(B, aut)
    h = rng.choice(homs)
    table = {b: aut.realize(h.apply(b)) for b in B.elements()}
    action = FiniteTableAction.from_homs(B, X, table)
    px = oracle_cone_closure(X, _random_seed_elements(rng, X))
    pb = oracle_cone_closure(B, _random_seed_elements(rng, B))
    return ExtensionalCone(X, px), ExtensionalCone(B, pb), action


def _full_aut_group(X: Group):
    from ordsplit.classifiers import FiniteAutGroup

    return FiniteAutGroup(FullCone(X))


def _random_seed_elements(rng: random.Random, G: Group):
    els = [x for x in G.elements() if x != G.zero()]
    k = rng.randint(0, min(2, len(els)))
    return rng.sample(els, k)
