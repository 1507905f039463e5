"""Monotone automorphism groups, admissible orders, and point classifiers.

The automorphisms of a preordered group that fix its cone setwise form a
group under composition; orders on it whose units act pointwise equivalent
to the identity ("admissible") produce terminal points for suitable classes.
Symbolic carriers are a closed catalog; anything else is rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .actions import Action
from .cones import (
    Cone,
    FullCone,
    OrthantCone,
    PreorderedGroup,
    TrivialCone,
    is_monotone,
)
from .extensions import (
    ExtensionShape,
    SplitExtension,
    lex_cone,
    point,
    pointwise_sim_id,
    product_cone,
)
from .groups import (
    Element,
    FreeAbelian,
    Group,
    RationalVector,
    ShapeError,
    StructureError,
    format_element,
)
from .homs import (
    Homomorphism,
    IdentityHom,
    LinearHom,
    PairHom,
    ScalarHom,
    TableHom,
    enumerate_automorphisms,
)
from .points import PointMorphism, hom_leq
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    for_all_members,
    no,
    unknown,
    vall,
    vand,
    yes,
)


class AutGroup(Group):
    """A group of monotone automorphisms of a fixed preordered group."""

    base: PreorderedGroup

    def realize(self, el) -> Homomorphism:
        raise NotImplementedError

    def from_action(self, action: Action, b) -> Optional[Element]:
        """The element realizing phi_b, or None when phi_b is not in here."""
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteAutGroup(AutGroup):
    """Cone-preserving automorphisms of a finite preordered group.

    Elements are image tuples in the canonical element order; composition is
    the group operation.  Inverse monotonicity is automatic: every element has
    finite order, so the inverse is a power of the element itself.
    """

    base: PreorderedGroup

    def __post_init__(self):
        if not self.base.group.is_finite:
            raise StructureError("finite automorphism groups need a finite carrier")

    @cached_property
    def _order_list(self) -> tuple:
        return tuple(self.base.group.elements())

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self._order_list)}

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self._members)

    @cached_property
    def _members(self) -> tuple:
        pos = frozenset(
            x for x in self.base.group.elements() if self.base.cone.contains(x).is_yes
        )
        out = []
        for h in enumerate_automorphisms(self.base.group):
            mapping = h.mapping()
            if frozenset(mapping[p] for p in pos) == pos:
                out.append(tuple(mapping[x] for x in self._order_list))
        return tuple(sorted(out))

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return len(self._members)

    def zero(self):
        return tuple(self._order_list)

    def _add(self, a, b):
        # (a . b)(x) = a(b(x)): matches the twisted addition convention.
        return tuple(a[self._index[b[i]]] for i in range(len(b)))

    def _neg(self, a):
        inv = [None] * len(a)
        for i, img in enumerate(a):
            inv[self._index[img]] = self._order_list[i]
        return tuple(inv)

    def check(self, el) -> None:
        if el not in self._member_set:
            raise ShapeError(f"not a cone-preserving automorphism: {el!r}")

    def generators(self):
        return tuple(m for m in self._members if m != self.zero())

    def elements(self):
        return list(self._members)

    def window_elements(self, window):
        return self.elements()

    def is_abelian(self) -> bool:
        return all(self._add(a, b) == self._add(b, a) for a in self._members for b in self._members)

    def realize(self, el) -> Homomorphism:
        self.check(el)
        return TableHom.from_dict(
            self.base.group,
            self.base.group,
            {x: el[i] for i, x in enumerate(self._order_list)},
        )

    def from_action(self, action: Action, b):
        cand = tuple(action.apply(b, x) for x in self._order_list)
        return cand if cand in self._member_set else None

    def __str__(self):
        return f"Aut({self.base.group})[{len(self._members)}]"


@dataclass(frozen=True)
class TrivialAutGroup(AutGroup):
    """The only monotone additive bijection of (Z, N) is the identity."""

    base: PreorderedGroup

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return 1

    def zero(self):
        return 0

    def _add(self, a, b):
        return 0

    def _neg(self, a):
        return 0

    def check(self, el) -> None:
        if type(el) is not int or el != 0:
            raise ShapeError("the trivial automorphism group has a single element")

    def generators(self):
        return ()

    def elements(self):
        return [0]

    def window_elements(self, window):
        return [0]

    def is_abelian(self) -> bool:
        return True

    def realize(self, el) -> Homomorphism:
        self.check(el)
        return IdentityHom(self.base.group)

    def from_action(self, action: Action, b):
        return 0 if action.is_identity_for(b) else None

    def __str__(self):
        return "Aut(Z,N)={id}"


@dataclass(frozen=True)
class RatScalingAutGroup(AutGroup):
    """Monotone automorphisms of (Q, >=0): multiplication by positive rationals."""

    base: PreorderedGroup

    def __post_init__(self):
        G = self.base.group
        if not (isinstance(G, RationalVector) and G.rank == 1):
            raise StructureError("scaling automorphism group needs carrier Q")

    @property
    def is_finite(self) -> bool:
        return False

    def zero(self):
        return Fraction(1)

    def _add(self, a, b):
        return a * b

    def _neg(self, a):
        return 1 / a

    def check(self, el) -> None:
        if type(el) is not Fraction or el <= 0:
            raise ShapeError(f"scaling must be a positive rational, got {el!r}")

    def generators(self):
        return (Fraction(2),)  # generators only seed searches; Q>0 is not f.g.

    def window_elements(self, window):
        return [q for q in window.rationals() if q > 0]

    def is_abelian(self) -> bool:
        return True

    def realize(self, el) -> Homomorphism:
        self.check(el)
        return ScalarHom(self.base.group, self.base.group, el)

    def from_action(self, action: Action, b):
        s = action.scalar_for(b)
        if s is not None and s > 0:
            return Fraction(s)
        if action.is_identity_for(b):
            return Fraction(1)
        return None

    def __str__(self):
        return "Aut(Q,>=0)=Q_{>0}"


@dataclass(frozen=True)
class OrthantPermAutGroup(AutGroup):
    """Monotone automorphisms of (Z^k, N^k): coordinate permutations."""

    base: PreorderedGroup

    def __post_init__(self):
        G = self.base.group
        if not (isinstance(G, FreeAbelian) and G.rank >= 2):
            raise StructureError("permutation automorphism group needs carrier Z^k, k>=2")

    @property
    def rank(self) -> int:
        return self.base.group.rank

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return math.factorial(self.rank)

    def zero(self):
        return tuple(range(self.rank))

    def _add(self, a, b):
        # (a . b) moves coordinate i to a[b[i]].
        return tuple(a[b[i]] for i in range(self.rank))

    def _neg(self, a):
        inv = [0] * self.rank
        for i, v in enumerate(a):
            inv[v] = i
        return tuple(inv)

    def check(self, el) -> None:
        perm = isinstance(el, tuple) and sorted(el) == list(range(self.rank))
        if not (perm and all(type(v) is int for v in el)):
            raise ShapeError(f"expected a permutation of 0..{self.rank - 1}, got {el!r}")

    def generators(self):
        return tuple(p for p in self.elements() if p != self.zero())

    def elements(self):
        return [tuple(p) for p in itertools.permutations(range(self.rank))]

    def window_elements(self, window):
        return self.elements()

    def is_abelian(self) -> bool:
        return self.rank <= 2

    def realize(self, el) -> Homomorphism:
        self.check(el)
        # Row i of the matrix picks the coordinate j with el[j] = i, so basis
        # vector e_j maps to e_{el[j]}.
        m = tuple(
            tuple(Fraction(1) if el[j] == i else Fraction(0) for j in range(self.rank))
            for i in range(self.rank)
        )
        return LinearHom(self.base.group, self.base.group, m)

    def from_action(self, action: Action, b):
        G = self.base.group
        images = [action.apply(b, g) for g in G.generators()]
        perm = []
        basis = list(G.generators())
        for img in images:
            if img not in basis:
                return None
            perm.append(basis.index(img))
        out = tuple(perm)
        return out if sorted(out) == list(range(self.rank)) else None

    def __str__(self):
        return f"Aut(Z^{self.rank},N^{self.rank})=S_{self.rank}"


def monotone_aut(X: PreorderedGroup) -> AutGroup:
    """The automorphisms of X preserving its cone setwise."""
    G = X.group
    if G.is_finite:
        return FiniteAutGroup(X)
    if isinstance(G, FreeAbelian) and G.rank == 1 and isinstance(X.cone, OrthantCone):
        return TrivialAutGroup(X)
    if isinstance(G, RationalVector) and G.rank == 1 and isinstance(X.cone, OrthantCone):
        return RatScalingAutGroup(X)
    if isinstance(G, FreeAbelian) and G.rank >= 2 and isinstance(X.cone, OrthantCone):
        return OrthantPermAutGroup(X)
    raise StructureError(f"no symbolic automorphism group for {X}")


# --- orders on automorphism groups --------------------------------------------


@dataclass(frozen=True)
class TildeCone(Cone):
    """Automorphisms pointwise equivalent to the identity."""

    group: AutGroup

    def _contains(self, el, budget):
        v = pointwise_sim_id(self.group.realize(el), self.group.base, budget)
        if v.is_no:
            return no(el, f"moves {format_element(v.witness)}")
        return v

    def known_cone(self):
        return True

    def __str__(self):
        return "P~"


@dataclass(frozen=True)
class PlusCone(Cone):
    """Automorphisms dominating the identity on positive elements."""

    group: AutGroup

    def _contains(self, el, budget):
        return _dominates_id(self.group, el, budget)

    def known_cone(self):
        return True

    def __str__(self):
        return "P+"


@dataclass(frozen=True)
class MinusCone(Cone):
    """Automorphisms dominating the identity on negative elements."""

    group: AutGroup

    def _contains(self, el, budget):
        return _dominated_by_id_on_negatives(self.group, el, budget)

    def known_cone(self):
        return True

    def __str__(self):
        return "P-"


def _dominates_id(aut: AutGroup, el, budget) -> Verdict:
    base = aut.base
    h = aut.realize(el)
    s = h.as_scalar()
    if s is not None and isinstance(base.cone, OrthantCone):
        one = base.group.generators()[0]
        return yes("scalar >= 1") if s >= 1 else no((el, one), f"scaling {s} drops a positive")
    if isinstance(base.cone, (FullCone, TrivialCone)):
        return yes("degenerate base order")
    return hom_leq(IdentityHom(base.group), h, base, base, budget)


def _dominated_by_id_on_negatives(aut: AutGroup, el, budget) -> Verdict:
    base = aut.base
    h = aut.realize(el)
    s = h.as_scalar()
    if s is not None and isinstance(base.cone, OrthantCone):
        one = base.group.generators()[0]
        if 0 < s <= 1:
            return yes("scalar in (0,1]")
        return no((el, base.group.neg(one)), f"scaling {s} drops a negative")
    if isinstance(base.cone, (FullCone, TrivialCone)):
        return yes("degenerate base order")
    if base.group.is_finite:
        for x in base.group.elements():
            if base.leq(x, base.group.zero(), budget).is_yes:
                v = base.leq(x, h.apply(x), budget)
                if v.is_no:
                    return no((el, x), "negative element not raised")
                if v.is_unknown:
                    return v
        return yes("exhaustive")
    # On an abelian carrier, alpha(x) >= x on -P is alpha(p) <= p on P.
    return hom_leq(h, IdentityHom(base.group), base, base, budget)


def aut_cone(aut: AutGroup, which: str, budget: SaturationBudget = DEFAULT_BUDGET) -> PreorderedGroup:
    """The automorphism group ordered by one of the three standard cones."""
    cone = {"tilde": TildeCone, "plus": PlusCone, "minus": MinusCone}.get(which)
    if cone is None:
        raise StructureError(f"unknown automorphism order {which!r}")
    return PreorderedGroup(aut, cone(aut))


def _order_units(O: PreorderedGroup, budget) -> tuple[list | str, bool]:
    """Units of an order on an automorphism group: (elements | 'all', exact)."""
    A = O.group
    if isinstance(O.cone, TildeCone):
        return "tilde", True
    if A.is_finite:
        out = [
            a
            for a in A.elements()
            if O.cone.contains(a, budget).is_yes and O.cone.contains(A.neg(a), budget).is_yes
        ]
        return out, True
    if isinstance(O.cone, (PlusCone, MinusCone)):
        # alpha and alpha^{-1} both dominating (or dominated by) the identity
        # pinch to the identity on the symbolic carriers.
        return [A.zero()], True
    if isinstance(O.cone, FullCone):
        return "all", True
    if isinstance(O.cone, TrivialCone):
        return [A.zero()], True
    found = [
        a
        for a in A.window_elements(budget.window)
        if O.cone.contains(a, budget).is_yes and O.cone.contains(A.neg(a), budget).is_yes
    ]
    return found, False


def admissible_check(O: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """Units of the order must act pointwise equivalent to the identity."""
    A = O.group
    if not isinstance(A, AutGroup):
        raise StructureError("admissibility concerns orders on automorphism groups")
    units, exact = _order_units(O, budget)
    if units == "tilde":
        return yes("units of the pointwise order fix everything by definition")
    if units == "all":
        units = A.window_elements(budget.window)
        exact = False if not A.is_finite else exact
    v = vall(
        ((a, pointwise_sim_id(A.realize(a), A.base, budget)) for a in units),
        "unit automorphism moves an element",
    )
    if not v.is_yes:
        return v
    return yes() if exact else unknown("units only window-known")


# --- classifier construction and terminality ----------------------------------


@dataclass(frozen=True)
class AutEvalAction(Action):
    """The automorphism group acting on its carrier by evaluation."""

    aut: AutGroup

    @property
    def acting(self):
        return self.aut

    @property
    def acted(self):
        return self.aut.base.group

    def _apply(self, b, x):
        return self.aut.realize(b)._apply(x)

    def is_identity_for(self, b):
        return b == self.aut.zero()

    def scalar_for(self, b):
        return self.aut.realize(b).as_scalar()

    def matrix_for(self, b):
        return self.aut.realize(b).as_matrix()

    def __str__(self):
        return "eval"


def build_classifier(X: PreorderedGroup, O: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET) -> SplitExtension:
    """The point X -> X x| Aut_P(X) <-> Aut_P(X) for an admissible order P.

    The pointwise order gets the componentwise cone (it agrees with the
    lexicographic one there); other admissible orders get the lexicographic
    cone, matching the maximal-point classification.
    """
    if not isinstance(O.group, AutGroup) or O.group.base != X:
        raise StructureError("order must live on the automorphism group of X")
    adm = admissible_check(O, budget)
    if not adm.is_yes:
        raise StructureError(f"order is not admissible: {adm}")
    shape = ExtensionShape(X, O, AutEvalAction(O.group))
    if isinstance(O.cone, TildeCone):
        return point(shape, product_cone(shape))
    return point(shape, lex_cone(shape))


@dataclass(frozen=True)
class CorestrictionHom(Homomorphism):
    """b -> phi_b as an element of the automorphism group."""

    source: Group
    target: AutGroup
    action: Action

    def _apply(self, el):
        out = self.target.from_action(self.action, el)
        if out is None:
            raise StructureError(
                f"phi_{format_element(el)} is not a monotone automorphism of the kernel"
            )
        return out

    def additive_by_construction(self):
        return True

    def __str__(self):
        return "phi-bar"


@dataclass(frozen=True)
class ClassifyReport:
    morphism: PointMorphism
    base_monotone: Verdict
    middle_monotone: Verdict
    uniqueness: Verdict


def classify_into(
    pt: SplitExtension,
    cls: SplitExtension,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> ClassifyReport:
    """The canonical morphism from a point into a classifier with the same kernel."""
    if pt.x != cls.x:
        raise StructureError("point and classifier must share the kernel")
    aut = cls.b.group
    if not isinstance(aut, AutGroup):
        raise StructureError("classifier base must be an automorphism group")
    for g in pt.b.group.generators():
        for b in (g, pt.b.group.neg(g)):
            if aut.from_action(pt.action, b) is None:
                raise StructureError(
                    f"phi_{format_element(b)} is not a monotone automorphism of the kernel"
                )
    cbar = CorestrictionHom(pt.b.group, aut, pt.action)
    mid = PairHom(pt.carrier, cls.carrier, IdentityHom(pt.x.group), cbar)
    base_mono = is_monotone(cbar, pt.b, cls.b, budget)
    mid_mono = is_monotone(mid, pt.pre, cls.pre, budget)
    uniq = _uniqueness_check(pt, aut, cbar, budget)
    return ClassifyReport(
        morphism=PointMorphism(IdentityHom(pt.x.group), mid, cbar),
        base_monotone=base_mono,
        middle_monotone=mid_mono,
        uniqueness=uniq,
    )


def _uniqueness_check(pt, aut: AutGroup, cbar, budget) -> Verdict:
    """Any kernel-fixing morphism must send b to an automorphism agreeing with
    phi_b on the kernel; agreement on the window must pin down cbar(b)."""
    window = budget.window
    xs = pt.x.group.window_elements(window)
    for b in pt.b.group.window_elements(window):
        expected = cbar.apply(b)
        if aut.is_finite:
            candidates = [
                a
                for a in aut.elements()
                if all(aut.realize(a).apply(x) == pt.action.apply(b, x) for x in xs)
            ]
            if candidates != [expected]:
                return no(b, "several automorphisms agree with phi_b on the window")
        else:
            h = aut.realize(expected)
            for x in xs:
                if h.apply(x) != pt.action.apply(b, x):
                    return no((b, x), "canonical image disagrees with phi_b")
    return yes("forced on the window")


def sclass_membership(
    pt: SplitExtension, O: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Membership in the class classified by the maximal point over Aut_P(X).

    (1) every positive base element must act inside P; (2) a positive pair
    (x, b) with phi_b a unit of P forces x positive.
    """
    aut = O.group
    if not isinstance(aut, AutGroup) or aut.base != pt.x:
        raise StructureError("order must live on the automorphism group of the kernel")
    gens, note = pt.b.cone.finite_generators(), "on positive generators"
    if gens is None:
        gens, note = pt.b.cone.positive_sample(budget.window, budget), "window-verified"
    pend = None
    for b in gens:
        a = aut.from_action(pt.action, b)
        if a is None:
            return no(b, "positive base element acts outside the automorphism group")
        v = O.cone.contains(a, budget)
        if v.is_no:
            return no((b, a), "positive base element acts outside the order (condition 1)")
        if v.is_unknown and pend is None:
            pend = v
    cond1 = pend if pend is not None else yes(note)
    undecided = "condition 2 hit undecided memberships"
    cond2 = yes()
    for b in pt.b.cone.positive_sample(budget.window, budget):
        a = aut.from_action(pt.action, b)
        if a is None:
            return no(b, "positive base element acts outside the automorphism group")
        unit = vand(O.cone.contains(a, budget), O.cone.contains(aut.neg(a), budget))
        if unit.is_unknown:
            cond2 = unknown(undecided)
        elif unit.is_yes:
            cond2 = for_all_members(
                [(x, b) for x in pt.x.group.window_elements(budget.window)],
                lambda xb: pt.cone.contains(xb, budget),
                lambda xb: pt.x.cone.contains(xb[0], budget),
                "unit-acting positive pair with negative fibre (condition 2)",
                undecided,
                cond2,
            )
            if cond2.is_no:
                return cond2
    return vand(cond1, cond2)


def no_classifier_witness(
    X: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET
) -> Optional[tuple]:
    """An automorphism in P+ not pointwise equivalent to id, if one exists.

    Requires the order on X to be total on the window (every element positive
    or negative); returns (automorphism element, moved element) or None.
    """
    for x in X.group.window_elements(budget.window):
        fwd = X.leq(X.group.zero(), x, budget)
        bwd = X.leq(x, X.group.zero(), budget)
        if not (fwd.is_yes or bwd.is_yes):
            raise StructureError(f"order is not total: {format_element(x)} has no sign")
    aut = monotone_aut(X)
    plus = PlusCone(aut)
    if isinstance(aut, RatScalingAutGroup):
        candidates = [Fraction(n) for n in range(2, budget.window.int_bound + 2)]
    elif aut.is_finite:
        candidates = aut.elements()
    else:
        return None
    for el in candidates:
        if plus.contains(el, budget).is_yes:
            v = pointwise_sim_id(aut.realize(el), X, budget)
            if v.is_no:
                return (el, v.witness)
    return None
