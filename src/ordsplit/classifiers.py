"""Monotone automorphism groups, admissible orders, and point classifiers.

The automorphisms of a preordered group that fix its cone setwise form a
group under composition; orders on it whose units act pointwise equivalent
to the identity ("admissible") produce terminal points for suitable classes.
The three standard orders (pointwise equivalence to the identity, P+ and P-)
are one cone class, `AutOrderCone`.  Symbolic carriers are a closed catalog;
anything else is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .actions import Action
from .cones import (
    Cone,
    FullCone,
    OrthantCone,
    TrivialCone,
    format_preordered,
    is_monotone,
    units_subgroup,
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

    base: Cone

    def realize(self, el) -> Homomorphism:
        raise NotImplementedError

    def from_action(self, action: Action, b) -> Optional[Element]:
        """The element realizing phi_b, or None when phi_b is not in here."""
        raise NotImplementedError


@dataclass(frozen=True)
class _PermutationAutGroup(AutGroup):
    """Automorphisms that permute a finite tuple of points, as image tuples.

    An element lists the images of ``_points`` in order, so ``zero`` is the
    points themselves and (a . b)(x) = a(b(x)) matches the twisted addition
    convention.  Subclasses give the points, the sorted members, a check of
    one image and a membership test.
    """

    base: Cone

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self._points)}

    def _check_image(self, y) -> None:
        raise NotImplementedError

    def _is_member(self, el: tuple) -> bool:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return len(self._members)

    def zero(self):
        return self._points

    def _add(self, a, b):
        return tuple(a[self._index[y]] for y in b)

    def _neg(self, a):
        inv = [None] * len(a)
        for x, y in zip(self._points, a):
            inv[self._index[y]] = x
        return tuple(inv)

    def check(self, el) -> None:
        # Images first: True == 1 and both hash alike, so a bool image would
        # pass the membership test.
        if not (isinstance(el, tuple) and len(el) == len(self._points)):
            raise ShapeError(f"expected {len(self._points)} images, got {el!r}")
        for y in el:
            self._check_image(y)
        if not self._is_member(el):
            raise ShapeError(f"not an element of {self}: {el!r}")

    def generators(self):
        return tuple(m for m in self._members if m != self._points)

    def elements(self):
        return list(self._members)

    def window_elements(self, window):
        return self.elements()


@dataclass(frozen=True)
class FiniteAutGroup(_PermutationAutGroup):
    """Cone-preserving automorphisms of a finite preordered group.

    The points are the base elements in canonical order.  Inverse
    monotonicity is automatic: every element has finite order, so the inverse
    is a power of the element itself.
    """

    def __post_init__(self):
        if not self.base.group.is_finite:
            raise StructureError("finite automorphism groups need a finite carrier")

    @cached_property
    def _points(self) -> tuple:
        return tuple(self.base.group.elements())

    @cached_property
    def _members(self) -> tuple:
        pos = frozenset(x for x in self._points if self.base.contains(x).is_yes)
        out = []
        for h in enumerate_automorphisms(self.base.group):
            mapping = h.mapping()
            if frozenset(mapping[p] for p in pos) == pos:
                out.append(tuple(mapping[x] for x in self._points))
        return tuple(sorted(out))

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self._members)

    def _check_image(self, y) -> None:
        self.base.group.check(y)

    def _is_member(self, el) -> bool:
        return el in self._member_set

    def is_abelian(self) -> bool:
        return all(self._add(a, b) == self._add(b, a) for a in self._members for b in self._members)

    def realize(self, el) -> Homomorphism:
        self.check(el)
        return TableHom.from_dict(self.base.group, self.base.group, dict(zip(self._points, el)))

    def from_action(self, action: Action, b):
        cand = tuple(action.apply(b, x) for x in self._points)
        return cand if cand in self._member_set else None

    def __str__(self):
        return f"Aut({self.base.group})[{len(self._members)}]"


@dataclass(frozen=True)
class OrthantPermAutGroup(_PermutationAutGroup):
    """Monotone automorphisms of (Z^k, N^k), k >= 1: coordinate permutations.

    The points are the coordinates 0..k-1; Aut(Z, N) is S_1 = {(0,)}.
    """

    def __post_init__(self):
        G = self.base.group
        if not (isinstance(G, FreeAbelian) and G.rank >= 1):
            raise StructureError("permutation automorphism group needs carrier Z^k, k>=1")

    @property
    def rank(self) -> int:
        return self.base.group.rank

    @cached_property
    def _points(self) -> tuple:
        return tuple(range(self.rank))

    @cached_property
    def _members(self) -> tuple:
        return tuple(itertools.permutations(self._points))

    def _check_image(self, y) -> None:
        if type(y) is not int:
            raise ShapeError(f"coordinate images must be int, got {y!r}")

    def _is_member(self, el) -> bool:
        return sorted(el) == list(self._points)

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
        basis = list(self.base.group.generators())
        images = [action.apply(b, g) for g in basis]
        if not all(img in basis for img in images):
            return None
        out = tuple(basis.index(img) for img in images)
        return out if self._is_member(out) else None

    def __str__(self):
        return f"Aut(Z^{self.rank},N^{self.rank})=S_{self.rank}"


@dataclass(frozen=True)
class RatScalingAutGroup(AutGroup):
    """Monotone automorphisms of (Q, >=0): multiplication by positive rationals."""

    base: Cone

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
        return LinearHom.scalar(self.base.group, self.base.group, el)

    def from_action(self, action: Action, b):
        m = action.matrix_for(b)
        return m[0][0] if m is not None and m[0][0] > 0 else None

    def __str__(self):
        return "Aut(Q,>=0)=Q_{>0}"


def monotone_aut(X: Cone) -> AutGroup:
    """The automorphisms of X preserving its cone setwise."""
    G = X.group
    if G.is_finite:
        return FiniteAutGroup(X)
    if isinstance(G, FreeAbelian) and isinstance(X, OrthantCone):
        return OrthantPermAutGroup(X)
    if isinstance(G, RationalVector) and G.rank == 1 and isinstance(X, OrthantCone):
        return RatScalingAutGroup(X)
    raise StructureError(f"no symbolic automorphism group for {format_preordered(X)}")


# --- orders on automorphism groups --------------------------------------------


@dataclass(frozen=True)
class AutOrderCone(Cone):
    """One of the three standard orders on Aut_P(X): ``"tilde"`` holds the
    automorphisms pointwise equivalent to the identity, ``"plus"`` those that
    raise every positive element and ``"minus"`` those that raise every
    negative one."""

    group: AutGroup
    order: str

    def __post_init__(self):
        if self.order not in ("tilde", "plus", "minus"):
            raise StructureError(f"unknown automorphism order {self.order!r}")

    def _contains(self, el, budget):
        base, h = self.group.base, self.group.realize(el)
        if self.order == "tilde":
            v = pointwise_sim_id(h, base, budget)
            return no(el, f"moves {format_element(v.witness)}") if v.is_no else v
        v = _orthant_matrix_leq(self.group, el, h, 1 if self.order == "plus" else -1)
        if v is not None:
            return v
        if isinstance(base, (FullCone, TrivialCone)):
            return yes("degenerate base order")
        if self.order == "plus":
            return hom_leq(IdentityHom(base.group), h, base, base, budget)
        # h raises the negative -p iff p - h(p) is positive, and hom_leq asks
        # for -h(p) + p: the two are equal on an abelian base and conjugate
        # (so both in the cone or both out) on any base.
        return hom_leq(h, IdentityHom(base.group), base, base, budget)

    def known_cone(self):
        return True

    def __str__(self):
        return {"tilde": "P~", "plus": "P+", "minus": "P-"}[self.order]


def _orthant_matrix_leq(aut: AutGroup, el, h: Homomorphism, sign: int) -> Verdict | None:
    """On an orthant base, h(x) >= x for every x in sign * P iff every entry of
    sign * (M - I) is >= 0; the witness is sign * e_j for the first failing
    column j.  None when the base is no orthant or h has no matrix."""
    m = h.as_matrix() if isinstance(aut.base, OrthantCone) else None
    if m is None:
        return None
    side = "positive" if sign > 0 else "negative"
    for j in range(len(m[0])):
        if any(row[j] < (i == j) if sign > 0 else row[j] > (i == j) for i, row in enumerate(m)):
            G = aut.base.group
            e = G.generators()[j]
            return no((el, e if sign > 0 else G.neg(e)), f"matrix lowers a {side}")
    return yes(f"matrix raises every {side}")


def aut_cone(aut: AutGroup, which: str) -> AutOrderCone:
    """The automorphism group ordered by one of the three standard cones."""
    return AutOrderCone(aut, which)


def admissible_check(O: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """Units of the order must act pointwise equivalent to the identity."""
    A = O.group
    if not isinstance(A, AutGroup):
        raise StructureError("admissibility concerns orders on automorphism groups")
    if isinstance(O, AutOrderCone):
        if O.order == "tilde":
            return yes("units of the pointwise order fix everything by definition")
        if not A.is_finite:
            # alpha and alpha^{-1} both dominating (or dominated by) the
            # identity pinch to the identity on the symbolic carriers.
            return yes()
    found = units_subgroup(O, budget)
    units, exact = found.elements, found.exact
    if units is None:
        units, exact = A.window_elements(budget.window), exact and A.is_finite
    else:
        # Sorted is the element order on the finite carriers and the window
        # order on Q_{>0}, so the first unit that moves an element is the same
        # witness.
        units = sorted(units)
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
        self.acting.check(b)
        return b == self.aut.zero()

    def matrix_for(self, b):
        return self.aut.realize(b).as_matrix()

    def __str__(self):
        return "eval"


def build_classifier(X: Cone, O: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> SplitExtension:
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
    if isinstance(O, AutOrderCone) and O.order == "tilde":
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
    cbar = CorestrictionHom(pt.b.group, aut, pt.action)
    uniq = _uniqueness_check(pt, aut, cbar)  # first: it refuses phi_b outside aut
    mid = PairHom(pt.carrier, cls.carrier, IdentityHom(pt.x.group), cbar)
    base_mono = is_monotone(cbar, pt.b, cls.b, budget)
    # The middle map's base part is cbar again: hand its verdict over.
    mid_mono = is_monotone(mid, pt.cone, cls.cone, budget, (((cbar, pt.b, cls.b), base_mono),))
    return ClassifyReport(
        morphism=PointMorphism(IdentityHom(pt.x.group), mid, cbar),
        base_monotone=base_mono,
        middle_monotone=mid_mono,
        uniqueness=uniq,
    )


def _uniqueness_check(pt, aut: AutGroup, cbar) -> Verdict:
    """A kernel-fixing morphism sends b to an automorphism equal to phi_b, and
    distinct elements of aut are distinct maps, so cbar(b) is the only choice
    once it realizes phi_b.  It does by construction: each from_action reads
    phi_b itself, as the images of every point (FiniteAutGroup), the basis
    images (OrthantPermAutGroup, which realizes e_j -> e_out[j]) or the 1x1
    matrix (RatScalingAutGroup, which realizes that scalar).  What is left is
    the refusal: cbar raises on phi_b outside aut, checked on the generators."""
    for b in pt.b.group.generators():
        cbar.apply(b)
    return yes("phi_b realized by construction")


def sclass_membership(
    pt: SplitExtension, O: Cone, budget: SaturationBudget = DEFAULT_BUDGET
) -> Verdict:
    """Membership in the class classified by the maximal point over Aut_P(X).

    (1) every positive base element must act inside P; (2) a positive pair
    (x, b) with phi_b a unit of P forces x positive.
    """
    aut = O.group
    if not isinstance(aut, AutGroup) or aut.base != pt.x:
        raise StructureError("order must live on the automorphism group of the kernel")
    gens, note = pt.b.finite_generators(), "on positive generators"
    if gens is None:
        gens, note = pt.b.positive_sample(budget.window, budget), "window-verified"
    pend = None
    for b in gens:
        a = aut.from_action(pt.action, b)
        if a is None:
            return no(b, "positive base element acts outside the automorphism group")
        v = O.contains(a, budget)
        if v.is_no:
            return no((b, a), "positive base element acts outside the order (condition 1)")
        if v.is_unknown and pend is None:
            pend = v
    cond1 = pend if pend is not None else yes(note)
    undecided = "condition 2 hit undecided memberships"
    cond2 = yes()
    for b in pt.b.positive_sample(budget.window, budget):
        a = aut.from_action(pt.action, b)
        if a is None:
            return no(b, "positive base element acts outside the automorphism group")
        unit = vand(O.contains(a, budget), O.contains(aut.neg(a), budget))
        if unit.is_unknown:
            cond2 = unknown(undecided)
        elif unit.is_yes:
            cond2 = for_all_members(
                [(x, b) for x in pt.x.group.window_elements(budget.window)],
                lambda xb: pt.cone.contains(xb, budget),
                lambda xb: pt.x.contains(xb[0], budget),
                "unit-acting positive pair with negative fibre (condition 2)",
                undecided,
                cond2,
            )
            if cond2.is_no:
                return cond2
    return vand(cond1, cond2)


def no_classifier_witness(
    X: Cone, budget: SaturationBudget = DEFAULT_BUDGET
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
    plus = AutOrderCone(aut, "plus")
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
