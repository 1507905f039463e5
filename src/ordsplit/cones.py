"""Positive cones, the preorders they induce, and the closure engine.

A cone is a submonoid closed under conjugation; it determines the preorder
x <= y  iff  -x+y is in the cone.  A preordered group (G, P) is represented
by its cone P, which knows G; format_preordered prints it as "(G, P)".
Membership answers are three-valued:
built-in cones are exact, a GeneratedCone closes generators or a
componentwise cone within a budget, and a FibreCone decides the least cone
over (Z^n, N^n) exactly, fibre by fibre.

Membership follows the template of groups, actions and maps: the public
contains checks the element once, _contains trusts it, and a composite cone
(product, point product, lex, generated, pullback, family) asks its parts'
_contains about the components; a FibreCone reads its parts' orthant or {0}
off the coordinates instead.

Generated cones memoize their saturation per budget, the reduced form of the
conjugator system I - phi_b per base element and budget (the elimination on
Q^k, the Hermite form on Z^k, so that each fibre element costs one
substitution), the fibre lattice and the generators' dual cone, and a
FibreCone the fibre of each base part met; the fill is idempotent and
queries never mutate shared state in a way observable across queries.

The "for all" checks (monotonicity, pointwise comparison, the cone axioms)
get their "on generators", "window-verified" and "exhaustive" verdicts only
from the two helpers in verdict.py: on_generators for the generator
shortcut, for_all_members for the scan.  cone_subset and cones_equal (behind
strongness and rali) share one inclusion scan, which decides both inclusions
in one walk and answers exactly as the two cone_subset calls would.
"""

from __future__ import annotations

import itertools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .actions import _spread
from .groups import (
    DirectProduct,
    Element,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
    format_element,
    word_ball,
)
from .homs import Homomorphism, PairHom, _pair_parts
from .linalg import (
    Elimination,
    Hermite,
    dual_cone,
    eliminate,
    feasible_strict,
    hermite,
    identity_matrix,
    integer_solve,
    mat_sub,
    solve,
)
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    Window,
    clean_scan,
    for_all_members,
    no,
    on_generators,
    unknown,
    vand,
    vnot,
    yes,
)


class Cone(ABC):
    """contains checks its element against the carrier, then asks _contains,
    which trusts it.  A composite cone asks its parts' _contains about the
    components of an element it has checked.  The classes perfbench's tracer
    wraps by name (tracer.CONE_CLASSES) bind contains in their own body.
    """

    group: Group

    def contains(self, x: Element, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        self.group.check(x)
        return self._contains(x, budget)

    @abstractmethod
    def _contains(self, x: Element, budget: SaturationBudget) -> Verdict:
        """Membership of an x that already passed group.check."""

    def known_cone(self) -> bool:
        """True when 0-membership and closure under addition and conjugation
        are guaranteed (by construction or by an exhaustive check)."""
        return False

    def finite_generators(self) -> Optional[tuple[Element, ...]]:
        """A finite generating set of the cone, when one is part of the data."""
        return None

    def positive_sample(self, window: Window, budget: SaturationBudget = DEFAULT_BUDGET) -> list:
        """Window elements with membership Yes, canonically ordered."""
        return [
            x
            for x in self.group.window_elements(window)
            if self._contains(x, budget).is_yes
        ]

    def leq(self, x, y, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        """x <= y, i.e. -x+y in the cone."""
        v = self.contains(self.group.add(self.group.neg(x), y), budget)
        if v.is_no:
            return no((x, y), f"{format_element(x)} !<= {format_element(y)}")
        return v

    def sim(self, x, y, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        return vand(self.leq(x, y, budget), self.leq(y, x, budget))


def format_preordered(cone: Cone) -> str:
    """The preordered group (G, P) that a cone P on G is, as "(G, P)"."""
    return f"({cone.group}, {cone})"


@dataclass(frozen=True)
class TrivialCone(Cone):
    group: Group

    def _contains(self, x, budget):
        if x == self.group.zero():
            return yes()
        return no(x)

    def known_cone(self):
        return True

    def finite_generators(self):
        return ()

    def __str__(self):
        return "{0}"


@dataclass(frozen=True)
class FullCone(Cone):
    group: Group

    def _contains(self, x, budget):
        return yes()

    def known_cone(self):
        return True

    def finite_generators(self):
        G = self.group
        if G.is_finite:
            return tuple(G.elements())
        if isinstance(G, FreeAbelian):
            gens = G.generators()
            return gens + tuple(G.neg(g) for g in gens)
        return None

    def __str__(self):
        return "all"


@dataclass(frozen=True)
class OrthantCone(Cone):
    """Coordinatewise nonnegativity on Z^k or Q^k."""

    group: Group

    def __post_init__(self):
        if not isinstance(self.group, (FreeAbelian, RationalVector)):
            raise ShapeError("orthant cone needs a vector carrier")

    contains = Cone.contains

    def _contains(self, x, budget):
        # A Fraction's denominator is positive, so its sign is its
        # numerator's; an int is its own numerator.
        for c in self.group.coords(x):
            if c.numerator < 0:
                return no(x)
        return yes()

    def known_cone(self):
        return True

    def finite_generators(self):
        if isinstance(self.group, FreeAbelian):
            return self.group.generators()
        return None  # the rational orthant is not finitely generated

    def __str__(self):
        return ">=0"


@dataclass(frozen=True)
class ExtensionalCone(Cone):
    group: Group
    elements: frozenset

    def __post_init__(self):
        for x in self.elements:
            self.group.check(x)

    contains = Cone.contains

    def _contains(self, x, budget):
        return yes() if x in self.elements else no(x)

    @cached_property
    def _closure_holds(self) -> bool:
        if self.group.zero() not in self.elements:
            return False
        els = sorted(self.elements, key=repr)
        for a in els:
            for b in els:
                if self.group.add(a, b) not in self.elements:
                    return False
        if not self.group.is_abelian():
            if not self.group.is_finite:
                return False  # conjugation closure is not checkable here
            for g in self.group.elements():
                for a in els:
                    if self.group.conjugate(g, a) not in self.elements:
                        return False
        return True

    def known_cone(self):
        return self._closure_holds

    def finite_generators(self):
        return tuple(sorted(self.elements, key=repr))

    def __str__(self):
        return f"set({len(self.elements)})"


@dataclass(frozen=True)
class ProductCone(Cone):
    """Componentwise cone on a pair carrier (direct or semidirect)."""

    group: Group
    x_cone: Cone
    b_cone: Cone

    def __post_init__(self):
        if not isinstance(self.group, (Semidirect, DirectProduct)):
            raise ShapeError("product cone needs a pair carrier")
        if (self.x_cone.group, self.b_cone.group) != _pair_parts(self.group):
            raise ShapeError("product cone components live on other carriers")

    contains = Cone.contains

    def _contains(self, x, budget):
        xp, bp = x
        vx = self.x_cone._contains(xp, budget)
        vb = self.b_cone._contains(bp, budget)
        v = vand(vx, vb)
        if v.is_no:
            return no(x, "component outside its cone")
        return v

    def known_cone(self):
        # Closure needs the twist to vanish: a direct product, or a semidirect
        # carrier whose action is provably trivial.
        untwisted = isinstance(self.group, DirectProduct) or (
            isinstance(self.group, Semidirect) and self.group.action.provably_trivial()
        )
        return untwisted and self.x_cone.known_cone() and self.b_cone.known_cone()

    def finite_generators(self):
        gx = self.x_cone.finite_generators()
        gb = self.b_cone.finite_generators()
        if gx is None or gb is None:
            return None
        X, B = _pair_parts(self.group)
        xz, bz = X.zero(), B.zero()
        return tuple((g, bz) for g in gx) + tuple((xz, g) for g in gb)

    def __str__(self):
        return f"({self.x_cone} x {self.b_cone})"


@dataclass(frozen=True)
class PointProductCone(Cone):
    """Membership of ((x1,x2),(b1,b2)) splits into the two component points."""

    group: Group
    first: Cone
    second: Cone

    def _contains(self, el, budget):
        (x1, x2), (b1, b2) = el
        return vand(self.first._contains((x1, b1), budget), self.second._contains((x2, b2), budget))

    def __str__(self):
        return f"({self.first} * {self.second})"


@dataclass(frozen=True)
class LexCone(Cone):
    """b strictly positive, or b a unit and x positive."""

    group: Group
    x_cone: Cone
    b_cone: Cone

    def __post_init__(self):
        if not isinstance(self.group, (Semidirect, DirectProduct)):
            raise ShapeError("lex cone needs a pair carrier")
        if (self.x_cone.group, self.b_cone.group) != _pair_parts(self.group):
            raise ShapeError("lex cone components live on other carriers")

    contains = Cone.contains

    def _contains(self, x, budget):
        # 0 <= b, b <= 0 and 0 <= x are b, -b and x in their cones.
        xp, bp = x
        b_cone = self.b_cone
        pos = b_cone._contains(bp, budget)
        back = b_cone._contains(b_cone.group._neg(bp), budget)
        strict = vand(pos, vnot(back, bp))
        if strict.is_yes:
            return yes()
        xpos = self.x_cone._contains(xp, budget)
        tail = vand(back, pos, xpos)
        if tail.is_yes:
            return yes()
        if strict.is_no and tail.is_no:
            return no(x)
        return unknown("lex membership undecided at this budget")

    def __str__(self):
        return "lex"


# --- generated cones ---------------------------------------------------------


# The yes of a source element, built once: a frozen Verdict is safe to share.
_SOURCE_YES = yes("source element")


@dataclass(frozen=True)
class GeneratedCone(Cone):
    """Additive closure of the conjugation closure of the source: a tuple of
    generators, checked once here (generated_cone builds these), or the
    componentwise ProductCone on this semidirect carrier of a shape that
    minimal_cone found compatible; then it is the least compatible cone.
    The source type is that certificate: any other source is a ShapeError.
    Where fibrewise holds, minimal_cone builds the exact FibreCone instead.

    Membership tries, in this order: the zero element (a bare yes); the
    source, which is a generator of the tuple (yes) or, on a least cone, the
    base part outside the base cone (no), an element of the componentwise
    cone (yes "source element") and at b = 0 the kernel part (yes "kernel
    part positive", or no as the kernel reflects the fibre order); then on a
    semidirect carrier a solved conjugator (yes) and the fibre lattice (no);
    budgeted saturation (yes) and the abelian exclusions (no, by a separating
    functional or the generators' integer span).  Every no is exact.  A
    least cone asks its base and kernel cones at most once per membership,
    and an undecided part falls through to the later routes.

    Finite carriers are closed exactly by generated_cone, and minimal_cone
    returns a closed componentwise cone as it is, so neither comes here; a
    finite carrier is a StructureError.
    """

    group: Group
    source: tuple | ProductCone
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.group.is_finite:
            raise StructureError("finite carriers are closed by generated_cone")
        src = self.source
        if isinstance(src, tuple):
            # Saturation adds and conjugates without checks, so the
            # generators are checked here, once.
            for g in src:
                self.group.check(g)
        elif not (isinstance(src, ProductCone) and isinstance(self.group, Semidirect)
                  and src.group == self.group):
            raise ShapeError("the source is generators or a componentwise cone on this carrier")

    contains = Cone.contains

    def _contains(self, x, budget):
        if x == self.group.zero():
            return yes()
        v = self._source_route(x, budget)
        if v is None and isinstance(self.group, Semidirect):
            v = self._semidirect_paths(x, budget)
        if v is not None:
            return v
        if self._bfs_reaches(x, budget):
            return yes("saturation", budget_used=self._budget_key(budget))
        v = self._abelian_exclusion(x, budget)
        if v is not None:
            return v
        return unknown("saturation budget exhausted", budget_used=self._budget_key(budget))

    def known_cone(self):
        return True

    def finite_generators(self):
        src = self.source
        return src if isinstance(src, tuple) else src.finite_generators()

    def __str__(self):
        src = self.source
        if isinstance(src, tuple):
            return f"generated({len(src)})"
        return f"least({src.x_cone} x {src.b_cone})"

    def _budget_key(self, budget: SaturationBudget):
        w = budget.window
        return (
            ("conjugators", budget.max_conjugators),
            ("summands", budget.max_summands),
            ("window", (w.int_bound, w.num_bound, w.den_bound)),
        )

    # the source and the structure shortcuts of a least cone

    def _in_source(self, x, budget) -> bool:
        """x is a generator of the tuple, or in the componentwise cone."""
        src = self.source
        return x in src if isinstance(src, tuple) else src._contains(x, budget).is_yes

    def _source_route(self, x, budget) -> Verdict | None:
        src = self.source
        if isinstance(src, tuple):
            return _SOURCE_YES if x in src else None
        xp, bp = x
        vb = src.b_cone._contains(bp, budget)
        if vb.is_no:
            return no(x, "base part outside the base cone")
        at_zero = bp == self.group.b_group.zero()
        if vb.is_unknown and not at_zero:
            return None
        vx = src.x_cone._contains(xp, budget)
        if vx.is_yes:
            return _SOURCE_YES if vb.is_yes else yes("kernel part positive")
        if vx.is_no and at_zero:
            return no(x, "kernel reflects the fibre order")
        return None

    def _semidirect_paths(self, x, budget) -> Verdict | None:
        G = self.group
        xp, bp = x
        r = self._solve_conjugator(xp, bp, budget)
        if r is not None:
            return yes(f"conjugator {format_element(r)}")
        lattice = self._fibre_lattice
        if lattice is not None and integer_solve(lattice, G.x_group.coords(xp)) is None:
            return no(x, "fibre residue obstruction: fibre outside the lattice of I - phi_e")
        return None

    def _conjugator_system(self, bp, budget) -> Elimination | Hermite | None:
        """The reduced form of I - phi_bp (the Hermite form on Z^k, the
        elimination on Q^k) when (0, bp) is a source element, else None; once
        per (bp, budget).  An action has a matrix only on a vector kernel, so
        every other kernel gets None.

        bp has passed group.check in contains, so an int and an equal
        Fraction never share a key.
        """
        key = ("conjugator", bp, budget)
        if key in self._cache:
            return self._cache[key]
        G = self.group
        X = G.x_group
        a = _one_minus_phi(G.action, bp)
        if a is not None and self._in_source((X.zero(), bp), budget):
            a = hermite(a, X.rank) if isinstance(X, FreeAbelian) else eliminate(a)
        else:
            a = None
        self._cache[key] = a
        return a

    def _solve_conjugator(self, xp, bp, budget):
        """Find r with (r,0)+(0,bp)-(r,0) = ((I - phi_bp) r, bp) = (xp,bp),
        over Z on Z^k, assuming (0,bp) generates; the conjugation certifies r."""
        G = self.group
        X = G.x_group
        system = self._conjugator_system(bp, budget)
        if system is None:
            return None
        if isinstance(system, Hermite):
            r = integer_solve(system, X.coords(xp))
        else:
            r = solve(system, X.coords(xp))
        if r is None:
            return None
        r = X.from_coords(r)
        return r if G._conjugate((r, G.b_group.zero()), (X.zero(), bp)) == (xp, bp) else None

    @cached_property
    def _fibre_lattice(self) -> Hermite | None:
        """On Z^k x| Z^n with every generator (0, b) over the base axis, the
        lattice L_S of _fibre_test with S every base generator, which holds
        the fibre of every cone element; else None.

        Every cone element is a sum of conjugates of generators, and the
        conjugate of (0, b) by (r, c) is ((I - phi_b) r, b).  L is
        phi-invariant and holds Im(I - phi_b) for every b in N^n, as
        fibrewise shows, and for -e as I - phi_{-e} = -phi_{-e} (I - phi_e),
        so for every b.  So a sum (x1, b1) + (x2, b2) = (x1 + phi_b1 x2,
        b1 + b2) keeps its fibre in L.
        """
        G, src = self.group, self.source
        X, B = G.x_group, G.b_group
        over_axis = (all(g[0] == X.zero() for g in src) if isinstance(src, tuple)
                     else isinstance(src.x_cone, TrivialCone))
        if not (over_axis and isinstance(X, FreeAbelian) and isinstance(B, FreeAbelian)):
            return None
        built = _fibre_test(G, tuple(range(B.rank)), False)
        return None if built is None else built[0]

    # budgeted breadth-first saturation

    _MAX_ATOMS = 1500
    _MAX_REACHED = 60000

    def _bfs_reaches(self, x, budget: SaturationBudget) -> bool:
        key = self._budget_key(budget)
        state = self._cache.get(key)
        if state is None:
            atoms = self._atoms(budget)
            if len(atoms) > self._MAX_ATOMS:
                atoms = frozenset(sorted(atoms, key=repr)[: self._MAX_ATOMS])
            state = {"atoms": atoms, "reached": set(atoms), "frontier": set(atoms), "level": 1}
            self._cache[key] = state
        if x in state["reached"]:
            return True
        cap = self._cap(budget)
        while (
            state["level"] < budget.max_summands
            and state["frontier"]
            and len(state["reached"]) < self._MAX_REACHED
        ):
            nxt = set()
            for a in state["frontier"]:
                for g in state["atoms"]:
                    c = self.group._add(a, g)
                    if c not in state["reached"] and _within_cap(c, cap):
                        nxt.add(c)
            state["reached"] |= nxt
            state["frontier"] = nxt
            state["level"] += 1
            if x in state["reached"]:
                return True
        return x in state["reached"]

    def _atoms(self, budget: SaturationBudget) -> frozenset:
        G = self.group
        src = self.source
        if not isinstance(src, tuple):
            src = src.positive_sample(budget.window, budget)
        base = [a for a in src if a != G.zero()]
        words = word_ball(G, G.generators(), budget.max_conjugators)
        cap = self._cap(budget)
        atoms = set()
        for a in base:
            atoms.add(a)
            for w in words:
                c = G._conjugate(w, a)
                if _within_cap(c, cap):
                    atoms.add(c)
        return frozenset(atoms)

    def _cap(self, budget: SaturationBudget) -> int:
        w = budget.window
        return max(w.int_bound, w.num_bound) * max(2, budget.max_summands)

    # exclusion certificates on abelian carriers

    def _abelian_exclusion(self, x, budget) -> Verdict | None:
        """Exact No when a ray of the generators' dual cone is negative on x,
        or when x lies outside the generators' integer span.

        The rays are complete for the rational cone C, as cone(rows) =
        {x : r.x >= 0 for every ray r} over Q: the rays generate
        C* = {y : y.a >= 0 for every row a} (dual_cone), so an x with every
        r.x >= 0 has y.x >= 0 on all of C* and lies in C** = C (Farkas).  A
        ray negative on x is >= 0 on every generator, hence on this cone.
        The cone, the generators' monoid, lies in their integer span too: x is
        there iff d x is an integer combination of the d-scaled generators, d
        the lcm of their denominators.  Both are built once per cone.
        """
        G = self.group
        if not G.is_abelian():
            return None
        vx = _flatten(G, x)
        gens = self.finite_generators()
        if vx is None or gens is None:
            return None
        built = self._cache.get("dual cone")
        if built is None:
            # _flatten depends on the carrier alone, so the generators flatten as x did.
            flat = [_flatten(G, g) for g in gens]
            d = math.lcm(*(Fraction(c).denominator for g in flat for c in g))
            span = hermite([[d * g[i] for g in flat] for i in range(len(vx))], len(flat))
            built = self._cache["dual cone"] = (dual_cone(flat, len(vx)), d, span)
        dual, d, span = built
        functional = feasible_strict(dual, [vx])
        if functional is not None:
            return no(x, f"separating functional {format_element(functional)}")
        if integer_solve(span, [d * c for c in vx]) is None:
            return no(x, "outside the integer span of the generators")
        return None


def _within_cap(el, cap: int) -> bool:
    # Exact type tests: isinstance(el, Fraction) asks an ABC on every int.
    # A bool falls through to True; with cap >= 2 isinstance passed it too.
    kind = type(el)
    if kind is tuple:
        return all(_within_cap(c, cap) for c in el)
    if kind is int:
        return abs(el) <= cap
    if kind is Fraction:
        return abs(el) <= cap and el.denominator <= 64
    return True


def _flatten(G: Group, el) -> tuple | None:
    """Exact coordinates of el in Q^m for torsion-free abelian carriers."""
    if isinstance(G, (FreeAbelian, RationalVector)):
        return G.coords(el)
    if isinstance(G, DirectProduct):
        parts = []
        for f, x in zip(G.factors, el):
            p = _flatten(f, x)
            if p is None:
                return None
            parts.extend(p)
        return tuple(parts)
    if isinstance(G, Semidirect) and G.is_abelian():
        p1 = _flatten(G.x_group, el[0])
        p2 = _flatten(G.b_group, el[1])
        if p1 is None or p2 is None:
            return None
        return p1 + p2
    return None


def _one_minus_phi(action, b):
    """The matrix I - phi_b, or None when phi_b has none."""
    m = action.matrix_for(b)
    return None if m is None else mat_sub(identity_matrix(len(m)), m)


def _fibre_test(G: Semidirect, S: tuple, orthant: bool) -> tuple | None:
    """(the Hermite form or dual cone of P_X + L_S on G, P_X the orthant if
    orthant else {0}; its yes; S named), or None if a phi_{e_i} has no matrix."""
    X = G.x_group
    gens = G.b_group.generators()
    diffs = [_one_minus_phi(G.action, gens[i]) for i in S]
    if None in diffs:
        return None
    cols = [col for d in diffs for col in zip(*d)]
    support = "{" + ", ".join(f"e{i + 1}" for i in S) + "}"
    if isinstance(X, FreeAbelian):
        test = hermite(list(zip(*cols)), len(cols))
    else:
        rays = list(identity_matrix(X.rank)) if orthant else []
        test = dual_cone(rays + cols + [tuple(-c for c in col) for col in cols], X.rank)
    return test, yes(f"fibre in P_X + L_S, S = {support}"), support


# --- the least cone over (Z^n, N^n), fibre by fibre ---------------------------


_NUMERATOR = operator.attrgetter("numerator")
_OUTSIDE, _AT_ZERO = "outside N^n", "b = 0"


def fibrewise(G: Group, source) -> bool:
    """True when source is a componentwise ProductCone on G = X x| Z^n with
    base cone N^n, X = Q^k with P_X an orthant or {0} or X = Z^k with
    P_X = {0}, and each phi_{e_i} has a matrix.

    For a compatible shape, the closure's fibre over b is P_X at b = 0,
    empty for b outside N^n, and P_X + L_S otherwise, where S = supp(b) and
    L_S = sum over i in S of Im(I - phi_{e_i}).  The conjugate of (y, b) by
    (r, c) is (phi_c y + (I - phi_b) r, b), and phi_c(P_X) = P_X because
    the shape is compatible (conjugating by (0, c) maps the fibre over 0
    into itself, for c and -c).  As phi_u commutes with I - phi_v and is
    invertible, phi_u(Im(I - phi_v)) = Im(I - phi_v); with
    I - phi_{u+v} = (I - phi_u) + phi_u (I - phi_v), Im(I - phi_b) lies in
    L_supp(b) for b in N^n.  So this set F holds the componentwise cone,
    and it is closed: (x1, b1) + (x2, b2) = (x1 + phi_b1 x2, b1 + b2) has
    supp(b1 + b2) = supp(b1) | supp(b2) on N^n, and phi_b1 keeps
    P_X + L_S2; a conjugate of (x, b) is phi_c x + (I - phi_b) r over b.
    Conversely the cone holds F: the conjugates ((I - phi_{e_i}) r_i, e_i)
    add up, over the e_i in S, to every element of L_S over e_S (phi_{e_1}
    maps Im(I - phi_{e_2}) onto itself), and adding (phi_{-e_S} p, b - e_S)
    from the componentwise cone gives (l + p, b) for every p in P_X.

    On Q^k, P_X + L_S is the rational cone of P_X's rays and +- the
    columns of the I - phi_{e_i}, decided by its dual cone; on Z^k with
    P_X = {0} it is the integer span of those columns, decided by its
    Hermite form.  A full P_X is left to GeneratedCone, whose source
    shortcut says yes to every (y, b) with b in N^n.
    """
    if not (isinstance(source, ProductCone) and isinstance(G, Semidirect)
            and source.group == G):
        return False
    px, pb = source.x_cone, source.b_cone
    X, B = G.x_group, G.b_group
    if not (isinstance(B, FreeAbelian) and isinstance(pb, OrthantCone)):
        return False
    rational = isinstance(X, RationalVector) and isinstance(px, (OrthantCone, TrivialCone))
    integral = isinstance(X, FreeAbelian) and isinstance(px, TrivialCone)
    return (rational or integral) and all(
        G.action.matrix_for(e) is not None for e in B.generators()
    )


@dataclass(frozen=True)
class FibreCone(Cone):
    """The least compatible cone of a shape whose componentwise cone source
    fibrewise accepts (any other source is a ShapeError), decided exactly.

    Membership of x = (y, b) reads b's fibre from a per-cone table, filled
    from b's coordinates when b is first met, and y's coordinates once.  It
    answers, in this order: b outside N^n (no), y = 0 at b = 0 (a bare yes),
    y in P_X (yes "source element"), b = 0 (no, as the kernel reflects the
    fibre order), then the fibre test of y over supp(b): GeneratedCone's
    zero test and source shortcuts, then the fibre test for its later routes.
    """

    group: Group
    source: ProductCone
    # base part -> its fibre (_fibre_of); support -> its fibre test; P_X is
    # the orthant (else it is {0})
    _fibres: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _tests: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _kernel_orthant: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not fibrewise(self.group, self.source):
            raise ShapeError("the source is no componentwise cone that fibrewise accepts")
        object.__setattr__(self, "_kernel_orthant", isinstance(self.source.x_cone, OrthantCone))

    contains = Cone.contains

    def _contains(self, x, budget):
        xp, bp = x
        fibre = self._fibres.get(bp)
        if fibre is None:
            fibre = self._fibres[bp] = self._fibre_of(bp)
        if fibre is _OUTSIDE:
            return no(x, "base part outside the base cone")
        yc = self.group.x_group.coords(xp)
        if not any(yc):
            return yes() if fibre is _AT_ZERO else _SOURCE_YES
        # A Fraction's sign is its numerator's, as in OrthantCone.
        if self._kernel_orthant and min(map(_NUMERATOR, yc)) >= 0:
            return _SOURCE_YES
        if fibre is _AT_ZERO:
            return no(x, "kernel reflects the fibre order")
        return self._fibre_route(x, fibre, yc)

    def known_cone(self):
        return True

    def finite_generators(self):
        return self.source.finite_generators()

    __str__ = GeneratedCone.__str__

    def _fibre_of(self, bp):
        bc = self.group.b_group.coords(bp)
        if min(bc) < 0:
            return _OUTSIDE
        S = tuple(i for i, c in enumerate(bc) if c)
        if not S:
            return _AT_ZERO
        test = self._tests.get(S)
        if test is None:
            test = self._tests[S] = _fibre_test(self.group, S, self._kernel_orthant)
        return test

    def _fibre_route(self, x, fibre: tuple, yc) -> Verdict:
        """y in P_X + L_S, from the fibre test of S = supp(b) and yc."""
        test, member, support = fibre
        if isinstance(test, Hermite):
            if integer_solve(test, yc) is None:
                return no(x, f"fibre residue obstruction: fibre outside L_S, S = {support}")
            return member
        # A dual cone with no rays is all of Q^k: no dot product is needed.
        if not test.rays:
            return member
        functional = feasible_strict(test, [yc])
        if functional is not None:
            return no(x, f"separating functional {format_element(functional)} "
                         f"of P_X + L_S, S = {support}")
        return member


def generated_cone(G: Group, generators) -> Cone:
    """Least cone containing the generators (Extensional on finite carriers)."""
    gens = tuple(generators)
    if not gens:
        return TrivialCone(G)
    if not G.is_finite:
        return GeneratedCone(G, gens)  # which checks gens
    for g in gens:
        G.check(g)
    return ExtensionalCone(G, _finite_closure(G, gens))


def _finite_closure(G: Group, seed) -> frozenset:
    """Least cone of a finite G holding the checked elements seed.

    Every element of a finite group has finite order, so a closed cone holds
    the inverses of its elements: the least cone is the subgroup generated
    by the conjugates of seed.
    """
    return frozenset(word_ball(G, {G._conjugate(g, x) for g in G.elements() for x in seed}))


@dataclass(frozen=True)
class UnitsReport:
    """The subgroup of elements equivalent to 0 (P meet -P)."""

    exact: bool
    elements: frozenset | None
    generators: tuple
    note: str = ""


def units_subgroup(cone: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> UnitsReport:
    G = cone.group
    if isinstance(cone, TrivialCone):
        return UnitsReport(True, frozenset([G.zero()]), (), "trivial cone")
    if isinstance(cone, FullCone):
        return UnitsReport(True, None, tuple(G.generators()), "full cone: every element")
    if isinstance(cone, OrthantCone):
        return UnitsReport(True, frozenset([G.zero()]), (), "antisymmetric orthant")
    pair = isinstance(G, (Semidirect, DirectProduct))
    if isinstance(cone, ProductCone) and pair and not G.is_finite:
        ux = units_subgroup(cone.x_cone, budget)
        ub = units_subgroup(cone.b_cone, budget)
        xz, bz = cone.x_cone.group.zero(), cone.b_cone.group.zero()
        gens = tuple((g, bz) for g in ux.generators) + tuple((xz, g) for g in ub.generators)
        els = None
        if ux.elements is not None and ub.elements is not None:
            els = frozenset((a, b) for a in ux.elements for b in ub.elements)
        return UnitsReport(ux.exact and ub.exact, els, gens, "componentwise")
    # The window is the whole carrier of a finite group.
    found = []
    undecided = False
    for x in G.window_elements(budget.window):
        fwd = cone.contains(x, budget)
        bwd = fwd if fwd.is_no else cone.contains(G.neg(x), budget)
        if fwd.is_yes and bwd.is_yes:
            found.append(x)
        elif not bwd.is_no:
            undecided = True
    return UnitsReport(
        G.is_finite and not undecided,
        frozenset(found),
        tuple(found),
        ("finite intersection" if G.is_finite else "window search")
        + (" (some memberships unknown)" if undecided else ""),
    )


def check_cone_axioms(cone: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """Identity, closure under addition, closure under conjugation.

    Exhaustive on finite carriers, window-checked otherwise (a clean window
    gives Yes with the window recorded in the budget trail).
    """
    G = cone.group
    els = G.window_elements(budget.window)
    z = G.zero()
    vz = cone.contains(z, budget)
    if not vz.is_yes:
        return no(z, "cone must contain the identity") if vz.is_no else vz
    memberships = [(x, cone.contains(x, budget)) for x in els]
    members = [x for x, v in memberships if v.is_yes]
    if not G.is_finite and len(members) > 250:
        # keep the pair scan tractable on wide rational windows; the slice is
        # deterministic so reports stay reproducible
        members = _spread(members, 250)
    undecided = "closure checks hit undecided memberships"
    clean = clean_scan(G, budget.window)
    if any(v.is_unknown for _, v in memberships):
        clean = unknown(undecided)
    sums = for_all_members(
        itertools.product(members, members), None, lambda ab: cone.contains(G.add(*ab), budget),
        "not closed under addition", undecided, clean,
    )
    if sums.is_no:
        return sums
    conjugators = els if G.is_finite else _spread(els, 120)
    return for_all_members(
        itertools.product(conjugators, members), None,
        lambda ga: cone.contains(G.conjugate(*ga), budget),
        "not closed under conjugation", undecided, sums,
    )


_SUBSET_NO = "element of the first cone only"
_SUBSET_UNDECIDED = "subset check hit undecided memberships"


def _on_generators_of(P: Cone, Q: Cone, budget: SaturationBudget) -> Verdict | None:
    """P inside Q decided on P's generators, or None when a scan must decide."""
    gens = P.finite_generators()
    if gens is None or not Q.known_cone():
        return None
    # Additive and conjugation closure of Q reduce the check to generators.
    v = on_generators(
        gens, lambda g: Q.contains(g, budget),
        "generator escapes the larger cone", "on generators",
    )
    return None if v.is_unknown else v


def _one_carrier(P: Cone, Q: Cone) -> None:
    """Refuse a comparison of cones on different carriers."""
    if P.group != Q.group:
        raise ShapeError("the compared cones live on different carriers")


def cone_subset(P: Cone, Q: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """P a subset of Q, window-checked with generator shortcuts.  P and Q
    must share one carrier (else ShapeError)."""
    _one_carrier(P, Q)
    if P == Q:
        return yes("identical cones")
    v = _on_generators_of(P, Q, budget)
    if v is not None:
        return v
    return _scan_inclusions(P, Q, True, False, budget, clean_scan(P.group, budget.window))


def cones_equal(P: Cone, Q: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """vand(cone_subset(P, Q), cone_subset(Q, P)), in one window scan.

    The generator shortcut settles each inclusion it can; the scan decides
    the inclusions left open.  P and Q must share one carrier (else
    ShapeError).
    """
    _one_carrier(P, Q)
    if P == Q:
        return yes("identical cones")
    lower = _on_generators_of(P, Q, budget)
    if lower is not None and lower.is_no:
        return lower
    upper = _on_generators_of(Q, P, budget)
    v = _scan_inclusions(P, Q, lower is None, upper is None, budget, yes())
    # P outside Q, found by the scan, comes before Q outside P on generators.
    return upper if upper is not None and upper.is_no and not v.is_no else v


def _scan_inclusions(P: Cone, Q: Cone, lower_open, upper_open, budget, clean) -> Verdict:
    """P inside Q (lower) and Q inside P (upper), for those left open, in one
    walk of the window, asking each cone only what an open inclusion needs.
    The first element of P outside Q returns at once; the first of Q outside
    P closes that inclusion and is returned after the scan, unless P outside
    Q turns up later."""
    if not (lower_open or upper_open):
        return clean
    upper = None
    saw_unknown = False
    for x in P.group.window_elements(budget.window):
        p = q = None
        if lower_open:
            p = P.contains(x, budget)
            if p.is_yes:
                q = Q.contains(x, budget)
                if q.is_no:
                    return no(x, _SUBSET_NO)
        if upper_open:
            if q is None:
                q = Q.contains(x, budget)
            if q.is_yes:
                if p is None:
                    p = P.contains(x, budget)
                if p.is_no:
                    upper, upper_open = no(x, _SUBSET_NO), False
                    if not lower_open:
                        break
        saw_unknown |= (p is not None and p.is_unknown) or (q is not None and q.is_unknown)
    if upper is not None:
        return upper
    return unknown(_SUBSET_UNDECIDED) if saw_unknown else clean


def is_monotone(
    h: Homomorphism,
    src: Cone,
    dst: Cone,
    budget: SaturationBudget = DEFAULT_BUDGET,
    known: tuple = (),
) -> Verdict:
    """h(P_src) inside P_dst; exact on structured data, else window-checked.

    known holds ((f, src', dst'), verdict) pairs that the caller has already
    decided; a pair map takes its components' verdicts from there.
    """
    if h.source != src.group or h.target != dst.group:
        raise ShapeError("homomorphism does not match the preordered carriers")
    if isinstance(dst, FullCone):
        return yes("full target order")
    if isinstance(src, TrivialCone):
        return yes("trivial source order")
    v = _structural_monotone(h, src, dst, budget, known)
    if v is not None:
        return v
    gens = src.finite_generators()
    if gens is not None and dst.known_cone():
        # h additive maps sums to sums and conjugates to conjugates, so
        # generator images decide the whole cone image (the target must be a
        # genuine cone for that closure argument).
        v = on_generators(
            gens, lambda g: dst.contains(h.apply(g), budget),
            "generator image not positive", "on generators",
        )
        if not v.is_unknown:
            return v
    return for_all_members(
        src.group.window_elements(budget.window),
        lambda x: src.contains(x, budget),
        lambda x: dst.contains(h.apply(x), budget),
        "positive element with non-positive image", "monotonicity hit undecided memberships",
        clean_scan(src.group, budget.window),
    )


def _structural_monotone(h, src, dst, budget, known) -> Verdict | None:
    # A matrix map out of an orthant is monotone into an orthant iff every
    # column is >= 0, and into the trivial order iff every column is 0.
    m = h.as_matrix() if isinstance(src, OrthantCone) else None
    if m is not None and isinstance(dst, (OrthantCone, TrivialCone)):
        into_orthant = isinstance(dst, OrthantCone)
        for j, gen in enumerate(src.group.generators()):
            if any(row[j] < 0 if into_orthant else row[j] != 0 for row in m):
                return no(gen, "matrix column leaves the orthant" if into_orthant
                          else "nonzero matrix column into the trivial order")
        return yes("nonnegative matrix" if into_orthant else "zero map")
    # (hx, hb) maps P_X x P_B onto hx(P_X) x hb(P_B), so monotone parts give
    # an exact yes; anything else goes to the scan, whose no names the first
    # failing element of the window.
    if isinstance(h, PairHom) and isinstance(src, ProductCone) and isinstance(dst, ProductCone):
        parts = ((h.hx, src.x_cone, dst.x_cone), (h.hb, src.b_cone, dst.b_cone))
        used = ()
        for asked in parts:
            v = next((v for question, v in known if question == asked), None)
            if v is None:
                v = is_monotone(*asked, budget)
            if not v.is_yes:
                break
            used = used or v.budget_used
        else:
            return yes("monotone on both components", budget_used=used)
    return None
