"""Positive cones, the preorders they induce, and the closure engine.

A cone is a submonoid closed under conjugation; it determines the preorder
x <= y  iff  -x+y is in the cone.  Membership answers are three-valued:
built-in cones are exact, generated cones search within a budget and certify
exclusions on abelian carriers with separating functionals.

Membership follows the template of groups, actions and maps: the public
contains checks the element once, _contains trusts it, and a composite cone
(product, point product, intersection, lex, generated, pullback, family)
asks its parts' _contains about the components.

Generated cones memoize their saturation per budget, and the elimination of
the conjugator system I - phi_b per base element and budget, so that each
fibre element costs one matrix-vector product; the fill is idempotent and
queries never mutate shared state in a way observable across queries.

The "for all" checks (cone subset, monotonicity, pointwise comparison, the
cone axioms, fibre reflection) get their "on generators", "window-verified"
and "exhaustive" verdicts only from the two helpers in verdict.py:
on_generators for the generator shortcut, for_all_members for the scan.
cones_equal, behind strongness and rali, decides both inclusions in one
window scan and answers exactly as the two cone_subset calls would.
"""

from __future__ import annotations

import itertools
import math
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
from .homs import Homomorphism, KernelHom, ProjectionHom, SectionHom, _pair_parts
from .linalg import (
    Elimination,
    eliminate,
    feasible_strict,
    identity_matrix,
    mat_sub,
    scalar_matrix,
    solve,
)
from .verdict import (
    DEFAULT_BUDGET,
    SaturationBudget,
    Verdict,
    Window,
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
        for c in self.group.coords(x):
            if c < 0:
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


@dataclass(frozen=True)
class PreorderedGroup:
    group: Group
    cone: Cone

    def __post_init__(self):
        if self.cone.group != self.group:
            raise ShapeError("cone carrier differs from the group")

    def leq(self, x, y, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        """x <= y, i.e. -x+y in the cone."""
        v = self.cone.contains(self.group.add(self.group.neg(x), y), budget)
        if v.is_no:
            return no((x, y), f"{format_element(x)} !<= {format_element(y)}")
        return v

    def sim(self, x, y, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        return vand(self.leq(x, y, budget), self.leq(y, x, budget))

    def strictly_positive(self, b, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
        """0 <= b and not b <= 0; the No side must be exact for a Yes."""
        pos = self.leq(self.group.zero(), b, budget)
        back = self.leq(b, self.group.zero(), budget)
        return vand(pos, vnot(back, b))

    def __str__(self):
        return f"({self.group}, {self.cone})"


@dataclass(frozen=True)
class LexCone(Cone):
    """b strictly positive, or b a unit and x positive."""

    group: Group
    x_pre: PreorderedGroup
    b_pre: PreorderedGroup

    def __post_init__(self):
        if not isinstance(self.group, (Semidirect, DirectProduct)):
            raise ShapeError("lex cone needs a pair carrier")
        if (self.x_pre.group, self.b_pre.group) != _pair_parts(self.group):
            raise ShapeError("lex cone components live on other carriers")

    contains = Cone.contains

    def _contains(self, x, budget):
        # 0 <= b, b <= 0 and 0 <= x are b, -b and x in their cones.
        xp, bp = x
        B, b_cone = self.b_pre.group, self.b_pre.cone
        pos = b_cone._contains(bp, budget)
        back = b_cone._contains(B._neg(bp), budget)
        strict = vand(pos, vnot(back, bp))
        if strict.is_yes:
            return yes()
        xpos = self.x_pre.cone._contains(xp, budget)
        tail = vand(back, pos, xpos)
        if tail.is_yes:
            return yes()
        if strict.is_no and tail.is_no:
            return no(x)
        return unknown("lex membership undecided at this budget")

    def __str__(self):
        return "lex"


# --- generated cones ---------------------------------------------------------


@dataclass(frozen=True)
class ExplicitGenerators:
    elements: tuple

    def sample(self, group: Group, window: Window, budget) -> list:
        return list(self.elements)

    def member(self, x, budget) -> Verdict:
        if x in self.elements:
            return yes()
        return no(x)


@dataclass(frozen=True)
class ConeGenerators:
    """Generate from every element of an existing cone (possibly infinite)."""

    cone: Cone

    def sample(self, group: Group, window: Window, budget) -> list:
        return self.cone.positive_sample(window, budget)

    def member(self, x, budget) -> Verdict:
        return self.cone._contains(x, budget)


@dataclass(frozen=True)
class GeneratedCone(Cone):
    """Additive closure of the conjugation closure of the source set.

    Yes answers come from source membership, solved conjugators, or budgeted
    breadth-first saturation; No answers need an exact argument (separating
    functional, or the structure shortcuts unlocked by certified_compatible).

    Whether the source is already closed is not asked here: minimal_cone
    decides it once and returns a closed componentwise cone as it is.  A
    GeneratedCone built by hand over a closed source stays sound, but may
    answer Unknown where the source itself would decide.  Finite carriers
    are closed exactly by generated_cone, so they are refused here.
    """

    group: Group
    source: ExplicitGenerators | ConeGenerators
    certified_compatible: bool = False
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.group.is_finite:
            raise StructureError("finite carriers are closed by generated_cone")
        # Saturation adds and conjugates without checks, so what it starts
        # from is checked here, once.
        if isinstance(self.source, ExplicitGenerators):
            for g in self.source.elements:
                self.group.check(g)
        elif self.source.cone.group != self.group:
            raise ShapeError("source cone lives on another group")

    contains = Cone.contains

    def _contains(self, x, budget):
        if x == self.group.zero():
            return yes()
        src = self.source.member(x, budget)
        if src.is_yes:
            return yes("source element")
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
        if isinstance(self.source, ExplicitGenerators):
            return self.source.elements
        if isinstance(self.source, ConeGenerators):
            return self.source.cone.finite_generators()
        return None

    def _budget_key(self, budget: SaturationBudget):
        w = budget.window
        return (
            ("conjugators", budget.max_conjugators),
            ("summands", budget.max_summands),
            ("window", (w.int_bound, w.num_bound, w.den_bound)),
        )

    # structure shortcuts on semidirect carriers

    def _semidirect_paths(self, x, budget) -> Verdict | None:
        G = self.group
        if not isinstance(G, Semidirect):
            return None
        xp, bp = x
        px, pb = self._product_parts()
        if self.certified_compatible and pb is not None:
            vb = pb._contains(bp, budget)
            if vb.is_no:
                return no(x, "base part outside the base cone")
            if bp == G.b_group.zero() and px is not None:
                vx = px._contains(xp, budget)
                if vx.is_yes:
                    return yes("kernel part positive")
                if vx.is_no:
                    return no(x, "kernel reflects the fibre order")
        r = self._solve_conjugator(xp, bp, budget)
        if r is not None:
            return yes(f"conjugator {format_element(r)}")
        v = self._residue_exclusion(x, budget)
        if v is not None:
            return v
        return None

    def _product_parts(self) -> tuple[Cone | None, Cone | None]:
        src = self.source
        if isinstance(src, ConeGenerators) and isinstance(src.cone, ProductCone):
            return src.cone.x_cone, src.cone.b_cone
        return None, None

    def _fibre_parts_all_zero(self) -> bool:
        """Do all generators sit over the base axis, with trivial fibre part?"""
        px, _ = self._product_parts()
        if isinstance(px, TrivialCone):
            return True
        if isinstance(self.source, ExplicitGenerators):
            xz = self.group.x_group.zero()
            return all(g[0] == xz for g in self.source.elements)
        return False

    def _conjugator_system(self, bp, budget) -> Elimination | None:
        """The elimination of I - phi_bp when (0, bp) is a source element,
        else None; once per (bp, budget).

        bp has passed group.check in contains, so an int and an equal
        Fraction never share a key.
        """
        key = ("conjugator", bp, budget)
        if key in self._cache:
            return self._cache[key]
        G = self.group
        X = G.x_group
        a = None
        m = G.action.matrix_for(bp)
        if m is None:
            s = G.action.scalar_for(bp)
            if s is not None:
                m = scalar_matrix(s, X.rank)
        if m is not None and self.source.member((X.zero(), bp), budget).is_yes:
            a = eliminate(mat_sub(identity_matrix(X.rank), m))
        self._cache[key] = a
        return a

    def _solve_conjugator(self, xp, bp, budget):
        """Find r with (r,0)+(0,bp)-(r,0) = (xp,bp), assuming (0,bp) generates."""
        G = self.group
        X = G.x_group
        if not isinstance(X, (FreeAbelian, RationalVector)):
            return None
        system = self._conjugator_system(bp, budget)
        if system is None:
            return None
        particular, basis = solve(system, X.coords(xp))
        if particular is None:
            return None
        candidates = [particular]
        if basis:
            for shifts in itertools.product(range(-3, 4), repeat=len(basis)):
                v = list(particular)
                for s, bvec in zip(shifts, basis):
                    v = [c + s * bc for c, bc in zip(v, bvec)]
                candidates.append(tuple(v))
        for cand in candidates:
            try:
                r = X.from_coords(cand)
            except ShapeError:
                continue  # not integral on Z^k
            check = G._conjugate((r, G.b_group.zero()), (X.zero(), bp))
            if check == (xp, bp):
                return r
        return None

    def _residue_exclusion(self, el, budget) -> Verdict | None:
        """Exact No on Z x| Z with trivial fibre cone and a finite-order action.

        Every cone element over a nonzero base part is a sum of conjugates
        (r - phi_beta(r), beta), so its fibre lies in the subgroup generated
        by the images of (id - phi_beta); with period p those images repeat,
        and a residue obstruction modulo their gcd certifies exclusion.
        """
        G = self.group
        xp, bp = el
        X, B = G.x_group, G.b_group
        if not (
            isinstance(X, FreeAbelian)
            and X.rank == 1
            and isinstance(B, FreeAbelian)
            and B.rank == 1
        ):
            return None
        if not self._fibre_parts_all_zero():
            return None
        period = None
        for p in range(1, budget.window.int_bound + 1):
            if G.action.is_identity_for(p):
                period = p
                break
        if period is None:
            return None
        diffs = []
        for beta in range(1, period + 1):
            s = G.action.scalar_for(beta)
            if s is None or s.denominator != 1:
                return None
            diffs.append(1 - int(s))
        if bp == B.zero():
            return None  # handled by the kernel-reflection path
        nonzero = [abs(d) for d in diffs if d]
        if not nonzero:
            return no(el, "action is trivial and the fibre cone is {0}") if xp != 0 else None
        d = 0
        for v in nonzero:
            d = math.gcd(d, v)
        if xp % d != 0:
            return no(el, f"fibre residue obstruction modulo {d}")
        return None

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
        base = [
            a
            for a in self.source.sample(G, budget.window, budget)
            if a != G.zero()
        ]
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
        G = self.group
        if not G.is_abelian():
            return None
        vx = _flatten(G, x)
        gens = self.finite_generators()
        if vx is None or gens is None:
            return None
        vgens = [_flatten(G, g) for g in gens]
        if None in vgens:
            return None
        # Fourier-Motzkin is complete: by Farkas' lemma, when no functional
        # separates x it lies in the rational cone of the generators.
        functional = feasible_strict(vgens, [vx])
        if functional is not None:
            return no(x, f"separating functional {functional}")
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


def generated_cone(G: Group, generators) -> Cone:
    """Least cone containing the generators (Extensional on finite carriers)."""
    gens = tuple(generators)
    if not gens:
        return TrivialCone(G)
    if not G.is_finite:
        return GeneratedCone(G, ExplicitGenerators(gens))  # which checks gens
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


def units_subgroup(P: PreorderedGroup, budget: SaturationBudget = DEFAULT_BUDGET) -> UnitsReport:
    G, cone = P.group, P.cone
    if isinstance(cone, TrivialCone):
        return UnitsReport(True, frozenset([G.zero()]), (), "trivial cone")
    if isinstance(cone, FullCone):
        return UnitsReport(True, None, tuple(G.generators()), "full cone: every element")
    if isinstance(cone, OrthantCone):
        return UnitsReport(True, frozenset([G.zero()]), (), "antisymmetric orthant")
    if G.is_finite:
        els = [
            x
            for x in G.elements()
            if cone.contains(x, budget).is_yes and cone.contains(G.neg(x), budget).is_yes
        ]
        return UnitsReport(True, frozenset(els), tuple(els), "finite intersection")
    if isinstance(cone, ProductCone) and isinstance(G, (Semidirect, DirectProduct)):
        X, B = _pair_parts(G)
        ux = units_subgroup(PreorderedGroup(X, cone.x_cone), budget)
        ub = units_subgroup(PreorderedGroup(B, cone.b_cone), budget)
        xz, bz = X.zero(), B.zero()
        gens = tuple((g, bz) for g in ux.generators) + tuple((xz, g) for g in ub.generators)
        els = None
        if ux.elements is not None and ub.elements is not None:
            els = frozenset((a, b) for a in ux.elements for b in ub.elements)
        return UnitsReport(ux.exact and ub.exact, els, gens, "componentwise")
    found = []
    undecided = False
    for x in G.window_elements(budget.window):
        fwd = cone.contains(x, budget)
        bwd = cone.contains(G.neg(x), budget)
        if fwd.is_yes and bwd.is_yes:
            found.append(x)
        elif fwd.is_unknown or bwd.is_unknown:
            undecided = True
    return UnitsReport(
        False,
        frozenset(found),
        tuple(found),
        "window search" + (" (some memberships unknown)" if undecided else ""),
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
    note = "exhaustive" if G.is_finite else "window-verified"
    clean = yes(note, budget_used=(("window", budget.window.int_bound),))
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


def cone_subset(P: Cone, Q: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """P a subset of Q, window-checked with generator shortcuts."""
    if P == Q:
        return yes("identical cones")
    v = _on_generators_of(P, Q, budget)
    if v is not None:
        return v
    G = P.group
    return for_all_members(
        G.window_elements(budget.window),
        lambda x: P.contains(x, budget),
        lambda x: Q.contains(x, budget),
        _SUBSET_NO, _SUBSET_UNDECIDED,
        yes("exhaustive" if G.is_finite else "window-verified"),
    )


def cones_equal(P: Cone, Q: Cone, budget: SaturationBudget = DEFAULT_BUDGET) -> Verdict:
    """vand(cone_subset(P, Q), cone_subset(Q, P)), in one window scan.

    The generator shortcut settles each inclusion it can.  The scan then
    walks the window once for the inclusions left open, asking each cone
    about an element only when an open inclusion needs the answer.  The
    first element of P outside Q returns at once; the first of Q outside P
    closes that inclusion and is returned after the scan, unless P outside
    Q turns up later.
    """
    if P == Q:
        return yes("identical cones")
    lower = _on_generators_of(P, Q, budget)
    if lower is not None and lower.is_no:
        return lower
    upper = _on_generators_of(Q, P, budget)
    open_lower, open_upper = lower is None, upper is None
    saw_unknown = False
    if open_lower or open_upper:
        for x in P.group.window_elements(budget.window):
            p = q = None
            if open_lower:
                p = P.contains(x, budget)
                if p.is_yes:
                    q = Q.contains(x, budget)
                    if q.is_no:
                        return no(x, _SUBSET_NO)
            if open_upper:
                if q is None:
                    q = Q.contains(x, budget)
                if q.is_yes:
                    if p is None:
                        p = P.contains(x, budget)
                    if p.is_no:
                        upper, open_upper = no(x, _SUBSET_NO), False
                        if not open_lower:
                            break
            saw_unknown |= (p is not None and p.is_unknown) or (q is not None and q.is_unknown)
    if upper is not None and upper.is_no:
        return upper
    return unknown(_SUBSET_UNDECIDED) if saw_unknown else yes()


def is_monotone(
    h: Homomorphism,
    src: PreorderedGroup,
    dst: PreorderedGroup,
    budget: SaturationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """h(P_src) inside P_dst; exact on structured data, else window-checked."""
    if h.source != src.group or h.target != dst.group:
        raise ShapeError("homomorphism does not match the preordered carriers")
    if isinstance(dst.cone, FullCone):
        return yes("full target order")
    if isinstance(src.cone, TrivialCone):
        return yes("trivial source order")
    v = _structural_monotone(h, src, dst, budget)
    if v is not None:
        return v
    gens = src.cone.finite_generators()
    if gens is not None and dst.cone.known_cone():
        # h additive maps sums to sums and conjugates to conjugates, so
        # generator images decide the whole cone image (the target must be a
        # genuine cone for that closure argument).
        v = on_generators(
            gens, lambda g: dst.cone.contains(h.apply(g), budget),
            "generator image not positive", "on generators",
        )
        if not v.is_unknown:
            return v
    return for_all_members(
        src.group.window_elements(budget.window),
        lambda x: src.cone.contains(x, budget),
        lambda x: dst.cone.contains(h.apply(x), budget),
        "positive element with non-positive image", "monotonicity hit undecided memberships",
        yes("window-verified", budget_used=(("window", budget.window.int_bound),)),
    )


def _structural_monotone(h, src, dst, budget) -> Verdict | None:
    # Scalar/matrix maps between orthants decide exactly by sign inspection.
    if isinstance(src.cone, OrthantCone) and isinstance(dst.cone, OrthantCone):
        m = h.as_matrix()
        s = h.as_scalar()
        if s is not None:
            if s >= 0:
                return yes("nonnegative scalar")
            one = src.group.generators()[0]
            return no(one, f"scalar {s} flips positives")
        if m is not None:
            for j in range(len(m[0])):
                if any(row[j] < 0 for row in m):
                    return no(src.group.generators()[j], "matrix column leaves the orthant")
            return yes("nonnegative matrix")
    if isinstance(src.cone, OrthantCone) and isinstance(dst.cone, TrivialCone):
        s = h.as_scalar()
        if s is not None:
            if s == 0:
                return yes("zero map")
            return no(src.group.generators()[0], "nonzero scalar into the trivial order")
    # Structure maps of pair carriers against their componentwise cones.
    if isinstance(h, ProjectionHom):
        c = src.cone
        if isinstance(c, ProductCone) and c.b_cone == dst.cone:
            return yes("projection of a componentwise cone")
        if isinstance(c, LexCone) and c.b_pre.cone == dst.cone:
            return yes("projection of the lexicographic cone")
    if isinstance(h, KernelHom):
        c = dst.cone
        if isinstance(c, ProductCone) and c.x_cone == src.cone:
            return yes("kernel inclusion into a componentwise cone")
        if isinstance(c, LexCone) and c.x_pre.cone == src.cone:
            return yes("kernel inclusion into the lexicographic cone")
    if isinstance(h, SectionHom):
        c = dst.cone
        if isinstance(c, ProductCone) and c.b_cone == src.cone:
            return yes("section into a componentwise cone")
    return None
