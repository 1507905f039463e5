"""Group homomorphisms: representations, composition, enumeration, checking.

Finite-source maps normalize to full tables; maps out of Z^k / Q^k are linear
data (an exact rational matrix); structure maps of composite carriers (kernel
inclusion, projection, section, pairwise maps) are their own variants so
later order checks can reason about them exactly.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .groups import (
    CyclicGroup,
    DirectProduct,
    Element,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    StructureError,
    element_order,
    format_element,
    greedy_generators,
)
from .linalg import identity_matrix, mat, mat_vec, matrix_inverse, scalar_matrix
from .verdict import Verdict, no, yes


class Homomorphism(ABC):
    source: Group
    target: Group

    def apply(self, el: Element) -> Element:
        self.source.check(el)
        return self._apply(el)

    @abstractmethod
    def _apply(self, el: Element) -> Element:
        """The image of an el that already passed source.check."""

    def as_matrix(self) -> Optional[tuple[tuple[Fraction, ...], ...]]:
        """The matrix of this map in coordinates, when that is exactly this map."""
        return None

    def additive_by_construction(self) -> bool:
        """True when the representation cannot encode a non-homomorphism."""
        return False


def _vec_rank(G: Group) -> int | None:
    if isinstance(G, (FreeAbelian, RationalVector)):
        return G.rank
    return None


def _check_entries(source: Group, target: Group, entries) -> None:
    """Refuse a linear map that does not land in an integer target: a
    fractional entry, or any nonzero entry out of Q^k, since Q^k is divisible
    and Z^m has no nonzero divisible element (Hom(Q^k, Z^m) = 0)."""
    if isinstance(target, FreeAbelian):
        for c in entries:
            if Fraction(c).denominator != 1:
                raise StructureError(f"entry {c} not integral for {target}")
            if c and isinstance(source, RationalVector):
                raise StructureError(f"no nonzero map from {source} into {target}")


@dataclass(frozen=True)
class IdentityHom(Homomorphism):
    group: Group

    @property
    def source(self):
        return self.group

    @property
    def target(self):
        return self.group

    def _apply(self, el):
        return el

    def as_matrix(self):
        r = _vec_rank(self.group)
        return None if r is None else identity_matrix(r)

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"id[{self.group}]"


@dataclass(frozen=True)
class LinearHom(Homomorphism):
    """Matrix map between vector groups; rows index the target coordinates."""

    source: Group
    target: Group
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        r1, r2 = _vec_rank(self.source), _vec_rank(self.target)
        if r1 is None or r2 is None:
            raise StructureError("linear maps need vector carriers")
        if len(self.matrix) != r2 or any(len(row) != r1 for row in self.matrix):
            raise StructureError("matrix shape does not match carrier ranks")
        _check_entries(self.source, self.target, (c for row in self.matrix for c in row))

    @classmethod
    def scalar(cls, source: Group, target: Group, c) -> "LinearHom":
        """x -> c x, the matrix c I; the target must have the source's rank."""
        return cls(source, target, scalar_matrix(c, _vec_rank(source) or 0))

    def _apply(self, el):
        return self.target.from_coords(mat_vec(self.matrix, self.source.coords(el)))

    def as_matrix(self):
        return mat(self.matrix)

    def additive_by_construction(self):
        return True

    def __str__(self):
        if len(self.matrix) == 1 and len(self.matrix[0]) == 1:
            return f"(*{self.matrix[0][0]})"
        return f"linear{format_element(self.matrix)}"


@dataclass(frozen=True)
class TableHom(Homomorphism):
    """Full element map out of a finite group, stored as sorted pairs."""

    source: Group
    target: Group
    pairs: tuple[tuple[Element, Element], ...]

    @staticmethod
    def from_dict(source: Group, target: Group, mapping: dict) -> "TableHom":
        return TableHom(source, target, tuple(sorted(mapping.items())))

    def __post_init__(self):
        if not self.source.is_finite:
            raise StructureError("table maps need a finite source")
        # Before the cover test: True == 1 and both hash alike.
        for a, b in self.pairs:
            self.source.check(a)
            self.target.check(b)
        if {a for a, _ in self.pairs} != set(self.source.elements()):
            raise StructureError("table must cover every source element")

    @cached_property
    def _table(self) -> dict:
        return dict(self.pairs)

    def mapping(self) -> dict:
        return dict(self._table)

    def _apply(self, el):
        # Only reached after source.check: True == 1 and both hash alike.
        return self._table[el]

    def __str__(self):
        return f"table({len(self.pairs)})"


@dataclass(frozen=True)
class FreeImagesHom(Homomorphism):
    """Map determined by generator images; source Z, Z^k, or Z_n."""

    source: Group
    target: Group
    images: tuple[Element, ...]

    def __post_init__(self):
        if isinstance(self.source, CyclicGroup):
            if len(self.images) != 1:
                raise StructureError("cyclic source takes one image")
            img = self.images[0]
            if self.target.scalar_mul(self.source.n, img) != self.target.zero():
                raise StructureError(
                    f"image {img} has order not dividing {self.source.n}"
                )
        elif isinstance(self.source, FreeAbelian):
            if len(self.images) != self.source.rank:
                raise StructureError("need one image per basis vector")
            for a, b in itertools.combinations(self.images, 2):
                if not self.target.commutes(a, b):
                    raise StructureError(f"images {a}, {b} do not commute")
        else:
            raise StructureError(f"unsupported source {self.source}")

    def _apply(self, el):
        if isinstance(self.source, CyclicGroup):
            return self.target.scalar_mul(el, self.images[0])
        acc = self.target.zero()
        for c, img in zip(self.source.coords(el), self.images):
            acc = self.target.add(acc, self.target.scalar_mul(c, img))
        return acc

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"gen-images{format_element(self.images)}"


@dataclass(frozen=True)
class PairHom(Homomorphism):
    """(x, b) -> (hx(x), hb(b)) between composite carriers; additive only when
    hx and hb intertwine the actions, which is checked, not assumed."""

    source: Group
    target: Group
    hx: Homomorphism
    hb: Homomorphism

    def __post_init__(self):
        # _pair_parts refuses other carriers; composites pass the image on unchecked.
        parts = zip((self.hx, self.hb), _pair_parts(self.source), _pair_parts(self.target))
        if any(h.source != s or h.target != t for h, s, t in parts):
            raise StructureError("pair map parts do not match the carriers")

    def _apply(self, el):
        x, b = el
        return (self.hx.apply(x), self.hb.apply(b))

    def __str__(self):
        return f"({self.hx} x {self.hb})"


@dataclass(frozen=True)
class KernelHom(Homomorphism):
    """x -> (x, 0) into a semidirect or direct-product carrier."""

    carrier: Group

    @property
    def source(self):
        return _pair_parts(self.carrier)[0]

    @property
    def target(self):
        return self.carrier

    def _apply(self, el):
        return (el, _pair_parts(self.carrier)[1].zero())

    def additive_by_construction(self):
        return True

    def __str__(self):
        return "<1,0>"


@dataclass(frozen=True)
class SectionHom(Homomorphism):
    """b -> (0, b) into a semidirect or direct-product carrier."""

    carrier: Group

    @property
    def source(self):
        return _pair_parts(self.carrier)[1]

    @property
    def target(self):
        return self.carrier

    def _apply(self, el):
        return (_pair_parts(self.carrier)[0].zero(), el)

    def additive_by_construction(self):
        return True

    def __str__(self):
        return "<0,1>"


@dataclass(frozen=True)
class ProjectionHom(Homomorphism):
    """(x, b) -> b out of a semidirect or direct-product carrier."""

    carrier: Group

    @property
    def source(self):
        return self.carrier

    @property
    def target(self):
        return _pair_parts(self.carrier)[1]

    def _apply(self, el):
        return el[1]

    def additive_by_construction(self):
        return True

    def __str__(self):
        return "pi_B"


def _pair_parts(G: Group) -> tuple[Group, Group]:
    if isinstance(G, Semidirect):
        return G.x_group, G.b_group
    if isinstance(G, DirectProduct) and len(G.factors) == 2:
        return G.factors[0], G.factors[1]
    raise StructureError(f"{G} is not a pair carrier")


def invert(h: Homomorphism) -> Homomorphism | None:
    """Inverse homomorphism when the representation exposes one."""
    if isinstance(h, IdentityHom):
        return h
    if isinstance(h, TableHom):
        inv = {b: a for a, b in h.pairs}
        if len(inv) != len(h.pairs) or not h.target.is_finite:
            return None
        if set(inv) != set(h.target.elements()):
            return None
        return TableHom.from_dict(h.target, h.source, inv)
    if isinstance(h, PairHom):
        ix, ib = invert(h.hx), invert(h.hb)
        if ix is None or ib is None:
            return None
        return PairHom(h.target, h.source, ix, ib)
    m = h.as_matrix()
    inv = None if m is None else matrix_inverse(m)
    if inv is None:
        return None
    try:
        return LinearHom(h.target, h.source, inv)
    except StructureError:
        return None


def _decided_on_generators(G: Group) -> bool:
    if isinstance(G, (DirectProduct, Semidirect)):
        parts = G.factors if isinstance(G, DirectProduct) else (G.x_group, G.b_group)
        return all(_decided_on_generators(p) for p in parts)
    return G.is_finite or isinstance(G, (FreeAbelian, RationalVector))


def first_difference(G: Group, f, g) -> Element | None:
    """The first generator of G where the callables f and g differ, or None.

    For homomorphisms f, g out of any carrier ordsplit builds, None means
    f = g: the x with f(x) = g(x) form a subgroup S that holds the
    generators.  Z^k and finite groups are generated by theirs, and a
    product or pair carrier by its parts' ((x, b) = (x, 0) + (0, b)).  On
    Q^k, n f(v/n) = f(v) = g(v) = n g(v/n), where f(v/n) and g(v/n) are
    divisible; the divisible elements of every ordsplit carrier lie in a
    torsion-free abelian part (Q^m coordinates, as divisible base elements
    act trivially), where n-th roots are unique, so S holds v/n too.  Q_{>0},
    which its generator 2 does not generate, is refused.
    """
    if not _decided_on_generators(G):
        raise StructureError(f"generators of {G} do not decide maps out of it")
    return next((x for x in G.generators() if f(x) != g(x)), None)


def check_homomorphism(h: Homomorphism) -> Verdict:
    """Additivity check on a finite source; StructureError on an infinite one.

    Every element is a sum of generators, so h(0) = 0 and h(a + g) = h(a) +
    h(g) for every a and every generator g give, by induction on the word,
    additivity on all pairs.
    """
    G = h.source
    if not G.is_finite:
        raise StructureError(f"additivity is checked on finite sources only, not on {G}")
    if h.apply(G.zero()) != h.target.zero():
        return no(G.zero(), "h(0) != 0")
    steps = G.generators()
    for a in G.elements():
        for b in steps:
            if h.apply(G.add(a, b)) != h.target.add(h.apply(a), h.apply(b)):
                return no((a, b), "additivity fails")
    return yes("exhaustive")


def extend_generator_images(
    G: Group, H: Group, gens: list[Element], images: list[Element]
) -> dict | None:
    """Grow a map from generator images; None on conflict or partial cover.

    The search meets every (a, g) once, so a cover has table[a + g] =
    table[a] + image(g) throughout: a homomorphism, as gens generate G."""
    table = {G.zero(): H.zero()}
    frontier = [G.zero()]
    while frontier:
        nxt = []
        for a in frontier:
            for g, img in zip(gens, images):
                b = G.add(a, g)
                val = H.add(table[a], img)
                if b in table:
                    if table[b] != val:
                        return None
                else:
                    table[b] = val
                    nxt.append(b)
        frontier = nxt
    return table if len(table) == G.order() else None


def enumerate_homomorphisms(G: Group, H: Group) -> list[Homomorphism]:
    """All homomorphisms G -> H between finite groups."""
    if not (G.is_finite and H.is_finite):
        raise StructureError(f"cannot enumerate maps {G} -> {H}: both groups must be finite")
    gens = greedy_generators(G, G.elements())
    if not gens:
        return [TableHom.from_dict(G, H, {G.zero(): H.zero()})]
    pool = H.elements()
    candidates = []
    for g in gens:
        k = element_order(G, g)
        candidates.append([h for h in pool if H.scalar_mul(k, h) == H.zero()])
    out = []
    seen = set()
    for images in itertools.product(*candidates):
        table = extend_generator_images(G, H, gens, list(images))
        if table is None:
            continue
        key = tuple(sorted(table.items()))
        if key not in seen:
            seen.add(key)
            out.append(TableHom(G, H, key))
    return out


def enumerate_automorphisms(G: Group) -> list[Homomorphism]:
    """All automorphisms of a finite group, closed under composition."""
    if not G.is_finite:
        raise StructureError(f"{G} is infinite; use the symbolic classifier groups")
    n = G.order()
    out = []
    for h in enumerate_homomorphisms(G, G):
        if len(set(h.mapping().values())) == n:
            out.append(h)
    return out
