"""Group homomorphisms: representations, composition, enumeration, checking.

Finite-source maps normalize to full tables; maps out of Z^k / Q^k are linear
data (a scalar or an exact rational matrix); structure maps of composite
carriers (kernel inclusion, projection, section, pairwise maps) are their own
variants so later order checks can reason about them exactly.
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
    minimal_generating_sequence,
)
from .linalg import mat, mat_vec, matrix_inverse, scalar_matrix
from .verdict import Verdict, Window, no, unknown, yes


class Homomorphism(ABC):
    source: Group
    target: Group

    def apply(self, el: Element) -> Element:
        self.source.check(el)
        return self._apply(el)

    @abstractmethod
    def _apply(self, el: Element) -> Element:
        """The image of an el that already passed source.check."""

    def as_scalar(self) -> Optional[Fraction]:
        """x -> q*x on vector carriers, when that is exactly this map."""
        return None

    def as_matrix(self) -> Optional[tuple[tuple[Fraction, ...], ...]]:
        return None

    def additive_by_construction(self) -> bool:
        """True when the representation cannot encode a non-homomorphism."""
        return False


def _vec_rank(G: Group) -> int | None:
    if isinstance(G, (FreeAbelian, RationalVector)):
        return G.rank
    return None


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

    def as_scalar(self):
        return Fraction(1) if _vec_rank(self.group) == 1 else None

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"id[{self.group}]"


@dataclass(frozen=True)
class ScalarHom(Homomorphism):
    """x -> factor * x between vector groups of equal rank."""

    source: Group
    target: Group
    factor: Fraction

    def __post_init__(self):
        r1, r2 = _vec_rank(self.source), _vec_rank(self.target)
        if r1 is None or r1 != r2:
            raise StructureError("scalar maps need vector carriers of equal rank")
        if isinstance(self.target, FreeAbelian) and self.factor.denominator != 1:
            raise StructureError(f"factor {self.factor} does not map into {self.target}")

    def _apply(self, el):
        return self.target.from_coords(tuple(self.factor * c for c in self.source.coords(el)))

    def as_scalar(self):
        return Fraction(self.factor)

    def as_matrix(self):
        return scalar_matrix(self.factor, _vec_rank(self.source))

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"(*{self.factor})"


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
        if isinstance(self.target, FreeAbelian):
            for row in self.matrix:
                for c in row:
                    if Fraction(c).denominator != 1:
                        raise StructureError(f"entry {c} not integral for {self.target}")

    def _apply(self, el):
        return self.target.from_coords(mat_vec(self.matrix, self.source.coords(el)))

    def as_scalar(self):
        if len(self.matrix) == 1 and len(self.matrix[0]) == 1:
            return Fraction(self.matrix[0][0])
        return None

    def as_matrix(self):
        return mat(self.matrix)

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"linear{self.matrix}"


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
        return f"gen-images{self.images}"


@dataclass(frozen=True)
class PairHom(Homomorphism):
    """(x, b) -> (hx(x), hb(b)) between composite carriers."""

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

    def additive_by_construction(self):
        # Additivity still needs action equivariance; checked, not assumed.
        return False

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

    def as_scalar(self):
        a, b = self.outer.as_scalar(), self.inner.as_scalar()
        if a is not None and b is not None:
            return a * b
        return None

    def additive_by_construction(self):
        return self.outer.additive_by_construction() and self.inner.additive_by_construction()

    def __str__(self):
        return f"{self.outer} . {self.inner}"


def _pair_parts(G: Group) -> tuple[Group, Group]:
    if isinstance(G, Semidirect):
        return G.x_group, G.b_group
    if isinstance(G, DirectProduct) and len(G.factors) == 2:
        return G.factors[0], G.factors[1]
    raise StructureError(f"{G} is not a pair carrier")


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner, simplified where the representations allow."""
    if inner.target != outer.source:
        raise StructureError("composition mismatch")
    if isinstance(outer, IdentityHom):
        return inner
    if isinstance(inner, IdentityHom):
        return outer
    sa, sb = outer.as_scalar(), inner.as_scalar()
    if sa is not None and sb is not None and inner.source == outer.target:
        return ScalarHom(inner.source, outer.target, sa * sb)
    if isinstance(inner, TableHom):
        return TableHom.from_dict(
            inner.source, outer.target, {a: outer.apply(b) for a, b in inner.pairs}
        )
    return ComposedHom(outer, inner)


def invert(h: Homomorphism) -> Homomorphism | None:
    """Inverse homomorphism when the representation exposes one."""
    if isinstance(h, IdentityHom):
        return h
    if isinstance(h, ScalarHom) and h.factor != 0:
        try:
            return ScalarHom(h.target, h.source, 1 / h.factor)
        except StructureError:
            return None
    if isinstance(h, TableHom):
        inv = {b: a for a, b in h.pairs}
        if len(inv) != len(h.pairs) or not h.target.is_finite:
            return None
        if set(inv) != set(h.target.elements()):
            return None
        return TableHom.from_dict(h.target, h.source, inv)
    if isinstance(h, LinearHom):
        m = matrix_inverse(h.as_matrix())
        if m is None:
            return None
        try:
            return LinearHom(h.target, h.source, m)
        except StructureError:
            return None
    if isinstance(h, PairHom):
        ix, ib = invert(h.hx), invert(h.hb)
        if ix is None or ib is None:
            return None
        return PairHom(h.target, h.source, ix, ib)
    return None


def check_homomorphism(h: Homomorphism, window: Window | None = None) -> Verdict:
    """Additivity check: exhaustive on finite sources, else on window pairs.

    On a finite source every element is a sum of generators, so h(0) = 0 and
    h(a + g) = h(a) + h(g) for every a and every generator g give, by
    induction on the word, additivity on all pairs.
    """
    window = window or Window()
    if h.apply(h.source.zero()) != h.target.zero():
        return no(h.source.zero(), "h(0) != 0")
    els = h.source.window_elements(window)
    steps = h.source.generators() if h.source.is_finite else els
    for a in els:
        for b in steps:
            if h.apply(h.source.add(a, b)) != h.target.add(h.apply(a), h.apply(b)):
                return no((a, b), "additivity fails")
    if h.source.is_finite:
        return yes("exhaustive")
    if h.additive_by_construction():
        return yes("by construction")
    return unknown("window-verified only", budget_used=(("window", window.int_bound),))


def extend_generator_images(
    G: Group, H: Group, gens: list[Element], images: list[Element]
) -> dict | None:
    """Grow a map from generator images; None on conflict or partial cover."""
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
    if len(table) != G.order():
        return None
    for a in table:
        for g, img in zip(gens, images):
            if table[G.add(a, g)] != H.add(table[a], img):
                return None
    return table


def enumerate_homomorphisms(
    G: Group, H: Group, window: Window | None = None
) -> list[Homomorphism]:
    """All homomorphisms G -> H (images from a window when H is infinite)."""
    window = window or Window()
    if G.is_finite:
        gens = minimal_generating_sequence(G)
        if not gens:
            return [TableHom.from_dict(G, H, {G.zero(): H.zero()})]
        if H.is_finite:
            pool = H.elements()
        else:
            pool = H.window_elements(window)
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
    if isinstance(G, FreeAbelian):
        pool = H.window_elements(window)
        if G.rank == 1:
            return [FreeImagesHom(G, H, (img,)) for img in pool]
        out = []
        for images in itertools.product(pool, repeat=G.rank):
            if all(H.commutes(a, b) for a, b in itertools.combinations(images, 2)):
                out.append(FreeImagesHom(G, H, tuple(images)))
        return out
    raise StructureError(f"cannot enumerate maps out of {G}")


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
