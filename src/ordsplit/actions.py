"""Actions of a group B on a group X by automorphisms.

Each variant evaluates exactly and can say, per element b, whether the
automorphism it induces is the identity; that powers both abelianness
detection for twisted carriers and unit handling in compatibility checks.
Every linear action of Z^k on a vector group is one `MatrixAction`; the
scaling action of Z on Q^k (n acting by q^n) is `MatrixAction.scaling`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .groups import (
    CyclicGroup,
    DirectProduct,
    Element,
    FreeAbelian,
    Group,
    RationalVector,
    StructureError,
    format_element,
)
from .homs import Homomorphism, TableHom
from .linalg import Matrix, determinant, mat, mat_mul, mat_pow, mat_vec, scalar_matrix
from .verdict import Verdict, no, yes


class Action(ABC):
    acting: Group
    acted: Group

    def apply(self, b: Element, x: Element) -> Element:
        self.acting.check(b)
        self.acted.check(x)
        return self._apply(b, x)

    @abstractmethod
    def _apply(self, b: Element, x: Element) -> Element:
        """phi_b(x) for b and x that already passed check."""

    def as_hom(self, b: Element) -> Homomorphism:
        return ActionHom(self, b)

    def is_identity_for(self, b: Element) -> bool:
        """Exact: does b act as the identity automorphism?"""
        return False

    def provably_trivial(self) -> bool:
        gens = self.acting.generators()
        return all(self.is_identity_for(g) for g in gens)

    def matrix_for(self, b: Element) -> Optional[Matrix]:
        return None


@dataclass(frozen=True)
class ActionHom(Homomorphism):
    """The automorphism of X induced by a fixed b."""

    action: Action
    b: Element

    def __post_init__(self):
        self.action.acting.check(self.b)

    @property
    def source(self):
        return self.action.acted

    @property
    def target(self):
        return self.action.acted

    def apply(self, el):
        return self.action.apply(self.b, el)

    def _apply(self, el):
        return self.action._apply(self.b, el)

    @cached_property
    def _matrix(self):
        return self.action.matrix_for(self.b)

    def as_matrix(self):
        return self._matrix

    def additive_by_construction(self):
        return True

    def __str__(self):
        return f"phi_{self.b}"


def _vector_scalar(X: Group, s) -> Optional[Matrix]:
    """s times the identity on a vector group X."""
    return scalar_matrix(s, X.rank) if isinstance(X, (FreeAbelian, RationalVector)) else None


@dataclass(frozen=True)
class TrivialAction(Action):
    acting: Group
    acted: Group

    def _apply(self, b, x):
        return x

    def is_identity_for(self, b):
        self.acting.check(b)
        return True

    def matrix_for(self, b):
        return _vector_scalar(self.acted, 1)

    def __str__(self):
        return "trivial"


@dataclass(frozen=True)
class SignAction(Action):
    """b of even parity acts as id, odd parity as negation; X must be abelian."""

    acting: Group
    acted: Group

    def __post_init__(self):
        ok = isinstance(self.acting, FreeAbelian) and self.acting.rank == 1
        ok = ok or (isinstance(self.acting, CyclicGroup) and self.acting.n == 2)
        if not ok:
            raise StructureError("sign action needs acting group Z or Z_2")
        if not self.acted.is_abelian():
            raise StructureError("sign action needs an abelian acted group")

    def _apply(self, b, x):
        return x if b % 2 == 0 else self.acted._neg(x)

    def is_identity_for(self, b):
        self.acting.check(b)
        return b % 2 == 0

    def matrix_for(self, b):
        return _vector_scalar(self.acted, 1 if b % 2 == 0 else -1)

    def __str__(self):
        return "sign"


@dataclass(frozen=True)
class MatrixAction(Action):
    """Generators of Z^k act by commuting invertible matrices."""

    acting: Group
    acted: Group
    images: tuple[Matrix, ...]
    # The matrix of b per b, filled only after b passed acting.check:
    # Fraction(2) == 2 and both hash alike, and each costs a mat_pow per
    # generator.
    _matrices: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.acting, FreeAbelian):
            raise StructureError("matrix action needs acting group Z^k")
        if not isinstance(self.acted, (FreeAbelian, RationalVector)):
            raise StructureError("matrix action needs a vector acted group")
        if len(self.images) != self.acting.rank:
            raise StructureError("need one matrix per acting generator")
        rank = self.acted.rank
        mats = [mat(m) for m in self.images]
        object.__setattr__(self, "images", tuple(mats))
        for m in mats:
            if len(m) != rank or any(len(row) != rank for row in m):
                raise StructureError("matrix size does not match acted rank")
            d = determinant(m)
            if isinstance(self.acted, FreeAbelian):
                if abs(d) != 1:
                    raise StructureError(f"matrix must be unimodular over Z, det={d}")
                if any(c.denominator != 1 for row in m for c in row):
                    raise StructureError("matrix entries must be integral over Z")
            elif d == 0:
                raise StructureError("matrix must be invertible")
        for m1, m2 in itertools.combinations(mats, 2):
            if mat_mul(m1, m2) != mat_mul(m2, m1):
                raise StructureError("generator matrices must commute")

    @classmethod
    def scaling(cls, acting: Group, acted: Group, q) -> "MatrixAction":
        """n in Z acts on Q^k by multiplication with q^n (q a positive rational)."""
        if not (isinstance(acting, FreeAbelian) and acting.rank == 1):
            raise StructureError("scaling action needs acting group Z")
        if not isinstance(acted, RationalVector):
            raise StructureError("scaling action needs acted group Q^k")
        if q <= 0:
            raise StructureError("scaling ratio must be positive")
        return cls(acting, acted, (scalar_matrix(q, acted.rank),))

    def _matrix(self, b):
        """The matrix of b, for a b that already passed acting.check."""
        out = self._matrices.get(b)
        if out is None:
            for m, c in zip(self.images, self.acting.coords(b)):
                p = mat_pow(m, c)
                out = p if out is None else mat_mul(out, p)
            self._matrices[b] = out
        return out

    def matrix_for(self, b):
        self.acting.check(b)
        return self._matrix(b)

    def _apply(self, b, x):
        X = self.acted
        return X.from_coords(mat_vec(self._matrix(b), X.coords(x)))

    def is_identity_for(self, b):
        return self.matrix_for(b) == scalar_matrix(1, self.acted.rank)

    def __str__(self):
        return f"matrix{format_element(self.images)}"


@dataclass(frozen=True)
class FiniteTableAction(Action):
    """A finite B acting through an explicit table of automorphisms."""

    acting: Group
    acted: Group
    assignments: tuple[tuple[Element, TableHom], ...]

    def __post_init__(self):
        if not self.acting.is_finite or not self.acted.is_finite:
            raise StructureError("table action needs finite groups")
        if set(self._table) != set(self.acting.elements()):
            raise StructureError("action table must cover every acting element")
        for b, h in self._table.items():
            if h.source != self.acted or h.target != self.acted:
                raise StructureError(f"automorphism for {b} is not on the acted group")
        # phi_0 = id and phi_{b+b'} = phi_b o phi_b' make every phi_b a bijection.
        v = validate_action(self)
        if v.is_no:
            raise StructureError(f"action law violated: {v.note} at {format_element(v.witness)}")

    @staticmethod
    def from_homs(acting: Group, acted: Group, table: dict) -> "FiniteTableAction":
        return FiniteTableAction(acting, acted, tuple(sorted(table.items())))

    @cached_property
    def _table(self) -> dict:
        return dict(self.assignments)

    def _apply(self, b, x):
        return self._table[b]._apply(x)

    def as_hom(self, b):
        self.acting.check(b)
        return self._table[b]

    def is_identity_for(self, b):
        self.acting.check(b)
        h = self._table[b]
        return all(v == k for k, v in h.mapping().items())

    def __str__(self):
        return f"table-action({self.acting})"


@dataclass(frozen=True)
class PrecomposedAction(Action):
    """C acts through a homomorphism C -> B and an action of B."""

    base: Action
    along: Homomorphism
    # along(c) per c, filled and read only after c passed acting.check.
    _images: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.along.target != self.base.acting:
            raise StructureError("precomposition map must land in the acting group")

    @property
    def acting(self):
        return self.along.source

    @property
    def acted(self):
        return self.base.acted

    def image(self, c: Element) -> Element:
        """along(c), computed once per c."""
        self.acting.check(c)
        return self._image(c)

    def _image(self, c: Element) -> Element:
        b = self._images.get(c)
        if b is None:
            b = self._images[c] = self.along.apply(c)
        return b

    def _apply(self, c, x):
        return self.base._apply(self._image(c), x)

    def is_identity_for(self, c):
        return self.base.is_identity_for(self.image(c))

    def matrix_for(self, c):
        return self.base.matrix_for(self.image(c))

    def __str__(self):
        return f"{self.base} o {self.along}"


@dataclass(frozen=True)
class ProductAction(Action):
    """Componentwise action of B1 x B2 on X1 x X2."""

    first: Action
    second: Action

    @cached_property
    def acting(self):
        return DirectProduct((self.first.acting, self.second.acting))

    @cached_property
    def acted(self):
        return DirectProduct((self.first.acted, self.second.acted))

    def _apply(self, b, x):
        return (self.first._apply(b[0], x[0]), self.second._apply(b[1], x[1]))

    def is_identity_for(self, b):
        self.acting.check(b)
        return self.first.is_identity_for(b[0]) and self.second.is_identity_for(b[1])

    def __str__(self):
        return f"({self.first} x {self.second})"


def validate_action(action: Action) -> Verdict:
    """Check phi(0,.)=id, additivity, and the composition law on finite groups.

    Each phi_b is checked additive against the generators of X, and the
    composition law as phi_{b+g} = phi_b o phi_g for the generators g of B:
    every element is a sum of generators, so by induction this covers all
    pairs.  Raises StructureError when either group is infinite.
    """
    B, X = action.acting, action.acted
    if not (B.is_finite and X.is_finite):
        raise StructureError(f"action laws are checked on finite groups only, not {B} on {X}")
    bs, xs = B.elements(), X.elements()
    ys, b2s = X.generators(), B.generators()
    # Elements and generators of the action's own groups need no checks.
    apply = action._apply
    for x in xs:
        if apply(B.zero(), x) != x:
            return no(x, "zero does not act as identity")
    for b in bs:
        for x in xs:
            for y in ys:
                if apply(b, X._add(x, y)) != X._add(apply(b, x), apply(b, y)):
                    return no((b, x, y), "action is not additive")
    for b1 in bs:
        for b2 in b2s:
            for x in xs:
                if apply(b1, apply(b2, x)) != apply(B._add(b1, b2), x):
                    return no((b1, b2, x), "composition law fails")
    return yes("exhaustive")
