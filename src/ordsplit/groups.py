"""Exact group carriers and their elements.

Elements are plain immutable Python values whose shape depends on the group:
residue/table indices are ints, rank-1 free/rational groups use bare ints and
Fractions, higher-rank vector groups use tuples (coords/from_coords convert
to and from coordinate tuples), and composite groups use pairs/tuples of
component elements.  All arithmetic is exact and unbounded.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .verdict import Window, check_window_size

Element = Any


class StructureError(ValueError):
    """Invalid group/action/homomorphism data."""


class ShapeError(StructureError):
    """Element does not match the carrier's signature."""


class Group(ABC):
    """A group carrier with exact element arithmetic."""

    @property
    @abstractmethod
    def is_finite(self) -> bool: ...

    @abstractmethod
    def zero(self) -> Element: ...

    def add(self, a: Element, b: Element) -> Element:
        self.check(a)
        self.check(b)
        return self._add(a, b)

    def neg(self, a: Element) -> Element:
        self.check(a)
        return self._neg(a)

    def conjugate(self, g: Element, x: Element) -> Element:
        """g + x - g."""
        self.check(g)
        self.check(x)
        return self._conjugate(g, x)

    # The _-prefixed operations assume operands that already passed check.

    @abstractmethod
    def _add(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def _neg(self, a: Element) -> Element: ...

    def _conjugate(self, g: Element, x: Element) -> Element:
        return self._add(self._add(g, x), self._neg(g))

    @abstractmethod
    def check(self, el: Element) -> None:
        """Raise ShapeError unless el is a normalized element of this group."""

    @abstractmethod
    def generators(self) -> tuple[Element, ...]: ...

    @abstractmethod
    def window_elements(self, window: Window) -> list[Element]:
        """Canonically ordered finite slice of the carrier (all of it if finite)."""

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def commutes(self, a: Element, b: Element) -> bool:
        return self.add(a, b) == self.add(b, a)

    def scalar_mul(self, n: int, a: Element) -> Element:
        """n-fold sum of a (negative n via inversion)."""
        self.check(a)
        if n < 0:
            n, a = -n, self._neg(a)
        acc = self.zero()
        doubling = a
        while n:
            if n & 1:
                acc = self._add(acc, doubling)
            doubling = self._add(doubling, doubling)
            n >>= 1
        return acc

    def order(self) -> int | None:
        return None

    def elements(self) -> list[Element]:
        raise StructureError(f"{self} is not finite")

    def is_abelian(self) -> bool:
        """True only when commutativity is provable from the description."""
        return False

    def make(self, el) -> Element:
        """Coerce convenient input (lists, ints for rationals) and validate."""
        out = self._coerce(el)
        self.check(out)
        return out

    def _coerce(self, el):
        return el


class _VectorGroup(Group):
    """Shared arithmetic and coordinate format for Z^k and Q^k; rank 1 uses bare scalars."""

    rank: int

    def zero(self) -> Element:
        return self._scalar_zero() if self.rank == 1 else (self._scalar_zero(),) * self.rank

    def _add(self, a, b):
        if self.rank == 1:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        if self.rank == 1:
            return -a
        return tuple(-x for x in a)

    def _conjugate(self, g, x):
        return x

    def generators(self) -> tuple[Element, ...]:
        if self.rank == 1:
            return (self._scalar_one(),)
        basis = []
        for i in range(self.rank):
            basis.append(
                tuple(self._scalar_one() if j == i else self._scalar_zero() for j in range(self.rank))
            )
        return tuple(basis)

    @property
    def is_finite(self) -> bool:
        return False

    def is_abelian(self) -> bool:
        return True

    def window_elements(self, window: Window) -> list[Element]:
        line = self._scalar_window(window)
        if self.rank == 1:
            return line
        check_window_size(self, len(line) ** self.rank)
        return [tuple(c) for c in itertools.product(line, repeat=self.rank)]

    def _coerce(self, el):
        if self.rank == 1:
            return self._coerce_scalar(el)
        if isinstance(el, (list, tuple)):
            return tuple(self._coerce_scalar(c) for c in el)
        return el

    def coords(self, el) -> tuple:
        """The coordinates of el; a 1-tuple at rank 1."""
        return (el,) if self.rank == 1 else el

    def from_coords(self, vec) -> Element:
        """The element with coordinates vec: exact values, passed through when already exact."""
        if self.rank == 1:
            return self._exact_scalar(vec[0])
        return tuple(self._exact_scalar(c) for c in vec)

    def _scalar_zero(self): ...

    def _scalar_one(self): ...

    def _scalar_window(self, window: Window) -> list: ...

    def _coerce_scalar(self, c): ...

    def _exact_scalar(self, c): ...


@dataclass(frozen=True)
class FreeAbelian(_VectorGroup):
    """Z^k; elements are ints (k=1) or int tuples."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise StructureError("rank must be positive")

    def check(self, el) -> None:
        if self.rank == 1:
            if type(el) is not int:
                raise ShapeError(f"expected int for {self}, got {el!r}")
            return
        if not (isinstance(el, tuple) and len(el) == self.rank and all(type(c) is int for c in el)):
            raise ShapeError(f"expected int {self.rank}-tuple for {self}, got {el!r}")

    def _scalar_zero(self):
        return 0

    def _scalar_one(self):
        return 1

    def _scalar_window(self, window: Window):
        return window.ints()

    def _coerce_scalar(self, c):
        return c

    def _exact_scalar(self, c):
        if type(c) is int:
            return c
        n = int(c)
        if n != c:
            raise ShapeError(f"non-integral image {c} for {self}")
        return n

    def __str__(self):
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True)
class RationalVector(_VectorGroup):
    """Q^k; elements are Fractions (k=1) or Fraction tuples, always normalized."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise StructureError("rank must be positive")

    def check(self, el) -> None:
        if self.rank == 1:
            if type(el) is not Fraction:
                raise ShapeError(f"expected Fraction for {self}, got {el!r}")
            return
        if not (
            isinstance(el, tuple)
            and len(el) == self.rank
            and all(type(c) is Fraction for c in el)
        ):
            raise ShapeError(f"expected Fraction {self.rank}-tuple for {self}, got {el!r}")

    def _scalar_zero(self):
        return Fraction(0)

    def _scalar_one(self):
        return Fraction(1)

    def _scalar_window(self, window: Window):
        return window.rationals()

    def _coerce_scalar(self, c):
        if type(c) is int or isinstance(c, str):
            return Fraction(c)
        return c

    def _exact_scalar(self, c):
        return c if type(c) is Fraction else Fraction(c)

    def __str__(self):
        return "Q" if self.rank == 1 else f"Q^{self.rank}"


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Z_n; elements are residues 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise StructureError("modulus must be positive")
        # A finite carrier's scan universe is all of it.
        check_window_size(self, self.n)

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return self.n

    def zero(self):
        return 0

    def _add(self, a, b):
        return (a + b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def _conjugate(self, g, x):
        return x

    def check(self, el) -> None:
        if not (type(el) is int and 0 <= el < self.n):
            raise ShapeError(f"expected residue mod {self.n}, got {el!r}")

    def generators(self):
        return (1,) if self.n > 1 else ()

    def elements(self):
        return list(range(self.n))

    def window_elements(self, window: Window):
        return self.elements()

    def is_abelian(self) -> bool:
        return True

    def __str__(self):
        return f"Z_{self.n}"


@dataclass(frozen=True)
class CayleyGroup(Group):
    """Finite group given by a full multiplication table on indices 0..n-1."""

    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    gens: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.table)
        if n == 0 or any(len(row) != n for row in self.table):
            raise StructureError("table must be square and nonempty")
        idx = set(range(n))
        for row in self.table:
            if set(row) != idx:
                raise StructureError("table rows must be permutations (Latin square)")
        for j in range(n):
            if {row[j] for row in self.table} != idx:
                raise StructureError("table columns must be permutations (Latin square)")
        e = self.identity
        if not (0 <= e < n):
            raise StructureError("identity index out of range")
        for a in range(n):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise StructureError(f"identity is not neutral at {a}")
        # Light's test: the b with (a b) c = a (b c) for all a, c are closed
        # under the operation, and in a finite Latin square with an identity
        # that closure holds the identity and right inverses; so the b of a
        # set whose word ball is the whole table decide associativity.
        for b in minimal_generating_sequence(self):
            for a in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise StructureError(f"table is not associative at {(a, b, c)}")
        if self.gens:
            if generated_subgroup(self, self.gens) != set(range(n)):
                raise StructureError("declared generators do not generate the group")

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return len(self.table)

    def zero(self):
        return self.identity

    def _add(self, a, b):
        return self.table[a][b]

    def _neg(self, a):
        return self.table[a].index(self.identity)

    def check(self, el) -> None:
        if not (type(el) is int and 0 <= el < len(self.table)):
            raise ShapeError(f"expected index 0..{len(self.table) - 1}, got {el!r}")

    def generators(self):
        if self.gens:
            return self.gens
        return tuple(i for i in range(len(self.table)) if i != self.identity)

    def elements(self):
        return list(range(len(self.table)))

    def window_elements(self, window: Window):
        return self.elements()

    def is_abelian(self) -> bool:
        n = len(self.table)
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))

    def __str__(self):
        return f"Cayley({len(self.table)})"


@dataclass(frozen=True)
class DirectProduct(Group):
    """Componentwise product of the factor groups; elements are tuples."""

    factors: tuple[Group, ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise StructureError("need at least two factors")
        if self.is_finite:
            check_window_size(self, self.order())

    @property
    def is_finite(self) -> bool:
        return all(f.is_finite for f in self.factors)

    def order(self) -> int | None:
        if not self.is_finite:
            return None
        n = 1
        for f in self.factors:
            n *= f.order()
        return n

    def zero(self):
        return tuple(f.zero() for f in self.factors)

    def _add(self, a, b):
        return tuple(f._add(x, y) for f, x, y in zip(self.factors, a, b))

    def _neg(self, a):
        return tuple(f._neg(x) for f, x in zip(self.factors, a))

    def check(self, el) -> None:
        if not (isinstance(el, tuple) and len(el) == len(self.factors)):
            raise ShapeError(f"expected {len(self.factors)}-tuple for {self}, got {el!r}")
        for f, x in zip(self.factors, el):
            f.check(x)

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                gens.append(tuple(g if j == i else h.zero() for j, h in enumerate(self.factors)))
        return tuple(gens)

    def elements(self):
        return [tuple(c) for c in itertools.product(*(f.elements() for f in self.factors))]

    def window_elements(self, window: Window):
        parts = [f.window_elements(window) for f in self.factors]
        check_window_size(self, math.prod(len(p) for p in parts))
        return [tuple(c) for c in itertools.product(*parts)]

    def is_abelian(self) -> bool:
        return all(f.is_abelian() for f in self.factors)

    def _coerce(self, el):
        if isinstance(el, (list, tuple)) and len(el) == len(self.factors):
            return tuple(f._coerce(x) for f, x in zip(self.factors, el))
        return el

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class Semidirect(Group):
    """X acted on by B; elements are pairs (x, b) with twisted addition."""

    x_group: Group
    b_group: Group
    action: Any  # Action of b_group on x_group, trusted to obey the laws validate_action checks

    def __post_init__(self):
        # add and neg hand the action unchecked parts of checked pairs.
        if self.action.acting != self.b_group or self.action.acted != self.x_group:
            raise StructureError("action does not act on the given groups")
        if self.is_finite:
            check_window_size(self, self.order())

    @property
    def is_finite(self) -> bool:
        return self.x_group.is_finite and self.b_group.is_finite

    def order(self) -> int | None:
        if not self.is_finite:
            return None
        return self.x_group.order() * self.b_group.order()

    def zero(self):
        return (self.x_group.zero(), self.b_group.zero())

    def _add(self, a, b):
        (x1, b1), (x2, b2) = a, b
        return (self.x_group._add(x1, self.action._apply(b1, x2)), self.b_group._add(b1, b2))

    def _neg(self, a):
        # Closed form (-phi_{-b}(x), -b); agreement with add is a tested invariant.
        x, b = a
        nb = self.b_group._neg(b)
        return (self.x_group._neg(self.action._apply(nb, x)), nb)

    def check(self, el) -> None:
        if not (isinstance(el, tuple) and len(el) == 2):
            raise ShapeError(f"expected (x, b) pair for {self}, got {el!r}")
        self.x_group.check(el[0])
        self.b_group.check(el[1])

    def generators(self):
        xz, bz = self.x_group.zero(), self.b_group.zero()
        gens = [(g, bz) for g in self.x_group.generators()]
        gens += [(xz, g) for g in self.b_group.generators()]
        return tuple(gens)

    def elements(self):
        return [
            (x, b) for x in self.x_group.elements() for b in self.b_group.elements()
        ]

    def window_elements(self, window: Window):
        xs = self.x_group.window_elements(window)
        bs = self.b_group.window_elements(window)
        check_window_size(self, len(xs) * len(bs))
        return [(x, b) for x in xs for b in bs]

    def is_abelian(self) -> bool:
        return (
            self.x_group.is_abelian()
            and self.b_group.is_abelian()
            and self.action.provably_trivial()
        )

    def _coerce(self, el):
        if isinstance(el, (list, tuple)) and len(el) == 2:
            return (self.x_group._coerce(el[0]), self.b_group._coerce(el[1]))
        return el

    def __str__(self):
        return f"({self.x_group} x| {self.b_group})"


def word_ball(G: Group, gens, radius: int | None = None) -> list:
    """The sums of at most radius terms from gens and their negatives, in
    breadth-first order from 0; all of them when radius is None (G finite)."""
    steps = list(gens)
    steps += [G.neg(g) for g in steps]
    ball = [G.zero()]
    seen = set(ball)
    frontier = list(ball)
    rounds = itertools.count() if radius is None else range(radius)
    for _ in rounds:
        if not frontier:
            break
        nxt = []
        for w in frontier:
            for s in steps:
                c = G._add(w, s)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        ball += nxt
        frontier = nxt
    return ball


def generated_subgroup(G: Group, gens) -> set:
    """The subgroup of a finite group generated by gens."""
    return set(word_ball(G, gens))


def minimal_generating_sequence(G: Group) -> list[Element]:
    """Greedy small generating set of a finite group, in canonical order:
    each element that the word ball of the ones before does not reach."""
    els = G.elements()
    gens: list[Element] = []
    reached = {G.zero()}
    for a in els:
        if a in reached:
            continue
        gens.append(a)
        reached = generated_subgroup(G, gens)
        if len(reached) == len(els):
            break
    return gens


def element_order(G: Group, a: Element) -> int:
    """Least k >= 1 with k*a = 0 (finite groups only)."""
    return len(word_ball(G, [a]))


def format_element(el) -> str:
    if isinstance(el, tuple):
        return "(" + ", ".join(format_element(c) for c in el) + ")"
    return str(el)
