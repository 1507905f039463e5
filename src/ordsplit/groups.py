"""Exact group carriers and their elements.

Elements are plain immutable Python values whose shape depends on the group:
residue/table indices are ints, rank-1 free/rational groups use bare ints and
Fractions, higher-rank vector groups use tuples, and composite groups use
pairs/tuples of component elements.  All arithmetic is exact and unbounded.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .verdict import Window

Element = Any


class StructureError(ValueError):
    """Invalid group/action/homomorphism data."""


class ShapeError(StructureError):
    """Element does not match the carrier's signature."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Group(ABC):
    """A group carrier with exact element arithmetic."""

    @property
    @abstractmethod
    def is_finite(self) -> bool: ...

    @abstractmethod
    def zero(self) -> Element: ...

    @abstractmethod
    def add(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def neg(self, a: Element) -> Element: ...

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

    def conjugate(self, g: Element, x: Element) -> Element:
        """g + x - g."""
        return self.sub(self.add(g, x), g)

    def commutes(self, a: Element, b: Element) -> bool:
        return self.add(a, b) == self.add(b, a)

    def scalar_mul(self, n: int, a: Element) -> Element:
        """n-fold sum of a (negative n via inversion)."""
        if n < 0:
            return self.scalar_mul(-n, self.neg(a))
        acc = self.zero()
        doubling = a
        while n:
            if n & 1:
                acc = self.add(acc, doubling)
            doubling = self.add(doubling, doubling)
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
    """Shared arithmetic for Z^k and Q^k; rank 1 uses bare scalars."""

    rank: int

    def zero(self) -> Element:
        return self._scalar_zero() if self.rank == 1 else (self._scalar_zero(),) * self.rank

    def add(self, a, b):
        self.check(a)
        self.check(b)
        if self.rank == 1:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        self.check(a)
        if self.rank == 1:
            return -a
        return tuple(-x for x in a)

    def conjugate(self, g, x):
        self.check(g)
        self.check(x)
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
        return [tuple(c) for c in itertools.product(line, repeat=self.rank)]

    def _coerce(self, el):
        if self.rank == 1:
            return self._coerce_scalar(el)
        if isinstance(el, (list, tuple)):
            return tuple(self._coerce_scalar(c) for c in el)
        return el

    def _scalar_zero(self): ...

    def _scalar_one(self): ...

    def _scalar_window(self, window: Window) -> list: ...

    def _coerce_scalar(self, c): ...


@dataclass(frozen=True)
class FreeAbelian(_VectorGroup):
    """Z^k; elements are ints (k=1) or int tuples."""

    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise StructureError("rank must be positive")

    def check(self, el) -> None:
        if self.rank == 1:
            if not _is_int(el):
                raise ShapeError(f"expected int for {self}, got {el!r}")
            return
        if not (isinstance(el, tuple) and len(el) == self.rank and all(_is_int(c) for c in el)):
            raise ShapeError(f"expected int {self.rank}-tuple for {self}, got {el!r}")

    def _scalar_zero(self):
        return 0

    def _scalar_one(self):
        return 1

    def _scalar_window(self, window: Window):
        return window.ints()

    def _coerce_scalar(self, c):
        return c

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
            if not isinstance(el, Fraction):
                raise ShapeError(f"expected Fraction for {self}, got {el!r}")
            return
        if not (
            isinstance(el, tuple)
            and len(el) == self.rank
            and all(isinstance(c, Fraction) for c in el)
        ):
            raise ShapeError(f"expected Fraction {self.rank}-tuple for {self}, got {el!r}")

    def _scalar_zero(self):
        return Fraction(0)

    def _scalar_one(self):
        return Fraction(1)

    def _scalar_window(self, window: Window):
        return window.rationals()

    def _coerce_scalar(self, c):
        if _is_int(c) or isinstance(c, str):
            return Fraction(c)
        return c

    def __str__(self):
        return "Q" if self.rank == 1 else f"Q^{self.rank}"


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Z_n; elements are residues 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise StructureError("modulus must be positive")

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return self.n

    def zero(self):
        return 0

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return (a + b) % self.n

    def neg(self, a):
        self.check(a)
        return (-a) % self.n

    def conjugate(self, g, x):
        self.check(g)
        self.check(x)
        return x

    def check(self, el) -> None:
        if not (_is_int(el) and 0 <= el < self.n):
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
        for a in range(n):
            for b in range(n):
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

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return self.table[a][b]

    def neg(self, a):
        self.check(a)
        row = self.table[a]
        return row.index(self.identity)

    def check(self, el) -> None:
        if not (_is_int(el) and 0 <= el < len(self.table)):
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

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        self.check(a)
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

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
    action: Any  # Action with .apply(b, x); validated by extensions.semidirect

    @property
    def is_finite(self) -> bool:
        return self.x_group.is_finite and self.b_group.is_finite

    def order(self) -> int | None:
        if not self.is_finite:
            return None
        return self.x_group.order() * self.b_group.order()

    def zero(self):
        return (self.x_group.zero(), self.b_group.zero())

    def add(self, a, b):
        self.check(a)
        self.check(b)
        (x1, b1), (x2, b2) = a, b
        return (self.x_group.add(x1, self.action.apply(b1, x2)), self.b_group.add(b1, b2))

    def neg(self, a):
        # Closed form (-phi_{-b}(x), -b); agreement with add is a tested invariant.
        self.check(a)
        x, b = a
        nb = self.b_group.neg(b)
        return (self.x_group.neg(self.action.apply(nb, x)), nb)

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


def generated_subgroup(G: Group, gens) -> set:
    """Orbit closure of gens (with inverses) in a finite group."""
    closed = {G.zero()}
    frontier = [G.zero()]
    step = list(gens) + [G.neg(g) for g in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for g in step:
                c = G.add(a, g)
                if c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    return closed


def element_order(G: Group, a: Element) -> int:
    """Least k >= 1 with k*a = 0 (finite groups only)."""
    z = G.zero()
    acc = a
    k = 1
    while acc != z:
        acc = G.add(acc, a)
        k += 1
    return k


def format_element(el) -> str:
    if isinstance(el, tuple):
        return "(" + ", ".join(format_element(c) for c in el) + ")"
    return str(el)
