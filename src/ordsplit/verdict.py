"""Three-valued verdicts and search budgets.

Every decision procedure in this package answers Yes, No, or Unknown.
A No always carries a concrete counterexample; Unknown records how much
of the search space was explored before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any, Iterable


class State(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    state: State
    witness: Any = None
    note: str = ""
    budget_used: tuple = ()

    @property
    def is_yes(self) -> bool:
        return self.state is State.YES

    @property
    def is_no(self) -> bool:
        return self.state is State.NO

    @property
    def is_unknown(self) -> bool:
        return self.state is State.UNKNOWN

    def __bool__(self) -> bool:
        # Deliberately undefined: forces call sites to pick is_yes/is_no.
        raise TypeError("Verdict is three-valued; use .is_yes / .is_no / .is_unknown")

    def __str__(self) -> str:
        parts = [self.state.value]
        if self.witness is not None:
            parts.append(f"witness={self.witness!r}")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


def yes(note: str = "", budget_used: tuple = ()) -> Verdict:
    return Verdict(State.YES, None, note, budget_used)


def no(witness: Any, note: str = "", budget_used: tuple = ()) -> Verdict:
    return Verdict(State.NO, witness, note, budget_used)


def unknown(note: str = "", budget_used: tuple = ()) -> Verdict:
    return Verdict(State.UNKNOWN, None, note, budget_used)


def vand(*verdicts: Verdict) -> Verdict:
    """Pessimistic conjunction: No wins (first counterexample), then Unknown."""
    pending = None
    for v in verdicts:
        if v.is_no:
            return v
        if v.is_unknown and pending is None:
            pending = v
    return pending if pending is not None else yes()


def vnot(v: Verdict, witness: Any = None) -> Verdict:
    if v.is_yes:
        return no(witness if witness is not None else v.witness)
    if v.is_no:
        return yes()
    return v


def vall(pairs: Iterable[tuple[Any, Verdict]], note: str = "") -> Verdict:
    """Conjunction over labelled checks; the label becomes the No witness."""
    pending = None
    for label, v in pairs:
        if v.is_no:
            return no(label if v.witness is None else (label, v.witness), note)
        if v.is_unknown and pending is None:
            pending = v
    return pending if pending is not None else yes(note)


@dataclass(frozen=True)
class Window:
    """Finite test universe for infinite carriers.

    Integer coordinates range over |z| <= int_bound; rational coordinates over
    |num| <= num_bound with 0 < den <= den_bound.  Finite groups always use
    their full element set.
    """

    int_bound: int = 8
    num_bound: int = 16
    den_bound: int = 8

    def __post_init__(self):
        if self.int_bound < 1 or self.num_bound < 1 or self.den_bound < 1:
            raise ValueError("window bounds must be positive")

    def ints(self) -> list[int]:
        return list(range(-self.int_bound, self.int_bound + 1))

    def rationals(self) -> list[Fraction]:
        seen = set()
        for den in range(1, self.den_bound + 1):
            for num in range(-self.num_bound, self.num_bound + 1):
                seen.add(Fraction(num, den))
        return sorted(seen)

    def scaled(self, factor: int) -> "Window":
        return Window(self.int_bound * factor, self.num_bound * factor, self.den_bound * factor)


@dataclass(frozen=True)
class SaturationBudget:
    """Bounds for the closure search of generated cones.

    max_conjugators bounds the word length (over group generators) of the
    conjugating elements; max_summands bounds the number of additive terms.
    """

    max_conjugators: int = 2
    max_summands: int = 6
    window: Window = field(default_factory=Window)

    def __post_init__(self):
        if self.max_conjugators < 1 or self.max_summands < 1:
            raise ValueError("budget bounds must be positive")

    def doubled(self) -> "SaturationBudget":
        return SaturationBudget(
            self.max_conjugators * 2, self.max_summands * 2, self.window.scaled(2)
        )


DEFAULT_BUDGET = SaturationBudget()
