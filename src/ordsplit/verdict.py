"""Three-valued verdicts and search budgets.

Every decision procedure in this package answers Yes, No, or Unknown.
A No always carries a concrete counterexample; Unknown records how much
of the search space was explored before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Any, Callable, Iterable


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


# The bare Yes, built once: a frozen Verdict is safe to share.
_YES = Verdict(State.YES)


def yes(note: str = "", budget_used: tuple = ()) -> Verdict:
    if not note and not budget_used:
        return _YES
    return Verdict(State.YES, None, note, budget_used)


def no(witness: Any, note: str = "") -> Verdict:
    return Verdict(State.NO, witness, note)


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
    return pending if pending is not None else _YES


def vnot(v: Verdict, witness: Any = None) -> Verdict:
    if v.is_yes:
        return no(witness if witness is not None else v.witness)
    if v.is_no:
        return _YES
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


def on_generators(
    gens: Iterable[Any], test: Callable[[Any], Verdict], no_note: str, yes_note: str
) -> Verdict:
    """test on every generator: the first failing generator is the No
    witness; else the first Unknown is returned as it is."""
    pending = None
    for g in gens:
        v = test(g)
        if v.is_no:
            return no(g, no_note)
        if v.is_unknown and pending is None:
            pending = v
    return pending if pending is not None else yes(yes_note)


def clean_scan(G: Any, window: Window) -> Verdict:
    """The Yes of a scan of G that found no failure: exhaustive when G is
    finite (its window is all of it), else window-verified."""
    if G.is_finite:
        return yes("exhaustive")
    return yes("window-verified", budget_used=(("window", window.int_bound),))


def for_all_members(
    els: Iterable[Any],
    member: Callable[[Any], Verdict] | None,
    test: Callable[[Any], Verdict],
    no_note: str,
    unknown_note: str,
    clean: Verdict,
) -> Verdict:
    """test on every element that member accepts (None accepts all).

    The first failure is the No witness, even after undecided elements; an
    undecided membership or test otherwise gives Unknown, and a clean scan
    gives clean.
    """
    saw_unknown = False
    for x in els:
        if member is not None:
            m = member(x)
            if not m.is_yes:
                saw_unknown |= m.is_unknown
                continue
        v = test(x)
        if v.is_no:
            return no(x, no_note)
        saw_unknown |= v.is_unknown
    return unknown(unknown_note) if saw_unknown else clean


# The most elements one scan universe may hold.  It is about ten times the
# largest window the built-in workloads build (Q x| Z at doubled budgets,
# 21,219 elements); a wider window raises instead of exhausting memory.
MAX_WINDOW_ELEMENTS = 200_000


def check_window_size(what: object, size: int) -> None:
    """Raise StructureError when a window of `what` would hold more than
    MAX_WINDOW_ELEMENTS elements."""
    if size > MAX_WINDOW_ELEMENTS:
        from .groups import StructureError  # groups imports this module

        raise StructureError(
            f"window of {what} needs {size} elements, over the cap of {MAX_WINDOW_ELEMENTS}"
        )


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

    @property
    def z_size(self) -> int:
        return 2 * self.int_bound + 1

    @property
    def q_size(self) -> int:
        # num x den candidates are built before duplicates collapse.
        return (2 * self.num_bound + 1) * self.den_bound

    def ints(self) -> list[int]:
        check_window_size("Z", self.z_size)
        return list(range(-self.int_bound, self.int_bound + 1))

    def rationals(self) -> list[Fraction]:
        check_window_size("Q", self.q_size)
        return list(self._rationals)

    @cached_property
    def _rationals(self) -> tuple[Fraction, ...]:
        dens = range(1, self.den_bound + 1)
        nums = range(-self.num_bound, self.num_bound + 1)
        # Reduced (num, den) pairs, then one Fraction per distinct value.
        pairs = {(num // (g := gcd(num, den)), den // g) for den in dens for num in nums}
        # Rounding num / den is monotone, so the float sort can only misplace
        # values whose quotients round alike; one insertion pass ordering
        # neighbours by cross-multiplication (den > 0) puts those right, and
        # costs one comparison per pair when none is.
        ordered = sorted(pairs, key=lambda p: p[0] / p[1])
        for i in range(1, len(ordered)):
            j = i
            while j and ordered[j][0] * ordered[j - 1][1] < ordered[j - 1][0] * ordered[j][1]:
                ordered[j - 1], ordered[j] = ordered[j], ordered[j - 1]
                j -= 1
        return tuple(Fraction(num, den) for num, den in ordered)

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
