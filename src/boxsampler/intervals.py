"""Integer interval domain keyed by leaf terms.

An :class:`IntervalMap` represents a conjunction of bounds over integer
variables and select-like terms (array reads and function applications).
Endpoints are inclusive; a missing endpoint means unbounded on that side,
and a missing key means the leaf is completely unconstrained.
"""

from __future__ import annotations

from .errors import EmptyIntersection
from .smtlib import print_term
from .terms import Atom, Formula, IntConst, Model, Or, Rel, Term, disj, eval_term


class Interval:
    """Closed integer interval; None endpoints are -inf / +inf.  It is never
    changed in place, so that maps can share it, and it compares and hashes
    as the pair (lo, hi).  A plain slotted class, as strengthening builds
    one for every bound it sets: a frozen dataclass took about 2.5 times as
    long to build."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | None = None, hi: int | None = None):
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is Interval:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def member(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def meet(self, other: "Interval") -> "Interval":
        """The intersection; `self` or `other` itself when it lies inside
        the other.  Raises ValueError when it is empty."""
        lo = other.lo if self.lo is None else (self.lo if other.lo is None else max(self.lo, other.lo))
        hi = other.hi if self.hi is None else (self.hi if other.hi is None else min(self.hi, other.hi))
        if lo == self.lo and hi == self.hi:
            return self
        if lo == other.lo and hi == other.hi:
            return other
        if lo is not None and hi is not None and lo > hi:
            raise ValueError("empty meet")
        return Interval(lo, hi)

    def is_pinned(self) -> bool:
        return self.lo is not None and self.lo == self.hi


TOP = Interval(None, None)


class IntervalMap:
    """Ordered map from leaf terms to intervals."""

    def __init__(self, entries: dict[Term, Interval] | None = None):
        self.entries: dict[Term, Interval] = dict(entries) if entries else {}

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalMap) and self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{print_term(k)}: [{v.lo}, {v.hi}]" for k, v in self.entries.items())
        return f"IntervalMap({{{inner}}})"

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: Term) -> bool:
        return key in self.entries

    def get(self, key: Term) -> Interval:
        return self.entries.get(key, TOP)

    def refine(self, key: Term, interval: Interval) -> None:
        """Narrow the entry for `key` by intersection."""
        current = self.entries.get(key)
        if current is None:
            self.entries[key] = interval
            return
        try:
            self.entries[key] = current.meet(interval)
        except ValueError:
            raise EmptyIntersection(print_term(key)) from None

    def copy(self) -> "IntervalMap":
        return IntervalMap(self.entries)


def contains(iv: IntervalMap, asgn: Model) -> bool:
    """True iff every keyed leaf evaluates inside its interval under `asgn`."""
    return all(interval.member(eval_term(key, asgn)) for key, interval in iv.entries.items())


def neg_to_formula(iv: IntervalMap) -> Formula:
    atoms: list[Formula] = []
    for key, interval in iv.entries.items():
        if interval.lo is not None:
            atoms.append(Atom(Rel.LT, key, IntConst(interval.lo)))
        if interval.hi is not None:
            atoms.append(Atom(Rel.GT, key, IntConst(interval.hi)))
    return disj(atoms) if atoms else Or(())


def to_json_obj(iv: IntervalMap) -> dict:
    """JSON form used by the CLI: {"term-text": [lo or "-inf", hi or "+inf"]}."""
    return {
        print_term(key): [
            interval.lo if interval.lo is not None else "-inf",
            interval.hi if interval.hi is not None else "+inf",
        ]
        for key, interval in iv.entries.items()
    }
