"""Fraction-pair interval sets: the reference for ``fundreg.regions.IntervalSet``.

``IntervalSet`` below is the straightforward implementation the integer
kernel replaced: it keeps every endpoint as a ``Fraction`` and re-sorts and
re-validates on every construction.  It also carries the methods the
checker calls that it never had, written the obvious way, so the checks
can run on it unchanged: ``_over`` (a set from integer endpoints over one
denominator, which ``pathological_1d`` builds), ``inflate``, a many-way
``union``, and the shift scans ``shift_meetings`` and ``window_translates``
as one translate and one merge or window query per shift, the loops the
kernel's sweeps replaced.

The point queries, the merged closure and ``serialize``, which only tests
ask for, are functions of ``s.pairs`` and take a set of either class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from fundreg.regions import Rational, format_fraction


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def contains(s, point: Rational) -> bool:
    point = _frac(point)
    return any(lo < point < hi for lo, hi in s.pairs)


def closure_contains(s, point: Rational) -> bool:
    point = _frac(point)
    return any(lo <= point <= hi for lo, hi in s.pairs)


def serialize(s) -> list[list[str]]:
    """Exact "p/q" text of each interval's endpoints."""
    return [[format_fraction(lo), format_fraction(hi)] for lo, hi in s.pairs]


def merged_closure(s) -> list[tuple[Fraction, Fraction]]:
    """Union of the closed intervals, with touching pieces fused."""
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in s.pairs:
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def closure_covers(s, lo: Rational, hi: Rational) -> bool:
    """Whether the closed union of ``s`` contains the whole window [lo, hi]."""
    lo, hi = _frac(lo), _frac(hi)
    return any(a <= lo and hi <= b for a, b in merged_closure(s))


class IntervalSet:
    """Finite ordered union of disjoint open rational intervals."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[Rational, Rational]]) -> None:
        norm = sorted((_frac(lo), _frac(hi)) for lo, hi in pairs)
        for lo, hi in norm:
            if not lo < hi:
                raise ValueError(f"empty or inverted interval ({lo}, {hi})")
        for (_, hi), (lo, _) in zip(norm, norm[1:]):
            if lo < hi:
                raise ValueError("intervals overlap")
        self.pairs: tuple[tuple[Fraction, Fraction], ...] = tuple(norm)

    @classmethod
    def _over(cls, den: int, ends: tuple[int, ...]) -> "IntervalSet":
        """The set of intervals (ends[2i] / den, ends[2i + 1] / den), the
        integer kernel's constructor, re-sorted and re-validated."""
        pairs = zip(ends[::2], ends[1::2])
        return cls((Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.pairs == other.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({format_fraction(lo)}, {format_fraction(hi)})" for lo, hi in self.pairs
        )
        return f"IntervalSet[{inner}]"

    def translate(self, shift: Rational) -> "IntervalSet":
        shift = _frac(shift)
        return IntervalSet((lo + shift, hi + shift) for lo, hi in self.pairs)

    def inflate(self, margin: Rational) -> "IntervalSet":
        margin = _frac(margin)
        return IntervalSet((lo - margin, hi + margin) for lo, hi in self.pairs)

    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({value for pair in self.pairs for value in pair}))

    def span(self) -> Fraction:
        return self.pairs[-1][1] - self.pairs[0][0]

    def first_overlap(
        self, other: "IntervalSet"
    ) -> Optional[tuple[Fraction, Fraction]]:
        i = j = 0
        while i < len(self.pairs) and j < len(other.pairs):
            alo, ahi = self.pairs[i]
            blo, bhi = other.pairs[j]
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                return (lo, hi)
            if ahi <= bhi:
                i += 1
            else:
                j += 1
        return None

    def closed_intersection(
        self, other: "IntervalSet"
    ) -> list[tuple[Fraction, Fraction]]:
        pieces: list[tuple[Fraction, Fraction]] = []
        i = j = 0
        while i < len(self.pairs) and j < len(other.pairs):
            alo, ahi = self.pairs[i]
            blo, bhi = other.pairs[j]
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                pieces.append((lo, hi))
            if ahi <= bhi:
                i += 1
            else:
                j += 1
        return pieces

    def closure_meets_open_window(self, lo: Rational, hi: Rational) -> bool:
        lo, hi = _frac(lo), _frac(hi)
        return any(a < hi and b > lo for a, b in self.pairs)

    def coverage_gap(self, lo: Rational, hi: Rational) -> Optional[Fraction]:
        lo, hi = _frac(lo), _frac(hi)
        cursor = lo
        for a, b in merged_closure(self):
            if b < cursor:
                continue
            if a > cursor:
                break
            cursor = b
            if cursor >= hi:
                return None
        if cursor >= hi:
            return None
        remaining_starts = [a for a, _ in merged_closure(self) if a > cursor]
        next_start = min(remaining_starts + [hi])
        return cursor + (min(next_start, hi) - cursor) / 2 if cursor < hi else None

    def shift_meetings(self, step: Rational, reach: int) -> dict[int, "IntervalSet"]:
        step = _frac(step)
        out = {}
        for m in range(-reach, reach + 1):
            if m == 0:
                continue
            pieces = self.closed_intersection(self.translate(m * step))
            if pieces:
                out[m] = IntervalSet((lo, hi) for lo, hi in pieces if lo < hi)
        return out

    def window_translates(
        self, step: Rational, lo: Rational, hi: Rational, reach: int
    ) -> dict[int, "IntervalSet"]:
        step, lo, hi = _frac(step), _frac(lo), _frac(hi)
        out = {}
        for m in range(-reach, reach + 1):
            moved = self.translate(m * step)
            if moved.closure_meets_open_window(lo, hi):
                out[m] = IntervalSet((a, b) for a, b in moved.pairs if a < hi and b > lo)
        return out

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        pairs = list(self.pairs)
        for other in others:
            pairs.extend(other.pairs)
        return IntervalSet(pairs)
