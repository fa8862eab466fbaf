"""Concrete fundamental-region constructions.

The regions of the metric systems, each with the exact data the
verification ops need:

* ``line-standard``: the unit interval (0, 1) under integer translation.
* ``line-pathological``: an infinite union of shrinking open intervals,
  one near each natural number, whose fractional parts tile [0, 1).
* ``plane-pathological``: a hyperbola-hugging connected strip in the
  punctured-lattice plane, held as its unit fiber (0, 1) over each x.
* ``cylinder``: the band X x (0, c) shifted by a homeomorphism that adds
  c to the real coordinate.

Everything here is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import le, lt
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]

def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def format_fraction(value: Fraction) -> str:
    """Exact "p/q" text used in serialized interval data."""
    value = _frac(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ------------------------------------------------------------- intervals


class IntervalSet:
    """Finite ordered union of disjoint open rational intervals.

    Open intervals may share endpoints (their closures then touch);
    overlapping interiors are rejected.

    The endpoints are held as plain integers over one shared positive
    denominator ``den``: the set is the intervals
    ``(ends[2i] / den, ends[2i + 1] / den)``, and ``ends`` is a flat,
    nondecreasing tuple.  A set built from rationals takes ``den`` as the
    lcm of their reduced denominators; a translate by ``p/q`` rescales to
    ``lcm(den, q)`` (so ``den`` need not stay minimal).  Every scan then
    compares and adds ints, and two sets over different denominators meet
    over the lcm of both.  ``Fraction``s are built only where a value
    leaves the set: witnesses, ``pairs`` and ``endpoints``.
    Equality is that of ``pairs``.
    """

    __slots__ = ("den", "ends")

    def __init__(self, pairs: Iterable[tuple[Rational, Rational]]) -> None:
        fracs = [(_frac(lo), _frac(hi)) for lo, hi in pairs]
        den = lcm(*(v.denominator for pair in fracs for v in pair))
        scaled = sorted(
            (v.numerator * (den // v.denominator), w.numerator * (den // w.denominator))
            for v, w in fracs
        )
        self.den = den
        self.ends = _checked(den, tuple(chain.from_iterable(scaled)))

    @classmethod
    def _over(cls, den: int, ends: tuple[int, ...]) -> "IntervalSet":
        """Set from ordered integer endpoints over ``den``, validated."""
        out = cls.__new__(cls)
        out.den = den
        out.ends = _checked(den, ends)
        return out

    @property
    def pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        den, ends = self.den, self.ends
        return tuple(
            (Fraction(lo, den), Fraction(hi, den))
            for lo, hi in zip(ends[::2], ends[1::2])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return False
        if self.den == other.den:
            return self.ends == other.ends
        return len(self.ends) == len(other.ends) and all(
            a * other.den == b * self.den for a, b in zip(self.ends, other.ends)
        )

    def __len__(self) -> int:
        return len(self.ends) // 2

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({format_fraction(lo)}, {format_fraction(hi)})" for lo, hi in self.pairs
        )
        return f"IntervalSet[{inner}]"

    def _with(self, value: Rational) -> tuple[int, tuple[int, ...], int]:
        """The endpoints and ``value`` as integers over one denominator."""
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        den = lcm(self.den, value.denominator)
        step = value.numerator * (den // value.denominator)
        return den, _rescaled(self.ends, den // self.den), step

    def translate(self, shift: Rational) -> "IntervalSet":
        """The set moved by ``shift``: adding one constant to every endpoint
        keeps a checked set checked, so ``_over``'s check is skipped."""
        den, ends, step = self._with(shift)
        out = IntervalSet.__new__(IntervalSet)
        out.den, out.ends = den, tuple(map(step.__add__, ends))
        return out

    def inflate(self, margin: Rational) -> "IntervalSet":
        """Every interval widened by ``margin`` on both sides."""
        den, ends, step = self._with(margin)
        widened = ((lo - step, hi + step) for lo, hi in zip(ends[::2], ends[1::2]))
        return IntervalSet._over(den, tuple(chain.from_iterable(widened)))

    def endpoints(self) -> tuple[Fraction, ...]:
        """Boundary of the set: every interval endpoint, deduplicated."""
        den = self.den
        return tuple(Fraction(e, den) for e in sorted(set(self.ends)))

    def span(self) -> Fraction:
        """Distance from the first endpoint to the last."""
        return Fraction(self.ends[-1] - self.ends[0], self.den)

    def first_overlap(
        self, other: "IntervalSet"
    ) -> Optional[tuple[Fraction, Fraction]]:
        """Leftmost open overlap between the two interiors, if any."""
        den, a, b = _common(self, other)
        if not a or not b:
            return None
        # Intervals ending at or before the other set starts meet nothing.
        i, j = bisect_right(a, b[0]) & ~1, bisect_right(b, a[0]) & ~1
        na, nb = len(a), len(b)
        while i < na and j < nb:
            alo, ahi, blo, bhi = a[i], a[i + 1], b[j], b[j + 1]
            lo = alo if alo > blo else blo
            hi = ahi if ahi < bhi else bhi
            if lo < hi:
                return (Fraction(lo, den), Fraction(hi, den))
            if ahi <= bhi:
                i += 2
            else:
                j += 2
        return None

    def closed_intersection(
        self, other: "IntervalSet"
    ) -> list[tuple[Fraction, Fraction]]:
        """Pieces of closure(self) & closure(other); lo == hi marks a point."""
        den, a, b = _common(self, other)
        pieces: list[tuple[Fraction, Fraction]] = []
        if not a or not b:
            return pieces
        # Intervals ending before the other set starts meet nothing.
        i, j = bisect_left(a, b[0]) & ~1, bisect_left(b, a[0]) & ~1
        na, nb = len(a), len(b)
        while i < na and j < nb:
            alo, ahi, blo, bhi = a[i], a[i + 1], b[j], b[j + 1]
            lo = alo if alo > blo else blo
            hi = ahi if ahi < bhi else bhi
            if lo <= hi:
                pieces.append((Fraction(lo, den), Fraction(hi, den)))
            if ahi <= bhi:
                i += 2
            else:
                j += 2
        return pieces

    def closure_meets_open_window(self, lo: Rational, hi: Rational) -> bool:
        """Whether some closed interval [a, b] has a < hi and b > lo."""
        lo, hi = _frac(lo), _frac(hi)
        den, ends = self.den, self.ends
        # For an integer e: e / den > lo iff e > floor(lo * den), and
        # e / den < hi iff e < ceil(hi * den).
        floor_lo = lo.numerator * den // lo.denominator
        ceil_hi = -(-hi.numerator * den // hi.denominator)
        # ends is nondecreasing, so every interval from the one holding
        # index k on has b > lo, and the first of them has the least a.
        k = bisect_right(ends, floor_lo)
        return k < len(ends) and ends[k & ~1] < ceil_hi

    def coverage_gap(self, lo: Rational, hi: Rational) -> Optional[Fraction]:
        """A witness point of [lo, hi] missed by the closed union, if any.

        The witness is the midpoint between the end of the covered run
        that starts at ``lo`` and the next interval start (or ``hi``).
        """
        lo, hi = _frac(lo), _frac(hi)
        den = lcm(self.den, lo.denominator, hi.denominator)
        ends = _rescaled(self.ends, den // self.den)
        cursor = lo.numerator * (den // lo.denominator)
        top = hi.numerator * (den // hi.denominator)
        # Skip the intervals that end before lo; touching closures chain.
        k = bisect_left(ends, cursor) & ~1
        while k < len(ends) and ends[k] <= cursor:
            cursor = ends[k + 1]
            if cursor >= top:
                return None
            k += 2
        if cursor >= top:
            return None
        next_start = ends[k] if k < len(ends) else top
        return Fraction(cursor + min(next_start, top), 2 * den)

    def shift_meetings(
        self, step: Rational, reach: int
    ) -> dict[int, "IntervalSet"]:
        """Where closure(self) meets closure(self + m * step), 0 < |m| <= reach.

        The keys are the shifts whose closures meet, ascending; each value
        is the open overlap self & (self + m * step), empty when the
        closures only touch.

        One sweep instead of a merge per shift: each interval (a, b) is
        reduced modulo ``step`` to a copy (r, r + b - a) with
        a = q * step + r, 0 <= r < step.  Interval I meets interval J
        shifted by m steps exactly when I's copy meets J's copy lifted by
        k = m + q_J - q_I steps.  The copies lie in [0, step + longest), so
        only the few lifts that reach that range are made, and one sorted
        sweep of the copies against the lifts finds every meeting pair
        (Shamos and Hoey, FOCS 1976): O(n log n + meetings within reach).
        """
        den, ends, unit = self._with(step)
        if unit <= 0:
            raise ValueError("step must be positive")
        if not ends:
            return {}
        copies = []
        for a, b in zip(ends[::2], ends[1::2]):
            q, r = divmod(a, unit)
            copies.append((r, r + b - a, q))
        top = unit + max(hi - lo for lo, hi, _ in copies)
        # a copy carries its quotient; a lift by k carries q - k, so that a
        # meeting pair's shift is always (copy's tag) - (lift's tag)
        events = [(lo, 0, hi, q) for lo, hi, q in copies]
        for lo, hi, q in copies:
            for k in range(-(hi // unit), (top - lo) // unit + 1):
                events.append((lo + k * unit, 1, hi + k * unit, q - k))
        events.sort()
        # the intervals met so far on each side, as (tag, end), by tag
        live: list[list[tuple[int, int]]] = [[], []]
        found: dict[int, list[tuple[int, int]]] = {}
        for lo, side, hi, tag in events:
            # only tags within reach of this one give a shift in range;
            # events come by start, so one ending before lo meets nothing
            # from here on and is dropped
            others = live[1 - side]
            i = bisect_left(others, (tag - reach,))
            j = bisect_left(others, (tag + reach + 1,))
            near = others[i:j] = [e for e in others[i:j] if e[1] >= lo]
            for other_tag, other_hi in near:
                q, lifted = (tag, other_tag) if side == 0 else (other_tag, tag)
                if q == lifted:
                    continue
                pieces = found.setdefault(q - lifted, [])
                end = hi if hi < other_hi else other_hi
                if lo < end:
                    pieces.append((lo + q * unit, end + q * unit))
            insort(live[side], (tag, hi))
        return {
            m: IntervalSet._over(den, tuple(chain.from_iterable(sorted(found[m]))))
            for m in sorted(found)
        }

    def window_translates(
        self, step: Rational, lo: Rational, hi: Rational, reach: int
    ) -> dict[int, "IntervalSet"]:
        """The intervals of each translate self + m * step, |m| <= reach,
        whose closures meet the open window (lo, hi); keys ascend, and a
        shift that meets nothing has no key.

        [a, b] + m * step meets (lo, hi) exactly when m * step lies in
        (lo - b, hi - a), so each interval yields its shifts by two floor
        divisions: O(n + hits) for any reach, with no translate per shift.
        """
        step, lo, hi = _frac(step), _frac(lo), _frac(hi)
        den = lcm(self.den, step.denominator, lo.denominator, hi.denominator)
        ends = _rescaled(self.ends, den // self.den)
        unit, low, high = (v.numerator * (den // v.denominator) for v in (step, lo, hi))
        if unit <= 0:
            raise ValueError("step must be positive")
        found: dict[int, list[int]] = {}
        for a, b in zip(ends[::2], ends[1::2]):
            # floor((low - b) / unit) + 1 .. ceil((high - a) / unit) - 1
            first, last = (low - b) // unit + 1, -((a - high) // unit) - 1
            for m in range(max(first, -reach), min(last, reach) + 1):
                found.setdefault(m, []).extend((a + m * unit, b + m * unit))
        return {m: IntervalSet._over(den, tuple(found[m])) for m in sorted(found)}

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """Union of this set and ``others``, which must not overlap it or
        each other; one sort over their common denominator."""
        sets = (self,) + others
        den = lcm(*(s.den for s in sets))
        pairs: list[tuple[int, int]] = []
        for s in sets:
            ends = _rescaled(s.ends, den // s.den)
            pairs.extend(zip(ends[::2], ends[1::2]))
        pairs.sort()
        return IntervalSet._over(den, tuple(chain.from_iterable(pairs)))


def _rescaled(ends: tuple[int, ...], factor: int) -> tuple[int, ...]:
    return ends if factor == 1 else tuple(map(factor.__mul__, ends))


def _common(
    a: IntervalSet, b: IntervalSet
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Both endpoint tuples over the lcm of the two denominators."""
    if a.den == b.den:
        return a.den, a.ends, b.ends
    den = lcm(a.den, b.den)
    return den, _rescaled(a.ends, den // a.den), _rescaled(b.ends, den // b.den)


def _checked(den: int, ends: tuple[int, ...]) -> tuple[int, ...]:
    """``ends`` if its pairs, in order, are nonempty and do not overlap."""
    los, his = ends[::2], ends[1::2]
    if not all(map(lt, los, his)):
        lo, hi = next((lo, hi) for lo, hi in zip(los, his) if not lo < hi)
        raise ValueError(
            f"empty or inverted interval ({Fraction(lo, den)}, {Fraction(hi, den)})"
        )
    if not all(map(le, his, los[1:])):
        raise ValueError("intervals overlap")
    return ends


def standard_interval(step: Rational = 1) -> IntervalSet:
    """The interval (0, step), one period of the shift by ``step``."""
    return IntervalSet([(0, step)])


def pathological_1d(count: int) -> IntervalSet:
    """Tiles 0 .. count - 1 of the accumulating family.  Tile i is
    (i + i/(i+1), i + (i+1)/(i+2)) = (i(i+2)/(i+1), (i^2+3i+1)/(i+2)), both
    in lowest terms, so the set lies over den = lcm(1, ..., count + 1)."""
    if count < 1:
        raise ValueError("need at least one interval")
    den = lcm(*range(1, count + 2))
    per = [den // k for k in range(1, count + 2)]
    ends = []
    for i in range(count):
        ends += (i * (i + 2) * per[i], (i * (i + 3) + 1) * per[i + 1])
    return IntervalSet._over(den, tuple(ends))


# --------------------------------------------------------------- plane 2d


def plane2d_point_above(height: Rational) -> tuple[Fraction, Fraction]:
    """A region point with second coordinate above the given height."""
    height = _frac(height)
    x = 1 / (height + 2)
    return (x, 1 / x + Fraction(1, 2))


def plane2d_box_shifts(
    m: int,
    reach: int,
    half_width: Rational,
    center: tuple[Rational, Rational] = (0, 0),
) -> range:
    """The n in [-reach, reach], ascending, for which closure(region) +
    (m, n) meets the open box (cx - w, cx + w) x (cy - w, cy + w).

    Over the box's x slice (x_lo, x_hi] of the strip, the closed bands
    [1/x, 1/x + 1] sweep [1/x_hi, 1/x_lo + 1), unbounded above when
    x_lo = 0.  Moved by n, that meets (cy - w, cy + w) exactly for the n
    strictly between cy - w - (1/x_lo + 1) and cy + w - 1/x_hi, so no n
    is tested one by one.
    """
    # over d, the common denominator, x_lo = lo / d and x_hi = hi / d, so
    # floor(cy - w - 1/x_lo - 1) and ceil(cy + w - 1/x_hi) divide by d lo, d hi
    d = lcm(*(v.denominator for v in (half_width, *center)))
    w, cx, cy = (v.numerator * (d // v.denominator) for v in (half_width, *center))
    lo, hi = max(cx - w - m * d, 0), min(cx + w - m * d, d)
    if lo >= hi:
        return range(0)
    first = -reach
    if lo:
        first = max(first, ((cy - w - d) * lo - d * d) // (d * lo) + 1)
    last = min(reach, -((d * d - (cy + w) * hi) // (d * hi)) - 1)
    return range(first, last + 1)


def plane2d_translate_meets_box(
    m: int,
    n: int,
    half_width: Rational,
    center: tuple[Rational, Rational] = (0, 0),
) -> bool:
    """Whether closure(region) + (m, n) meets the open box of
    ``plane2d_box_shifts``."""
    return n in plane2d_box_shifts(m, abs(n), half_width, center)

