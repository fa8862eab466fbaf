"""Freely reduced words in the rank-2 free group on generators r and u.

Letters are small ints: r = 1, u = 2, negatives are inverses.  Words are
kept eagerly reduced (a stack pass on construction), so equality and
hashing work on the raw letter tuple.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg
from typing import Iterable

R = 1
U = 2

LETTERS = (R, U, -R, -U)  # canonical generator order: r < u < r^-1 < u^-1

_SWAP = {R: U, U: R, -R: -U, -U: -R}
_CHAR = {R: "r", U: "u", -R: "R", -U: "U"}
_FROM_CHAR = {c: letter for letter, c in _CHAR.items()}
_ORDER = {letter: rank for rank, letter in enumerate(LETTERS)}


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence with a single stack pass."""
    stack: list[int] = []
    for a in letters:
        if a not in _ORDER:
            raise ValueError(f"invalid letter {a!r}")
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def concat_reduced(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Concatenate two already-reduced letter tuples.

    Only the junction can cancel, letter t of it when a[-1 - t] == -b[t].
    The first 32 letters are compared one at a time.  Past them, a read
    backwards and b negated are compared as whole slices, bisecting the
    count on the letters still in doubt, so long words cancel at C speed.
    """
    i = len(a)
    if not i or not b or a[-1] != -b[0]:
        return a + b
    n = len(b)
    if i < n:
        n = i
    short = n if n < 32 else 32
    j = 1
    while j < short and a[i - 1 - j] == -b[j]:
        j += 1
    if j == 32:
        back, head = a[-1 : -n - 1 : -1], tuple(map(neg, b[:n]))
        hi = n
        while j < hi:
            mid = (j + hi + 1) // 2
            if back[j:mid] == head[j:mid]:
                j = mid
            else:
                hi = mid - 1
    return a[: i - j] + b[j:]


def swap_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Exchange the two generator families letterwise (an automorphism)."""
    return tuple(map(_SWAP.__getitem__, letters))


def invert_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(letters)))


class ReducedWord:
    """Immutable freely reduced word; the empty word is the identity."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[int] = ()):
        self.letters = reduce_letters(letters)
        self._hash = hash(self.letters)

    @classmethod
    def _trusted(cls, letters: tuple[int, ...]) -> "ReducedWord":
        """Wrap a tuple that is already reduced (internal fast path)."""
        w = cls.__new__(cls)
        w.letters = letters
        w._hash = hash(letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReducedWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord._trusted(concat_reduced(self.letters, other.letters))

    def inverse(self) -> "ReducedWord":
        return ReducedWord._trusted(invert_letters(self.letters))

    def swapped(self) -> "ReducedWord":
        """Image under the generator-swap automorphism (r <-> u)."""
        return ReducedWord._trusted(swap_letters(self.letters))

    def exponent_sum(self) -> int:
        """Total exponent sum: both generators count +1, inverses -1."""
        letters = self.letters
        return len(letters) - 2 * (letters.count(-R) + letters.count(-U))

    def exponent_vector(self) -> tuple[int, int]:
        """Per-generator exponent sums (r-total, u-total)."""
        re = ue = 0
        for a in self.letters:
            if a == R:
                re += 1
            elif a == -R:
                re -= 1
            elif a == U:
                ue += 1
            else:
                ue -= 1
        return re, ue

    def is_identity(self) -> bool:
        return not self.letters

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(map(_ORDER.__getitem__, self.letters)))

    def text(self) -> str:
        if not self.letters:
            return "e"
        return "".join(map(_CHAR.__getitem__, self.letters))

    def __repr__(self) -> str:
        return f"ReducedWord({self.text()!r})"


IDENTITY_WORD = ReducedWord()


def word(text: str) -> ReducedWord:
    """Parse the text form: one char per letter from {r,u,R,U}; "e" is empty."""
    if text == "e":
        return IDENTITY_WORD
    try:
        letters = [_FROM_CHAR[c] for c in text]
    except KeyError as exc:
        raise ValueError(f"invalid word text {text!r}") from exc
    return ReducedWord(letters)


def r_power(i: int) -> ReducedWord:
    """The word r**i (negative i gives inverse powers)."""
    letter = R if i >= 0 else -R
    return ReducedWord._trusted((letter,) * abs(i))


def u_power(i: int) -> ReducedWord:
    letter = U if i >= 0 else -U
    return ReducedWord._trusted((letter,) * abs(i))


def spine_exponent(w: ReducedWord) -> int | None:
    """If w is a power of r, its exponent; otherwise None."""
    if not w.letters:
        return 0
    first = w.letters[0]
    if abs(first) != R or any(a != first for a in w.letters):
        return None
    return len(w.letters) if first > 0 else -len(w.letters)


def leading_r_run(w: ReducedWord) -> int:
    """Signed length of the maximal leading run of r or r^-1 letters."""
    if not w.letters or abs(w.letters[0]) != R:
        return 0
    first = w.letters[0]
    n = 0
    for a in w.letters:
        if a != first:
            break
        n += 1
    return n if first > 0 else -n


def run_count(w: ReducedWord) -> int:
    """Number of maximal single-letter runs (r^2u^3r has three)."""
    count = 0
    prev = 0
    for a in w.letters:
        if a != prev:
            count += 1
            prev = a
    return count


@lru_cache(maxsize=None)
def enumerate_ball(radius: int) -> tuple[ReducedWord, ...]:
    """All reduced words of length <= radius, in canonical order.

    There are 4 * 3**(k-1) words of each length k >= 1, so the ball has
    1 + 2 * (3**radius - 1) elements.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    out: list[ReducedWord] = [IDENTITY_WORD]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt: list[tuple[int, ...]] = []
        for letters in layer:
            last = letters[-1] if letters else 0
            for a in LETTERS:
                if a == -last:
                    continue
                nxt.append(letters + (a,))
        out.extend(ReducedWord._trusted(t) for t in nxt)
        layer = nxt
    return tuple(out)


def ball_size(radius: int) -> int:
    """Closed form for len(enumerate_ball(radius))."""
    return 1 + 2 * (3**radius - 1)
