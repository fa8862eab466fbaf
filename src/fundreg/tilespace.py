"""The glued room space: one unit square per word, walls identified.

A room is a reduced word w; its box is the closed unit square with the four
corner points removed.  The right wall of w is glued to the left wall of
w*r, the top wall to the bottom wall of w*u.  Canonical coordinates push
every point across those two gluings, so a canonical point has x < 1 and
y < 1 and (x, y) != (0, 0).

What remains of a room in canonical coordinates splits into five atoms:

    UPPER   open triangle x < y
    LOWER   open triangle x > y
    DIAG    open diagonal x = y
    LEFT    open wall x = 0
    BOTTOM  open wall y = 0

Every cell this library needs is a union of atoms, and a subset of the
space is a RoomSet: a finite map room -> atom set.  Cells whose textbook
description touches x = 1 or y = 1 spill into the neighbouring room when
materialized, which is exactly the gluing.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

from .action import ActionElement
from .freegroup import ReducedWord, word
from .record import FrozenRecord, set_field


class TruncationError(Exception):
    """An operation needed rooms or elements beyond the working horizon."""


# ------------------------------------------------------------------ atoms

UPPER = 1
LOWER = 2
DIAG = 3
LEFT = 4
BOTTOM = 5

ALL_ATOMS = frozenset((UPPER, LOWER, DIAG, LEFT, BOTTOM))
NO_ATOMS: frozenset[int] = frozenset()

_ATOM_SWAP = {UPPER: LOWER, LOWER: UPPER, DIAG: DIAG, LEFT: BOTTOM, BOTTOM: LEFT}
ATOM_NAMES = {UPPER: "upper", LOWER: "lower", DIAG: "diag", LEFT: "left", BOTTOM: "bottom"}

_WORD_R = word("r")
_WORD_U = word("u")


def swap_atoms(atoms: frozenset[int]) -> frozenset[int]:
    return frozenset(_ATOM_SWAP[a] for a in atoms)


# ------------------------------------------------------------------ cells


class Cell(Enum):
    EMPTY = "Empty"
    OPEN_BOX = "OpenBox"
    CLOSED_BOX = "ClosedBox"
    OPEN_UPPER_TRIANGLE = "OpenUpperTriangle"
    CLOSED_UPPER_TRIANGLE = "ClosedUpperTriangle"
    OPEN_LOWER_TRIANGLE = "OpenLowerTriangle"
    CLOSED_LOWER_TRIANGLE = "ClosedLowerTriangle"
    DIAGONAL = "Diagonal"
    UPPER_BOUNDARY = "UpperBoundary"
    LOWER_BOUNDARY = "LowerBoundary"
    HALF_BOX_RIGHT = "HalfBoxRight"  # open box plus its right wall
    HALF_BOX_UP = "HalfBoxUp"        # open box plus its top wall
    HALF_BOX_LEFT = "HalfBoxLeft"    # open box plus its left wall
    HALF_BOX_DOWN = "HalfBoxDown"    # open box plus its bottom wall


# own-room atoms and (neighbour letter word, atoms) spill pieces per cell
_CELL_PIECES: dict[Cell, tuple[frozenset[int], tuple[tuple[ReducedWord, frozenset[int]], ...]]] = {
    Cell.EMPTY: (NO_ATOMS, ()),
    Cell.OPEN_BOX: (frozenset({UPPER, LOWER, DIAG}), ()),
    Cell.CLOSED_BOX: (
        ALL_ATOMS,
        ((_WORD_R, frozenset({LEFT})), (_WORD_U, frozenset({BOTTOM}))),
    ),
    Cell.OPEN_UPPER_TRIANGLE: (frozenset({UPPER}), ()),
    Cell.CLOSED_UPPER_TRIANGLE: (
        frozenset({UPPER, DIAG, LEFT}),
        ((_WORD_U, frozenset({BOTTOM})),),
    ),
    Cell.OPEN_LOWER_TRIANGLE: (frozenset({LOWER}), ()),
    Cell.CLOSED_LOWER_TRIANGLE: (
        frozenset({LOWER, DIAG, BOTTOM}),
        ((_WORD_R, frozenset({LEFT})),),
    ),
    Cell.DIAGONAL: (frozenset({DIAG}), ()),
    Cell.UPPER_BOUNDARY: (
        frozenset({DIAG, LEFT}),
        ((_WORD_U, frozenset({BOTTOM})),),
    ),
    Cell.LOWER_BOUNDARY: (
        frozenset({DIAG, BOTTOM}),
        ((_WORD_R, frozenset({LEFT})),),
    ),
    Cell.HALF_BOX_RIGHT: (
        frozenset({UPPER, LOWER, DIAG}),
        ((_WORD_R, frozenset({LEFT})),),
    ),
    Cell.HALF_BOX_UP: (
        frozenset({UPPER, LOWER, DIAG}),
        ((_WORD_U, frozenset({BOTTOM})),),
    ),
    Cell.HALF_BOX_LEFT: (frozenset({UPPER, LOWER, DIAG, LEFT}), ()),
    Cell.HALF_BOX_DOWN: (frozenset({UPPER, LOWER, DIAG, BOTTOM}), ()),
}


# --------------------------------------------------------------- room sets


class RoomSet:
    """Finite exact subset of the space: room -> nonempty atom set."""

    __slots__ = ("rooms",)

    def __init__(self, rooms: dict[ReducedWord, frozenset[int]] | None = None):
        clean = {}
        if rooms:
            for room, atoms in rooms.items():
                if atoms:
                    clean[room] = frozenset(atoms)
        self.rooms = clean

    def atoms_at(self, room: ReducedWord) -> frozenset[int]:
        return self.rooms.get(room, NO_ATOMS)

    def is_empty(self) -> bool:
        return not self.rooms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RoomSet) and self.rooms == other.rooms

    def __hash__(self) -> int:
        return hash(frozenset(self.rooms.items()))

    def items(self) -> Iterator[tuple[ReducedWord, frozenset[int]]]:
        return iter(sorted(self.rooms.items(), key=lambda kv: kv[0].sort_key()))

    def union(self, other: "RoomSet") -> "RoomSet":
        out = dict(self.rooms)
        for room, atoms in other.rooms.items():
            out[room] = out.get(room, NO_ATOMS) | atoms
        return RoomSet(out)

    def intersect(self, other: "RoomSet") -> "RoomSet":
        small, big = (self, other) if len(self.rooms) <= len(other.rooms) else (other, self)
        out = {}
        for room, atoms in small.rooms.items():
            both = atoms & big.atoms_at(room)
            if both:
                out[room] = both
        return RoomSet(out)

    def difference(self, other: "RoomSet") -> "RoomSet":
        out = {}
        for room, atoms in self.rooms.items():
            rest = atoms - other.atoms_at(room)
            if rest:
                out[room] = rest
        return RoomSet(out)

    def contains(self, other: "RoomSet") -> bool:
        return all(atoms <= self.atoms_at(room) for room, atoms in other.rooms.items())

    def translate(self, g: ActionElement) -> "RoomSet":
        out = {}
        for room, atoms in self.rooms.items():
            image = g.apply(room)
            out[image] = out.get(image, NO_ATOMS) | (swap_atoms(atoms) if g.parity else atoms)
        return RoomSet(out)

    def closure(self) -> "RoomSet":
        """Topological closure; open triangles spill one wall each."""
        out: dict[ReducedWord, set[int]] = {}

        def add(room: ReducedWord, atoms: Iterable[int]) -> None:
            out.setdefault(room, set()).update(atoms)

        for room, atoms in self.rooms.items():
            add(room, atoms)
            if UPPER in atoms:
                add(room, (DIAG, LEFT))
                add(room * _WORD_U, (BOTTOM,))
            if LOWER in atoms:
                add(room, (DIAG, BOTTOM))
                add(room * _WORD_R, (LEFT,))
        return RoomSet({room: frozenset(atoms) for room, atoms in out.items()})

    def describe(self) -> list[str]:
        return [
            f"{room.text()}:{'+'.join(ATOM_NAMES[a] for a in sorted(atoms))}"
            for room, atoms in self.items()
        ]


EMPTY_SET = RoomSet()


def materialize_cell(room: ReducedWord, cell: Cell) -> RoomSet:
    """Canonical-coordinate pieces of a named cell drawn in a room."""
    own, spills = _CELL_PIECES[cell]
    rooms = {}
    if own:
        rooms[room] = own
    for step, atoms in spills:
        neighbour = room * step
        rooms[neighbour] = rooms.get(neighbour, NO_ATOMS) | atoms
    return RoomSet(rooms)


# ------------------------------------------------------------------ points


class RoomPoint(FrozenRecord):
    """A canonical point: x, y in [0, 1) as exact fractions, not both 0."""

    __slots__ = ("room", "x", "y")

    def __init__(self, room: ReducedWord, x: Fraction, y: Fraction) -> None:
        set_field(self, "room", room)
        set_field(self, "x", x)
        set_field(self, "y", y)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.room, self.x, self.y) == (other.room, other.x, other.y)
        return NotImplemented

    __hash__ = FrozenRecord.__hash__

    def text(self) -> str:
        return f"({self.room.text()}, {self.x}, {self.y})"


_ZERO = Fraction(0)


def canonical_point(room: ReducedWord, x: Fraction | int, y: Fraction | int) -> RoomPoint:
    """Build a canonical point, pushing wall points across the gluing.

    Coordinates that are not already a ``Fraction`` are made one; the
    bounds, walls and corners are then read off each fraction's numerator
    and denominator (the denominator is positive), in integer compares.
    """
    if x.__class__ is not Fraction:
        x = Fraction(x)
    if y.__class__ is not Fraction:
        y = Fraction(y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    if not (0 <= xn <= xd and 0 <= yn <= yd):
        raise ValueError(f"coordinates outside the unit box: ({x}, {y})")
    if (xn == 0 or xn == xd) and (yn == 0 or yn == yd):
        raise ValueError(f"excluded corner point ({x}, {y})")
    # a corner is excluded, so at most one coordinate is 1
    if xn == xd:
        room, x = room * _WORD_R, _ZERO
    elif yn == yd:
        room, y = room * _WORD_U, _ZERO
    return RoomPoint(room, x, y)


def apply_to_point(g: ActionElement, p: RoomPoint) -> RoomPoint:
    room = g.apply(p.room)
    if g.parity:
        return RoomPoint(room, p.y, p.x)
    return RoomPoint(room, p.x, p.y)


# -------------------------------------------------------- neighbourhoods


def neighborhood_cells(center: ReducedWord) -> list[tuple[ReducedWord, Cell]]:
    """The five-room cell description of the coordinate neighbourhood."""
    return [
        (center, Cell.CLOSED_BOX),
        (center * word("r"), Cell.HALF_BOX_LEFT),
        (center * word("R"), Cell.HALF_BOX_RIGHT),
        (center * word("u"), Cell.HALF_BOX_DOWN),
        (center * word("U"), Cell.HALF_BOX_UP),
    ]


def neighborhood_roomset(center: ReducedWord, radius: int) -> RoomSet:
    """Canonical atoms of the coordinate neighbourhood at `center`.

    Raises TruncationError unless all five rooms fit in the word ball of
    the given radius.
    """
    cells = neighborhood_cells(center)
    if any(len(room) > radius for room, _ in cells):
        raise TruncationError(
            f"neighbourhood at {center.text()} exits truncation radius {radius}"
        )
    out = EMPTY_SET
    for room, cell in cells:
        out = out.union(materialize_cell(room, cell))
    return out
