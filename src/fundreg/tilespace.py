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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

from .action import ActionElement
from .freegroup import IDENTITY_WORD, ReducedWord, word


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


@dataclass(frozen=True)
class RoomPoint:
    """A canonical point: x, y in [0, 1) as exact fractions, not both 0."""

    room: ReducedWord
    x: Fraction
    y: Fraction

    def atom(self) -> int:
        if self.x == 0:
            return LEFT
        if self.y == 0:
            return BOTTOM
        if self.x == self.y:
            return DIAG
        return UPPER if self.x < self.y else LOWER

    def text(self) -> str:
        return f"({self.room.text()}, {self.x}, {self.y})"


def canonical_point(room: ReducedWord, x: Fraction | int, y: Fraction | int) -> RoomPoint:
    """Build a canonical point, pushing wall points across the gluing."""
    x = Fraction(x)
    y = Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"coordinates outside the unit box: ({x}, {y})")
    if (x == 0 or x == 1) and (y == 0 or y == 1):
        raise ValueError(f"excluded corner point ({x}, {y})")
    while x == 1 or y == 1:
        if x == 1:
            room, x = room * _WORD_R, Fraction(0)
        if y == 1:
            room, y = room * _WORD_U, Fraction(0)
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


# ------------------------------------------------------------------ svg


def label_color(label: str) -> str:
    """Stable mid-range hex color derived from the label text."""
    import hashlib  # only drawing needs it

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    r, g, b = (48 + v % 160 for v in digest[:3])
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_num(value: float) -> str:
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def render_roomsets(
    layers: Iterable[tuple[str, RoomSet]], unit: int = 48, pad: int = 16
) -> str:
    """Standalone SVG of room-set layers drawn in the covering plane.

    Rooms sit at their exponent-vector offsets; distinct words with equal
    offsets overprint, which is the honest picture of the covering shadow.
    Output is deterministic byte for byte: fixed ordering, fixed number
    formatting, colors hashed from layer labels.
    """
    layer_list = list(layers)
    rooms: set[ReducedWord] = set()
    for _, roomset in layer_list:
        rooms.update(room for room, _ in roomset.items())
    if not rooms:
        rooms.add(IDENTITY_WORD)
    offsets = {room: room.exponent_vector() for room in rooms}
    xs = [o[0] for o in offsets.values()]
    ys = [o[1] for o in offsets.values()]
    min_x, max_x = min(xs), max(xs) + 1
    min_y, max_y = min(ys), max(ys) + 1

    legend_h = 22 * len(layer_list) + 8 if layer_list else 0
    width = pad * 2 + (max_x - min_x) * unit
    height = pad * 2 + (max_y - min_y) * unit + legend_h

    def px(x: float) -> str:
        return _svg_num(pad + (x - min_x) * unit)

    def py(y: float) -> str:
        return _svg_num(pad + (max_y - y) * unit)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    sorted_rooms = sorted(rooms, key=lambda w: w.sort_key())
    for room in sorted_rooms:
        ox, oy = offsets[room]
        parts.append(
            f'<rect x="{px(ox)}" y="{py(oy + 1)}" width="{unit}" height="{unit}" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
        name = room.text()
        parts.append(
            f'<text x="{px(ox + 0.5)}" y="{py(oy + 0.78)}" font-size="{unit // 5}" '
            f'text-anchor="middle" fill="#999999" '
            f'font-family="monospace">{name}</text>'
        )

    for label, roomset in layer_list:
        color = label_color(label)
        parts.append('<g stroke-linecap="round">')
        for room, atoms in sorted(roomset.items(), key=lambda kv: kv[0].sort_key()):
            ox, oy = offsets[room]
            for atom in sorted(atoms):
                if atom == UPPER:
                    pts = f"{px(ox)},{py(oy)} {px(ox)},{py(oy + 1)} {px(ox + 1)},{py(oy + 1)}"
                    parts.append(
                        f'<polygon points="{pts}" fill="{color}" fill-opacity="0.45" stroke="none"/>'
                    )
                elif atom == LOWER:
                    pts = f"{px(ox)},{py(oy)} {px(ox + 1)},{py(oy)} {px(ox + 1)},{py(oy + 1)}"
                    parts.append(
                        f'<polygon points="{pts}" fill="{color}" fill-opacity="0.45" stroke="none"/>'
                    )
                else:
                    if atom == DIAG:
                        x1, y1, x2, y2 = ox, oy, ox + 1, oy + 1
                    elif atom == LEFT:
                        x1, y1, x2, y2 = ox, oy, ox, oy + 1
                    else:
                        x1, y1, x2, y2 = ox, oy, ox + 1, oy
                    parts.append(
                        f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
                        f'stroke="{color}" stroke-width="2.5"/>'
                    )
        parts.append("</g>")

    legend_y = pad * 2 + (max_y - min_y) * unit
    for i, (label, _) in enumerate(layer_list):
        color = label_color(label)
        y = legend_y + 22 * i
        parts.append(
            f'<rect x="{pad}" y="{y}" width="14" height="14" fill="{color}" fill-opacity="0.65"/>'
        )
        parts.append(
            f'<text x="{pad + 20}" y="{y + 12}" font-size="12" fill="#333333" '
            f'font-family="monospace">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
