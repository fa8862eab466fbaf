"""Test-only oracles and fixtures: defining formulas straight off the
pictures, and a deliberately broken system for refutation tests."""

from fractions import Fraction

from fundreg import regions
from fundreg.action import IDENTITY
from fundreg.checker import PROP_COVERAGE, LineSystem, _inconclusive
from fundreg.freegroup import r_power
from fundreg.tilespace import Cell, RoomSet, materialize_cell


def naive_reflection_image(root, v):
    """Defining formula for a reflection, straight off the gluing picture:
    the room at root*x goes to root*swap(x)."""
    return root * (root.inverse() * v).swapped()


def compose_all(elements):
    out = IDENTITY
    for g in elements:
        out = out * g
    return out


def covering_point(p):
    """Image in the punctured plane: room offset plus box coordinates."""
    re, ue = p.room.exponent_vector()
    return (re + p.x, ue + p.y)


def reflect_across_diagonal(anchor, point):
    """Reflect the plane across the slope-one line through the anchor."""
    a, b = anchor
    x, y = point
    return (y - b + a, x - a + b)


def plane2d_closure_membership(x, y):
    """Closure membership: x in (0, 1], y in [1/x, 1/x + 1]."""
    x, y = Fraction(x), Fraction(y)
    if x == 0:
        raise ValueError("outside chart")
    if not 0 < x <= 1:
        return False
    return 1 / x <= y <= 1 / x + 1


def spine_cells(radius, cell):
    """One ``cell`` in every spine room r^i, |i| <= radius, as a room set."""
    out = RoomSet({})
    for i in range(-radius, radius + 1):
        out = out.union(materialize_cell(r_power(i), cell))
    return out


def cell_closure(radius):
    """The free2house closure as drawn cell by cell."""
    return spine_cells(radius, Cell.CLOSED_UPPER_TRIANGLE)


def cell_boundary(radius):
    """The free2house boundary as drawn cell by cell."""
    return spine_cells(radius, Cell.UPPER_BOUNDARY)


class CorruptedLine(LineSystem):
    """The line with an oversized interval (0, 3/2): its translates
    overlap, so disjointness and boundary containment must refute.  It
    keeps the standard interval's windows and margin; its coverage union
    would overlap, so coverage is inconclusive."""

    def __init__(self):
        super().__init__("line-standard")
        self.name = "line-corrupted"

    def region(self, n_intervals):
        # looked up at the call, so that a test can swap the interval class
        return regions.IntervalSet([(0, Fraction(3, 2))])

    def coverage(self, cfg):
        return _inconclusive(
            PROP_COVERAGE, "translates of the oversized interval overlap; no tiling"
        )
