"""Test-only oracles and fixtures: defining formulas straight off the
pictures, and a deliberately broken system for refutation tests."""

from fractions import Fraction
from functools import lru_cache

from fundreg import regions
from fundreg.action import GroupBall, IDENTITY, _decode, _encode, room_reflection
from fundreg.checker import PROP_COVERAGE, LineSystem, _inconclusive
from fundreg.freegroup import concat_reduced, enumerate_ball, r_power, swap_letters
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


class ReferenceBall:
    """The breadth-first ball build that ``GroupBall`` replaced.  It holds
    each new layer twice: as byte keys, and as a frontier of
    ``(letters, parity)`` tuples that the next layer is built from."""

    def __init__(self, roots, depth):
        gens = []
        seen_gens = set()
        for root in roots:
            g = room_reflection(root)
            key = _encode(g.spine.letters, g.parity)
            if key not in seen_gens:
                seen_gens.add(key)
                gens.append(g.spine.letters)
        depth_of = {_encode((), 0): 0}
        layers = [[_encode((), 0)]]
        frontier = [((), 0)]
        for k in range(1, depth + 1):
            nxt_keys = []
            nxt = []
            for letters, parity in frontier:
                swapped = swap_letters(letters)
                for gen in gens:
                    # generators have parity 1: new = gen * elem
                    new_letters = concat_reduced(gen, swapped)
                    new_parity = 1 ^ parity
                    key = _encode(new_letters, new_parity)
                    if key not in depth_of:
                        depth_of[key] = k
                        nxt_keys.append(key)
                        nxt.append((new_letters, new_parity))
            layers.append(nxt_keys)
            frontier = nxt
        self.depth_of = depth_of
        self.layers = layers

    def layer(self, k):
        return [_decode(key) for key in self.layers[k]]

    def elements(self):
        """Every element, layer by layer: the ball's iteration order."""
        return [g for k in range(len(self.layers)) for g in self.layer(k)]


def ball_depth(ball, g):
    """The layer of ``ball`` that holds g, or None if g is not in it."""
    return ball._depth_of.get(_encode(g.spine.letters, g.parity))


@lru_cache(maxsize=None)
def reference_half_ball():
    """The depth-3 ball over the length-<=3 roots, built once per test process."""
    return GroupBall(enumerate_ball(3), 3)


def reference_min_depth(g):
    """The depth lookup that the midpoint split replaced: a direct lookup
    in the depth-3 ball, then for t = 4 .. 6 a (t - 3) + 3 split whose
    left factor has minimal depth exactly t - 3."""
    half = reference_half_ball()
    found = ball_depth(half, g)
    if found is not None:
        return found
    for total in range(4, 7):
        for a in half.iter_layer(total - 3):
            tail = ball_depth(half, a.inverse() * g)
            if tail is not None and tail <= 3:
                return total
    return None


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
