"""Geometry of the glued room space: points, atoms, cells, neighbourhoods."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fundreg.action import ActionElement, group_ball, room_reflection
from fundreg.freegroup import IDENTITY_WORD, enumerate_ball, r_power, word
from fundreg.tilespace import (
    ALL_ATOMS,
    BOTTOM,
    DIAG,
    LEFT,
    LOWER,
    UPPER,
    Cell,
    RoomPoint,
    RoomSet,
    TruncationError,
    apply_to_point,
    canonical_point,
    materialize_cell,
    neighborhood_cells,
    neighborhood_roomset,
    swap_atoms,
)
from oracles import (
    covering_point,
    point_atom,
    reference_canonical_point,
    reflect_across_diagonal,
)

half = Fraction(1, 2)
third = Fraction(1, 3)

coords_st = st.fractions(min_value=0, max_value=1, max_denominator=16)


# ----------------------------------------------------------------- points


def test_canonicalize_pushes_across_walls():
    p = canonical_point(IDENTITY_WORD, 1, half)
    assert (p.room, p.x, p.y) == (word("r"), 0, half)
    q = canonical_point(word("ru"), half, 1)
    assert (q.room, q.x, q.y) == (word("ruu"), half, 0)


def test_canonicalize_rejects_corners_and_outside():
    for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
        with pytest.raises(ValueError, match="corner"):
            canonical_point(IDENTITY_WORD, x, y)
    with pytest.raises(ValueError):
        canonical_point(IDENTITY_WORD, 2, half)


def test_canonicalize_is_idempotent_on_canonical_points():
    p = canonical_point(word("u"), 0, half)
    q = canonical_point(p.room, p.x, p.y)
    assert p == q


# inside, on the walls and corners, and outside the box, as int, Fraction
# and float
GRID = [
    *(-1, 0, 1, 2),
    *(Fraction(n, 4) for n in range(-2, 7)),
    *(-0.5, 0.0, 0.25, 0.5, 1.0, 1.5),
]


def test_canonical_point_matches_the_fraction_reference():
    outcomes = set()
    for room in (IDENTITY_WORD, word("rU"), word("Ur")):
        for x in GRID:
            for y in GRID:
                try:
                    want = reference_canonical_point(room, x, y)
                except ValueError as exc:
                    outcomes.add(str(exc).split(" ")[0])
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        canonical_point(room, x, y)
                    continue
                got = canonical_point(room, x, y)
                assert got == want and hash(got) == hash(want)
                assert type(got.x) is type(got.y) is Fraction
                assert got.text() == want.text()
                outcomes.add("ok")
    assert outcomes == {"ok", "coordinates", "excluded"}


def test_room_points_compare_by_room_and_coordinates():
    p = RoomPoint(word("r"), Fraction(1, 4), Fraction(1, 2))
    assert p == RoomPoint(word("r"), Fraction(2, 8), Fraction(1, 2))
    assert p != RoomPoint(word("r"), Fraction(1, 2), Fraction(1, 4))
    assert p != RoomPoint(word("u"), Fraction(1, 4), Fraction(1, 2))
    assert p != (word("r"), Fraction(1, 4), Fraction(1, 2))
    assert len({p, RoomPoint(word("r"), Fraction(1, 4), Fraction(1, 2))}) == 1


def test_atom_classification():
    assert point_atom(canonical_point(IDENTITY_WORD, third, half)) == UPPER
    assert point_atom(canonical_point(IDENTITY_WORD, half, third)) == LOWER
    assert point_atom(canonical_point(IDENTITY_WORD, half, half)) == DIAG
    assert point_atom(canonical_point(IDENTITY_WORD, 0, half)) == LEFT
    assert point_atom(canonical_point(IDENTITY_WORD, half, 0)) == BOTTOM


def test_apply_to_point_examples():
    ge = room_reflection(IDENTITY_WORD)
    p = canonical_point(IDENTITY_WORD, third, Fraction(2, 3))
    q = apply_to_point(ge, p)
    assert (q.room, q.x, q.y) == (IDENTITY_WORD, Fraction(2, 3), third)
    p2 = canonical_point(word("r"), third, Fraction(2, 3))
    q2 = apply_to_point(ge, p2)
    assert (q2.room, q2.x, q2.y) == (word("u"), Fraction(2, 3), third)


def test_action_commutes_with_wall_gluing():
    # the same geometric point through both gluing representatives
    ge = room_reflection(IDENTITY_WORD)
    p = canonical_point(IDENTITY_WORD, 1, half)  # equals (r, 0, 1/2)
    direct = apply_to_point(ge, p)
    # non-canonical route: act on (e, (1, 1/2)) formally, then canonicalize
    image_room = ge.apply(IDENTITY_WORD)
    other = canonical_point(image_room, half, 1)
    assert direct == other


@given(coords_st, coords_st)
def test_apply_then_inverse_is_identity(x, y):
    if (x in (0, 1)) and (y in (0, 1)):
        return
    p = canonical_point(word("ru"), x, y)
    ball = sorted(group_ball(enumerate_ball(1), 2), key=ActionElement.sort_key)
    for g in ball[:10]:
        assert apply_to_point(g.inverse(), apply_to_point(g, p)) == p


def test_covering_point_examples():
    p = canonical_point(word("rrU"), half, half)
    assert covering_point(p) == (Fraction(5, 2), Fraction(-1, 2))
    q = canonical_point(IDENTITY_WORD, 1, half)
    assert covering_point(q) == (1, half)


def test_covering_reflection_identity():
    """Reflections act on the covering as diagonal reflections at the root."""
    samples = [
        canonical_point(w, x, y)
        for w in enumerate_ball(2)
        for (x, y) in ((third, half), (0, half), (half, 0), (half, half))
    ]
    for root in enumerate_ball(2):
        g = room_reflection(root)
        anchor = root.exponent_vector()
        for p in samples:
            lhs = covering_point(apply_to_point(g, p))
            rhs = reflect_across_diagonal(anchor, covering_point(p))
            assert lhs == rhs


# ------------------------------------------------------------------ cells


def test_cell_materialization_spills():
    got = materialize_cell(IDENTITY_WORD, Cell.CLOSED_UPPER_TRIANGLE)
    assert got.atoms_at(IDENTITY_WORD) == frozenset({UPPER, DIAG, LEFT})
    assert got.atoms_at(word("u")) == frozenset({BOTTOM})
    box = materialize_cell(IDENTITY_WORD, Cell.CLOSED_BOX)
    assert box.atoms_at(IDENTITY_WORD) == ALL_ATOMS
    assert box.atoms_at(word("r")) == frozenset({LEFT})
    assert box.atoms_at(word("u")) == frozenset({BOTTOM})


def test_cell_vocabulary_closed_under_swap():
    pairs = {
        Cell.OPEN_UPPER_TRIANGLE: Cell.OPEN_LOWER_TRIANGLE,
        Cell.CLOSED_UPPER_TRIANGLE: Cell.CLOSED_LOWER_TRIANGLE,
        Cell.UPPER_BOUNDARY: Cell.LOWER_BOUNDARY,
        Cell.HALF_BOX_LEFT: Cell.HALF_BOX_DOWN,
        Cell.HALF_BOX_RIGHT: Cell.HALF_BOX_UP,
    }
    ge = room_reflection(IDENTITY_WORD)
    for cell, partner in pairs.items():
        got = materialize_cell(IDENTITY_WORD, cell).translate(ge)
        assert got == materialize_cell(IDENTITY_WORD, partner)


def test_closure_of_open_triangle():
    open_tri = materialize_cell(word("r"), Cell.OPEN_UPPER_TRIANGLE)
    assert open_tri.closure() == materialize_cell(word("r"), Cell.CLOSED_UPPER_TRIANGLE)
    open_low = materialize_cell(word("r"), Cell.OPEN_LOWER_TRIANGLE)
    assert open_low.closure() == materialize_cell(word("r"), Cell.CLOSED_LOWER_TRIANGLE)


def test_roomset_algebra():
    a = materialize_cell(IDENTITY_WORD, Cell.CLOSED_UPPER_TRIANGLE)
    b = materialize_cell(IDENTITY_WORD, Cell.CLOSED_LOWER_TRIANGLE)
    meet = a.intersect(b)
    assert meet.atoms_at(IDENTITY_WORD) == frozenset({DIAG})
    assert len(meet.rooms) == 1
    assert a.union(b).atoms_at(IDENTITY_WORD) == ALL_ATOMS
    assert a.difference(b).atoms_at(IDENTITY_WORD) == frozenset({UPPER, LEFT})
    assert a.contains(materialize_cell(IDENTITY_WORD, Cell.DIAGONAL))
    assert not b.contains(a)


def test_roomset_translate_by_parity_one():
    ge = room_reflection(IDENTITY_WORD)
    tri = materialize_cell(word("r"), Cell.OPEN_UPPER_TRIANGLE)
    got = tri.translate(ge)
    assert got.atoms_at(word("u")) == frozenset({LOWER})
    assert len(got.rooms) == 1
    # translation round-trips
    assert got.translate(ge) == tri


def test_swap_atoms_involution():
    for atoms in (ALL_ATOMS, frozenset({UPPER, LEFT}), frozenset({DIAG})):
        assert swap_atoms(swap_atoms(atoms)) == atoms


# -------------------------------------------------------- neighbourhoods


def test_neighborhood_cells_of_identity():
    cells = dict(neighborhood_cells(IDENTITY_WORD))
    assert cells[IDENTITY_WORD] == Cell.CLOSED_BOX
    assert cells[word("r")] == Cell.HALF_BOX_LEFT
    assert cells[word("R")] == Cell.HALF_BOX_RIGHT
    assert cells[word("u")] == Cell.HALF_BOX_DOWN
    assert cells[word("U")] == Cell.HALF_BOX_UP


def test_neighborhood_rooms_of_r():
    got = neighborhood_roomset(word("r"), radius=2)
    expected_rooms = {word("r"), word("rr"), word("ru"), IDENTITY_WORD, word("rU")}
    assert set(got.rooms) == expected_rooms


def test_neighborhood_atoms_of_identity():
    got = neighborhood_roomset(IDENTITY_WORD, radius=1)
    assert got.atoms_at(IDENTITY_WORD) == ALL_ATOMS
    assert got.atoms_at(word("r")) == frozenset({LEFT, UPPER, LOWER, DIAG})
    assert got.atoms_at(word("u")) == frozenset({BOTTOM, UPPER, LOWER, DIAG})
    assert got.atoms_at(word("R")) == frozenset({UPPER, LOWER, DIAG})
    assert got.atoms_at(word("U")) == frozenset({UPPER, LOWER, DIAG})


def test_neighborhood_requires_radius():
    with pytest.raises(TruncationError, match="exits truncation"):
        neighborhood_roomset(IDENTITY_WORD, radius=0)
    with pytest.raises(TruncationError):
        neighborhood_roomset(r_power(3), radius=3)
    neighborhood_roomset(r_power(3), radius=4)  # fits


# --------------------------------------------------------------- rendering


def test_render_roomsets_is_deterministic():
    from fundreg.render import render_roomsets

    layers = [("patch", neighborhood_roomset(IDENTITY_WORD, 2))]
    assert render_roomsets(layers) == render_roomsets(layers)


def test_render_roomsets_is_valid_xml_with_legend():
    import xml.dom.minidom

    from fundreg.render import render_roomsets

    svg = render_roomsets(
        [
            ("patch", neighborhood_roomset(word("r"), 2)),
            ("walls", materialize_cell(word("r"), Cell.UPPER_BOUNDARY)),
        ]
    )
    xml.dom.minidom.parseString(svg)
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    assert ">patch</text>" in svg and ">walls</text>" in svg
    assert ">e</text>" in svg  # identity room caught by the r-patch


def test_label_color_is_stable_hex():
    from fundreg.render import label_color

    assert label_color("boundary") == label_color("boundary")
    assert label_color("boundary") != label_color("region")
    color = label_color("anything")
    assert len(color) == 7 and color[0] == "#"
    int(color[1:], 16)


def test_render_roomsets_handles_empty_layer_list():
    from fundreg.render import render_roomsets

    svg = render_roomsets([])
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
