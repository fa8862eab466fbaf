"""Tests for the concrete region constructions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fundreg.checker import CylinderSystem, Free2HouseSystem, RunConfig, fsa_check
from fundreg.freegroup import r_power
from fundreg.regions import (
    IntervalSet,
    format_fraction,
    pathological_1d,
    plane2d_point_above,
    plane2d_translate_meets_box,
    standard_interval,
)
from fundreg.tilespace import Cell, materialize_cell
from interval_oracle import closure_contains, closure_covers, contains, serialize
from oracles import (
    CorruptedLine,
    cell_boundary,
    cell_closure,
    pathological_interval,
    plane2d_closure_membership,
    plane2d_membership,
    spine_cells,
)


# --------------------------------------------------------------- oracles


def naive_intersects(a: IntervalSet, b: IntervalSet) -> bool:
    """Quadratic pairwise overlap scan."""
    return any(
        max(alo, blo) < min(ahi, bhi)
        for alo, ahi in a.pairs
        for blo, bhi in b.pairs
    )


def naive_closed_pieces(a: IntervalSet, b: IntervalSet):
    pieces = []
    for alo, ahi in a.pairs:
        for blo, bhi in b.pairs:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                pieces.append((lo, hi))
    return sorted(pieces)


fractions_st = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12
)


@st.composite
def interval_sets(draw):
    points = draw(
        st.lists(fractions_st, min_size=2, max_size=8, unique=True)
    )
    points.sort()
    pairs = [
        (points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)
    ]
    return IntervalSet(pairs)


# --------------------------------------------------------- interval sets


def test_interval_set_rejects_bad_input():
    with pytest.raises(ValueError):
        IntervalSet([(1, 1)])
    with pytest.raises(ValueError):
        IntervalSet([(2, 1)])
    with pytest.raises(ValueError):
        IntervalSet([(0, 2), (1, 3)])


def test_interval_set_allows_touching_endpoints():
    s = IntervalSet([(0, 1), (1, 2)])
    assert not contains(s, 1)
    assert closure_contains(s, 1)


@given(interval_sets(), interval_sets())
def test_intersects_matches_naive_scan(a, b):
    assert (a.first_overlap(b) is not None) == naive_intersects(a, b)


@given(interval_sets(), interval_sets())
def test_closed_intersection_matches_naive_scan(a, b):
    assert sorted(a.closed_intersection(b)) == naive_closed_pieces(a, b)


@given(interval_sets(), st.integers(min_value=-5, max_value=5))
def test_translate_round_trip(s, m):
    assert s.translate(m).translate(-m) == s


def test_first_overlap_witness():
    a = IntervalSet([(0, Fraction(3, 2))])
    b = a.translate(1)
    lo, hi = a.first_overlap(b)
    assert (lo, hi) == (1, Fraction(3, 2))


def test_coverage_of_window():
    s = IntervalSet([(0, 1), (1, 2), (2, 3)])
    assert closure_covers(s, 0, 3)
    assert closure_covers(s, Fraction(1, 2), Fraction(5, 2))
    assert not closure_covers(s, 0, Fraction(7, 2))


@given(interval_sets(), fractions_st, fractions_st)
def test_coverage_gap_is_a_true_witness(s, lo, hi):
    if not lo < hi:
        return
    gap = s.coverage_gap(lo, hi)
    if gap is None:
        assert closure_covers(s, lo, hi)
    else:
        assert lo <= gap <= hi
        assert not closure_contains(s, gap)


def test_serialize_uses_exact_fractions():
    s = IntervalSet([(Fraction(3, 2), Fraction(5, 3))])
    assert serialize(s) == [["3/2", "5/3"]]
    assert format_fraction(Fraction(4, 2)) == "2"


# ------------------------------------------------------- 1d region data


def test_standard_and_corrupted_intervals():
    assert standard_interval().pairs == ((0, 1),)
    assert CorruptedLine().region(1).pairs == ((0, Fraction(3, 2)),)


def test_pathological_first_interval_and_count_guard():
    assert pathological_1d(1).pairs == ((0, Fraction(1, 2)),)
    assert pathological_interval(1) == (Fraction(3, 2), Fraction(5, 3))
    with pytest.raises(ValueError):
        pathological_1d(0)


@given(st.integers(min_value=0, max_value=60))
def test_pathological_interval_width(n):
    lo, hi = pathological_interval(n)
    assert hi - lo == Fraction(1, (n + 1) * (n + 2))
    assert n <= lo < hi < n + 1


def test_pathological_fractional_parts_tile_the_unit_interval():
    # closures of the fractional parts chain: right end of piece n is the
    # left end of piece n + 1
    for n in range(40):
        _, hi = pathological_interval(n)
        lo_next, _ = pathological_interval(n + 1)
        assert hi == lo_next - 1


def test_pathological_translates_are_disjoint():
    s = pathological_1d(30)
    for m in range(1, 35):
        assert s.first_overlap(s.translate(m)) is None
        assert s.first_overlap(s.translate(-m)) is None


def test_pathological_closure_coverage_threshold():
    # translating interval n by -n lays the closed fractional tiles end
    # to end; the window [0, 1 - 1/k] is covered exactly when the top
    # index reaches k - 2
    k = 7
    window_hi = 1 - Fraction(1, k)
    for count in range(1, 12):
        tiles = IntervalSet(
            [
                (lo - n, hi - n)
                for n, (lo, hi) in enumerate(
                    pathological_interval(n) for n in range(count)
                )
            ]
        )
        covered = closure_covers(tiles, 0, window_hi)
        assert covered == (count - 1 >= k - 2)


# --------------------------------------------------------------- plane 2d


def test_plane_membership_examples():
    assert plane2d_membership(Fraction(1, 2), Fraction(5, 2))
    assert not plane2d_membership(Fraction(1, 2), 2)
    assert not plane2d_membership(Fraction(3, 2), 1)
    assert not plane2d_membership(-Fraction(1, 2), 3)


def test_plane_membership_outside_chart():
    with pytest.raises(ValueError, match="outside chart"):
        plane2d_membership(0, 5)
    with pytest.raises(ValueError, match="outside chart"):
        plane2d_closure_membership(0, 5)


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=50),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(60), max_denominator=50),
)
def test_plane_closure_contains_membership(x, y):
    if plane2d_membership(x, y):
        assert plane2d_closure_membership(x, y)


def test_plane_points_reach_any_height():
    for height in (0, 10, 1000):
        x, y = plane2d_point_above(height)
        assert plane2d_membership(x, y)
        assert y > height


def test_plane_translate_box_predicate_against_samples():
    # the box around the origin with half width 1/3 meets the closure
    # translated by (0, n) exactly for n <= -3 (band over x < 1/3 starts
    # above y = 3)
    for n in range(-8, 3):
        expected = n <= -3
        assert plane2d_translate_meets_box(0, n, Fraction(1, 3)) == expected
    # sample cross-check: explicit closure points landing in the box
    x = Fraction(1, 5)
    y = 1 / x  # closure point (1/5, 5)
    for n in (-5, -6):
        assert plane2d_closure_membership(x, y)
        shifted = y + n
        inside = -Fraction(1, 3) < shifted < Fraction(1, 3)
        if inside:
            assert plane2d_translate_meets_box(0, n, Fraction(1, 3))


def test_plane_translate_box_other_column():
    # x values near the right edge contribute through the m = -1 shift
    assert plane2d_translate_meets_box(-1, -1, Fraction(1, 4))
    assert not plane2d_translate_meets_box(-1, -9, Fraction(1, 4))
    assert not plane2d_translate_meets_box(2, 0, Fraction(1, 4))


# --------------------------------------------------------------- cylinder


def _cylinder_overlap(c, m_range=200):
    _, overlap = fsa_check(CylinderSystem(c), RunConfig(m_range=m_range))
    return set(overlap)


def test_cylinder_overlap_default_margin():
    # the default band (-c, 2c) meets its shifts by |m| <= 2, whatever the
    # shift range
    for c in (Fraction(2, 3), Fraction(5, 7), 3):
        for m_range in (3, 200):
            assert _cylinder_overlap(c, m_range) == {-2, -1, 0, 1, 2}


@given(
    st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=8),
    st.integers(min_value=-9, max_value=9),
)
def test_cylinder_overlap_matches_interval_arithmetic(c, m):
    # oracle: direct open-interval overlap of the shifted band (-c, 2c)
    u = IntervalSet([(-c, 2 * c)])
    expected = u.first_overlap(u.translate(m * c)) is not None
    assert (m in _cylinder_overlap(c, m_range=9)) == expected


# ------------------------------------------------- free-2-house regions


@pytest.mark.parametrize("radius", range(9))
def test_free2house_region_is_the_open_spine_triangles(radius):
    region = Free2HouseSystem().region(radius)
    assert region == spine_cells(radius, Cell.OPEN_UPPER_TRIANGLE)
    assert len(region.rooms) == 2 * radius + 1


def test_free2house_cells_radius_zero_and_two():
    edge = materialize_cell(r_power(1), Cell.UPPER_BOUNDARY).atoms_at(r_power(1))
    assert Free2HouseSystem().boundary(1).atoms_at(r_power(1)) == edge


def test_free2house_closure_and_boundary_derive_from_the_region():
    # closure(region) and closure \ region are the cell-drawn sets
    system = Free2HouseSystem()
    for radius in range(12):
        assert system.closure(radius) == cell_closure(radius)
        assert system.boundary(radius) == cell_boundary(radius)
