"""Plane closed forms, and the cylinder's line code, against per-shift
scans.

Plane local finiteness reads each column's meeting shifts off
``plane2d_box_shifts`` instead of testing all 5 (8k + 1) pairs one by
one, as ``oracles.plane2d_meets_box_by_bands`` still does.  The
cylinder's self-adjacency, audit and orbit count run the line's code at
step c: a shift sweep that stops below the inflated band's span, one
window query per sampled tile, and the endpoints divided by c.
``oracles.ScanningCylinder`` tests every shift |m| <= m_range and every
sample instead.  Agreement covers the pair lists in order, the counts,
the witness caps and whole reports.  ``plane2d_box_shifts``, and the
band predicate ``oracles.plane2d_membership`` that the plane oracles
read, compare integers; their oracles are the ``Fraction`` formulas.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fundreg.checker import (
    CylinderSystem,
    PlanePathologicalSystem,
    RunConfig,
    local_finiteness_profile,
)
from fundreg.regions import plane2d_box_shifts, plane2d_translate_meets_box
from oracles import (
    ScanningCylinder,
    ScanningPlane,
    plane2d_box_shifts_by_fractions,
    plane2d_meets_box_by_bands,
    plane2d_membership,
    plane_pairs_by_scan,
)

HORIZONS = [*range(1, 40), 100, 1000]
CENTERS = [(0, Fraction(1, 2)), (0, Fraction(3, 2)), (Fraction(1, 2), Fraction(5, 2))]


def closed_form_pairs(k, center):
    return [
        (m, n)
        for m in range(-2, 3)
        for n in plane2d_box_shifts(m, 4 * k, Fraction(1, k), center)
    ]


@pytest.mark.parametrize("center", CENTERS, ids=str)
def test_plane_box_shifts_match_the_pair_scan(center):
    for k in HORIZONS:
        assert closed_form_pairs(k, center) == plane_pairs_by_scan(k, center), k


def test_plane_translate_predicate_matches_the_band_oracle():
    for center in CENTERS:
        for k in (1, 2, 3, 7):
            for m in range(-3, 4):
                for n in range(-8 * k, 8 * k + 1):
                    assert plane2d_translate_meets_box(
                        m, n, Fraction(1, k), center
                    ) == plane2d_meets_box_by_bands(m, n, Fraction(1, k), center)


def test_plane_box_shifts_at_both_ends_of_a_column():
    # a column whose box lies right of the strip meets nothing, and one
    # whose slice starts at x = 0 is bounded below only by the reach
    assert plane2d_box_shifts(2, 10, Fraction(1, 4)) == range(0)
    assert plane2d_box_shifts(0, 10, Fraction(1, 3)) == range(-10, -2)
    assert len(plane2d_box_shifts(0, 10**12, Fraction(1, 3))) == 10**12 - 2


GRID_VALUES = [0, 1, -1, 2, *map(Fraction, ("1/2", "-1/3", "5/7", "7/4"))]
HALF_WIDTHS = [Fraction(1, k) for k in (1, 2, 3, 5, 12, 1000)] + [2, Fraction(5, 3)]


@pytest.mark.parametrize("half_width", HALF_WIDTHS, ids=str)
def test_plane_box_shifts_match_the_fraction_formula(half_width):
    slices = {"empty": 0, "from 0": 0, "inside": 0}
    for m in range(-3, 4):
        for reach in (0, 1, 4, 40):
            for cx in GRID_VALUES:
                for cy in GRID_VALUES:
                    args = (m, reach, half_width, (cx, cy))
                    want = plane2d_box_shifts_by_fractions(*args)
                    assert list(plane2d_box_shifts(*args)) == list(want), args
                    x_lo = max(cx - half_width - m, 0)
                    if x_lo >= min(cx + half_width - m, 1):
                        slices["empty"] += 1
                    else:
                        slices["from 0" if x_lo == 0 else "inside"] += 1
    # the grid reaches empty slices, slices from x = 0, and inner ones
    assert all(slices.values()), slices


@pytest.mark.parametrize(
    "schedule",
    [(1, 2, 3), (2, 3, 4, 5, 6), (1, 2, 3, 7, 11, 40), (3, 7, 11, 100), (2, 3, 1000)],
    ids=str,
)
def test_plane_local_finiteness_matches_the_scanning_report(schedule):
    cfg = RunConfig(schedule=schedule)
    got, got_counts = local_finiteness_profile(PlanePathologicalSystem(), cfg)
    want, want_counts = local_finiteness_profile(ScanningPlane(), cfg)
    assert got.to_dict() == want.to_dict()
    assert got_counts == want_counts


def membership_by_fractions(x, y):
    """The defining formula: 0 < x < 1 and 1/x < y < 1/x + 1."""
    x, y = Fraction(x), Fraction(y)
    if x == 0:
        raise ValueError("outside chart")
    return 0 < x < 1 and 1 / x < y < 1 / x + 1


xs = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=60),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 7), Fraction(59, 60), 1]),
)


@given(xs, st.fractions(min_value=-5, max_value=130, max_denominator=60))
def test_plane_membership_matches_the_fraction_formula(x, y):
    if x == 0:
        with pytest.raises(ValueError, match="outside chart"):
            plane2d_membership(x, y)
        return
    assert plane2d_membership(x, y) == membership_by_fractions(x, y)


@given(xs.filter(lambda x: x != 0), st.sampled_from([0, 1]), st.integers(-2, 2))
def test_plane_membership_on_the_strip_edges(x, edge, step):
    # y = 1/x and y = 1/x + 1 bound the strip; y one 1/q^2 step off either
    # edge lands just inside or just outside
    y = 1 / Fraction(x) + edge + Fraction(step, Fraction(x).denominator ** 2)
    assert plane2d_membership(x, y) == membership_by_fractions(x, y)
    assert not plane2d_membership(x, 1 / Fraction(x) + edge)


SHIFTS = [1, Fraction(3, 2), Fraction(2, 3), Fraction(5, 7), 3, Fraction(7, 3)]


@pytest.mark.parametrize("c", SHIFTS, ids=str)
@pytest.mark.parametrize("m_range", [1, 2, 3, 200])
@pytest.mark.parametrize("schedule", [(2, 3, 4, 5, 6), (1, 2, 3)], ids=str)
def test_cylinder_reports_match_the_shift_loops(c, m_range, schedule):
    cfg = RunConfig(schedule=schedule, m_range=m_range)
    for x_compact in (True, False):
        got = CylinderSystem(c, x_compact)
        want = ScanningCylinder(c, x_compact)
        got_fsa, got_overlap = got.finite_self_adjacency(cfg)
        want_fsa, want_overlap = want.finite_self_adjacency(cfg)
        assert got_fsa.to_dict() == want_fsa.to_dict()
        assert got_overlap == want_overlap
        for check in ("adjacency_audit", "orbit_boundary", "compactness"):
            assert (
                getattr(got, check)(cfg).to_dict()
                == getattr(want, check)(cfg).to_dict()
            ), check
