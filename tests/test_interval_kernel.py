"""The integer-endpoint ``IntervalSet`` against the Fraction-pair oracle.

Every public operation is compared on random inputs with mixed
denominators, including the errors raised for bad input.  The shift sweep
and the window are also checked shift by shift against the kernel's own
translates and merges.  Then the line and cylinder checks are run on both
classes and their reports compared whole, witness text included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import interval_oracle
from fundreg import checker, regions
from fundreg.checker import (
    RunConfig,
    boundary_containment,
    check_coverage,
    check_disjointness,
    fsa_check,
    local_finiteness_profile,
    make_system,
)
from fundreg.regions import IntervalSet
from oracles import CorruptedLine

Oracle = interval_oracle.IntervalSet

values = st.fractions(min_value=-6, max_value=6, max_denominator=9)
shifts = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
)


@st.composite
def pair_lists(draw, valid=True):
    """Pairs in shuffled order; with ``valid`` they form a legal set, some
    of whose intervals touch."""
    if valid:
        points = sorted(draw(st.lists(values, max_size=10, unique=True)))
        segments = list(zip(points, points[1:]))
        n = len(segments)
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [seg for seg, k in zip(segments, keep) if k]
    else:
        pairs = draw(st.lists(st.tuples(values, values), max_size=5))
    return draw(st.permutations(pairs))


def agree(new_call, old_call):
    """(new result, oracle result); None when both raised ValueError with
    the same message."""
    try:
        expected = old_call()
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            new_call()
        assert str(caught.value) == str(exc)
        return None
    return new_call(), expected


def both(pairs):
    return agree(lambda: IntervalSet(pairs), lambda: Oracle(pairs))


def same(new, old):
    assert type(new) is IntervalSet
    assert new.pairs == old.pairs
    assert len(new) == len(old)
    assert repr(new) == repr(old)
    assert interval_oracle.serialize(new) == interval_oracle.serialize(old)
    assert new.endpoints() == old.endpoints()
    if len(old):
        assert new.span() == old.span()


@given(pair_lists(valid=False))
def test_construction_and_errors_match(pairs):
    made = both(pairs)
    if made:
        same(*made)


@given(pair_lists(), shifts, shifts)
def test_translate_matches(pairs, s, t):
    new, old = both(pairs)
    same(new.translate(s), old.translate(s))
    same(new.translate(s).translate(t), old.translate(s).translate(t))


@given(pair_lists(), shifts)
def test_inflate_matches_including_errors(pairs, margin):
    new, old = both(pairs)
    made = agree(lambda: new.inflate(margin), lambda: old.inflate(margin))
    if made:
        same(*made)


@given(pair_lists(), pair_lists(), shifts)
def test_binary_scans_match_over_mixed_denominators(p, q, s):
    (a, a0), (b, b0) = both(p), both(q)
    b, b0 = b.translate(s), b0.translate(s)
    assert a.first_overlap(b) == a0.first_overlap(b0)
    assert b.first_overlap(a) == b0.first_overlap(a0)
    assert a.closed_intersection(b) == a0.closed_intersection(b0)
    assert b.closed_intersection(a) == b0.closed_intersection(a0)


@given(pair_lists(), shifts, shifts)
def test_point_and_window_queries_match(pairs, x, y):
    new, old = both(pairs)
    # inverted and empty windows included
    assert new.closure_meets_open_window(x, y) == old.closure_meets_open_window(x, y)
    assert new.coverage_gap(x, y) == old.coverage_gap(x, y)


@given(st.lists(pair_lists(), min_size=1, max_size=4), st.lists(shifts, max_size=4))
def test_union_matches_including_overlap_error(lists, offsets):
    made = [both(pairs) for pairs in lists]
    # shift some of the sets, over other denominators
    for i, s in enumerate(offsets[: len(made)]):
        made[i] = (made[i][0].translate(s), made[i][1].translate(s))
    (first, first0), rest = made[0], made[1:]
    united = agree(
        lambda: first.union(*(n for n, _ in rest)),
        lambda: first0.union(*(o for _, o in rest)),
    )
    if united:
        same(*united)


@given(pair_lists(), pair_lists(), shifts)
def test_equality_follows_the_value(p, q, s):
    (a, a0), (b, b0) = both(p), both(q)
    assert (a == b) == (a0 == b0)
    # equal values over different denominators
    moved = a.translate(s).translate(Fraction(1, 2)).translate(-s - Fraction(1, 2))
    assert moved == a
    assert a != a0


steps = st.one_of(
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=Fraction(1, 12), max_value=7, max_denominator=12),
)
reaches = st.integers(min_value=0, max_value=30)


def open_pieces(pieces):
    return [(lo, hi) for lo, hi in pieces if lo < hi]


@given(pair_lists(), steps, reaches)
def test_shift_meetings_match_the_per_shift_merges(pairs, step, reach):
    # intervals up to 12 wide against steps down to 1/12, negative ends,
    # touching intervals and mixed denominators
    new, old = both(pairs)
    got = new.shift_meetings(step, reach)
    assert list(got) == sorted(got)
    assert set(got) <= set(range(-reach, reach + 1)) - {0}
    for m in range(-reach, reach + 1):
        if m == 0:
            continue
        moved = new.translate(m * step)
        pieces = new.closed_intersection(moved)
        assert (m in got) == bool(pieces)
        overlap = got.get(m, IntervalSet(()))
        assert list(overlap.pairs) == open_pieces(pieces)
        assert (overlap.pairs[:1] or [None])[0] == new.first_overlap(moved)
    reference = old.shift_meetings(step, reach)
    assert {m: v.pairs for m, v in got.items()} == {
        m: v.pairs for m, v in reference.items()
    }


@given(pair_lists(), steps, shifts, shifts, reaches)
def test_window_translates_match_the_per_shift_queries(pairs, step, lo, hi, reach):
    # inverted and empty windows included
    new, old = both(pairs)
    got = new.window_translates(step, lo, hi, reach)
    assert list(got) == sorted(got)
    assert set(got) <= set(range(-reach, reach + 1))
    for m in range(-reach, reach + 1):
        moved = new.translate(m * step)
        assert (m in got) == moved.closure_meets_open_window(lo, hi)
        if m in got:
            assert got[m] == IntervalSet(
                (a, b) for a, b in moved.pairs if a < hi and b > lo
            )
    reference = old.window_translates(step, lo, hi, reach)
    assert {m: v.pairs for m, v in got.items()} == {
        m: v.pairs for m, v in reference.items()
    }


@given(pair_lists(), steps, shifts, shifts, reaches)
def test_windowed_coverage_matches_the_union_of_every_translate(
    pairs, step, lo, hi, reach
):
    s = IntervalSet(pairs)
    translates = [s.translate(m * step) for m in range(-reach, reach + 1)]
    try:
        full = translates[0].union(*translates[1:])
    except ValueError:
        return  # the translates overlap somewhere: no tiling to compare
    pieces = s.window_translates(step, lo, hi, reach)
    windowed = IntervalSet(()).union(*pieces.values())
    assert windowed.coverage_gap(lo, hi) == full.coverage_gap(lo, hi)


def test_the_merge_drops_a_touch_point_the_sweep_needs_not_report():
    # closed_intersection steps past (-3, -2) when it ends together with
    # (-29/5, -2), so the touch at -2 with (-2, -9/5) is never listed; the
    # sweep reports open overlaps only, and the touch is a region endpoint
    s = IntervalSet(
        [(-38, -7), (-7, Fraction(-16, 5)), (Fraction(-16, 5), -3), (-3, -2)]
    )
    step = Fraction(6, 5)
    moved = s.translate(step)
    pieces = s.closed_intersection(moved)
    assert (Fraction(-2), Fraction(-2)) not in pieces
    assert interval_oracle.closure_contains(s, -2)
    assert interval_oracle.closure_contains(moved, -2)
    assert -2 in s.endpoints()
    meetings = s.shift_meetings(step, 1)
    assert list(meetings[1].pairs) == open_pieces(pieces)
    back = s.closed_intersection(s.translate(-step))
    assert list(meetings[-1].pairs) == open_pieces(back)


def test_shift_scans_need_a_positive_step():
    s = IntervalSet([(0, 1)])
    for step in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="step must be positive"):
            s.shift_meetings(step, 3)
        with pytest.raises(ValueError, match="step must be positive"):
            s.window_translates(step, 0, 1, 3)


def test_shift_scans_of_the_empty_set_are_empty():
    empty = IntervalSet(())
    assert empty.shift_meetings(1, 5) == {}
    assert empty.window_translates(1, 0, 1, 5) == {}


def test_shared_denominator_is_the_lcm():
    s = IntervalSet([(Fraction(1, 4), Fraction(1, 3)), (2, Fraction(5, 2))])
    assert s.den == 12
    assert s.ends == (3, 4, 24, 30)
    assert s.translate(Fraction(1, 5)).den == 60
    assert s.translate(7).den == 12


# ------------------------------------------------ whole checks, both classes

LINE_CHECKS = {
    "disjointness": check_disjointness,
    "coverage": check_coverage,
    "boundary-containment": boundary_containment,
    "local-finiteness": lambda system, cfg: local_finiteness_profile(system, cfg)[0],
    "finite-self-adjacency": lambda system, cfg: fsa_check(system, cfg)[0],
}

GRID = (
    [("line-standard", None, 200)]
    + [("line-pathological", None, n) for n in (1, 2, 5, 17, 48)]
    + [("line-corrupted", None, 200)]
    + [("cylinder", c, 200) for c in ("1", "3/2", "2/3")]
)


def _system(kind, shift):
    if kind == "line-corrupted":
        return CorruptedLine()
    return make_system(kind, shift=Fraction(shift or 1))


def _reports(kind, shift, n):
    cfg = RunConfig(n_intervals=n)
    return {
        name: check(_system(kind, shift), cfg).to_dict()
        for name, check in LINE_CHECKS.items()
    }


@pytest.mark.parametrize("kind,shift,n", GRID)
def test_line_and_cylinder_reports_match_the_oracle(monkeypatch, kind, shift, n):
    fast = _reports(kind, shift, n)
    monkeypatch.setattr(regions, "IntervalSet", Oracle)
    monkeypatch.setattr(checker, "IntervalSet", Oracle)
    assert isinstance(_system("line-pathological", None).region(2), Oracle)
    assert isinstance(_system("cylinder", "2").region(), Oracle)
    slow = _reports(kind, shift, n)
    assert fast == slow
    if kind == "line-corrupted":
        assert fast["disjointness"]["verdict"] == checker.REFUTED
        assert fast["boundary-containment"]["witnesses"]
