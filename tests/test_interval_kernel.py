"""The integer-endpoint ``IntervalSet`` against the Fraction-pair oracle.

Every public operation is compared on random inputs with mixed
denominators, including the errors raised for bad input; then the line
and cylinder checks are run on both classes and their reports compared
whole, witness text included.
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
    assert a.intersects(b) == a0.intersects(b0)
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
    assert isinstance(_system("cylinder", "2").band(), Oracle)
    slow = _reports(kind, shift, n)
    assert fast == slow
    if kind == "line-corrupted":
        assert fast["disjointness"]["verdict"] == checker.REFUTED
        assert fast["boundary-containment"]["witnesses"]
