"""The line system's shortcuts against the loops they replaced.

Finite self-adjacency tests the shifts of the last horizon once, and
only those below the inflated region's span, and counts every horizon
from them; the family's quotient compares integer endpoints; ``pathological_1d``
builds each endpoint as one integer product over lcm(1, ..., n + 1).  Each
is compared with the straightforward version in ``tests/oracles.py``, or
with the defining formula, report for report.
"""

from fractions import Fraction
from math import ceil, floor

import pytest

from fundreg.checker import (
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    LineSystem,
    PathologicalLineSystem,
    RunConfig,
    make_system,
)
from fundreg.regions import IntervalSet, pathological_1d
from oracles import (
    CorruptedLine,
    GappedLine,
    pairwise_line_quotient,
    pathological_interval,
    per_horizon_self_adjacency,
)

SCHEDULES = [(2, 3, 4, 5, 6), (1, 2, 3), (3, 7, 12)]

LINES = (
    [("line-standard", 200)]
    + [("line-pathological", n) for n in (1, 2, 5, 17, 48, 200)]
    + [("line-corrupted", 200)]
)


def _line(kind):
    return CorruptedLine() if kind == "line-corrupted" else make_system(kind)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
@pytest.mark.parametrize("kind,n", LINES)
def test_self_adjacency_matches_the_per_horizon_scan(kind, n, schedule):
    cfg = RunConfig(schedule=schedule, n_intervals=n)
    report, hits = _line(kind).finite_self_adjacency(cfg)
    want, want_hits = per_horizon_self_adjacency(_line(kind), cfg)
    assert report.to_dict() == want.to_dict()
    assert hits == want_hits


def _span_schedules(kind, n):
    """Schedules (1, 2, K) whose last horizon K lies below, at and above
    the span of the inflated region, where K > 2 allows it."""
    system = make_system(kind)
    ends = system.region(n).inflate(system.margin()).endpoints()
    span = ends[-1] - ends[0]
    lasts = {floor(span) - 1, floor(span), ceil(span), ceil(span) + 1}
    return [(kind, n, (1, 2, k)) for k in sorted(lasts) if k > 2]


SPAN_CASES = [
    case
    for kind in ("line-standard", "line-pathological")
    for n in (1, 2, 48, 200)
    for case in _span_schedules(kind, n) + [(kind, n, (2, 3, 4, 5, 6))]
]


@pytest.mark.parametrize("kind,n,schedule", SPAN_CASES)
def test_self_adjacency_below_the_span_matches_the_unbounded_scan(kind, n, schedule):
    cfg = RunConfig(schedule=schedule, n_intervals=n)
    report, hits = make_system(kind).finite_self_adjacency(cfg)
    want, want_hits = per_horizon_self_adjacency(make_system(kind), cfg)
    assert report.to_dict() == want.to_dict()
    assert hits == want_hits


def test_self_adjacency_translates_only_below_the_span(monkeypatch):
    shifts = []
    translate = IntervalSet.translate

    def recorded(self, shift):
        shifts.append(shift)
        return translate(self, shift)

    monkeypatch.setattr(IntervalSet, "translate", recorded)
    cfg = RunConfig(schedule=(1, 2, 10**6))
    report, hits = LineSystem().finite_self_adjacency(cfg)
    # the inflated interval [-1/4, 5/4] is 3/2 wide
    assert shifts == [-1, 0, 1] and hits == [-1, 0, 1]
    assert report.counts == [3, 3, 3]


def _quotients(system, n):
    cfg = RunConfig(n_intervals=n)
    report, desc = system.quotient(cfg)
    want, want_desc = pairwise_line_quotient(system, cfg)
    assert report.to_dict() == want.to_dict()
    assert desc.to_dict() == want_desc.to_dict()
    return report


@pytest.mark.parametrize("n", [1, 2, 200])
def test_integer_quotient_matches_the_fraction_pairs(n):
    # one tile has no gluing to test
    want = INCONCLUSIVE if n == 1 else VERIFIED
    assert _quotients(PathologicalLineSystem(), n).verdict == want


@pytest.mark.parametrize("gap", [1, 3, 100])
def test_integer_quotient_refutes_a_missing_tile_with_the_same_witnesses(gap):
    report = _quotients(GappedLine(gap), 200)
    # the tiles on either side of the hole are now tiles gap - 1 and gap
    assert report.verdict == REFUTED
    assert report.witnesses == [f"tiles {gap - 1} and {gap} fail to glue"]


def test_pathological_interval_matches_the_defining_formula():
    for n in range(500):
        lo, hi = pathological_interval(n)
        assert (lo, hi) == (n + Fraction(n, n + 1), n + Fraction(n + 1, n + 2))
        assert (type(lo), type(hi)) == (Fraction, Fraction)


def test_pathological_1d_matches_the_fraction_pair_build():
    # one growing Fraction-pair set: tile n - 1 joins it at step n
    pairs = []
    for n in range(1, 301):
        pairs.append(pathological_interval(n - 1))
        want = IntervalSet(pairs)
        got = pathological_1d(n)
        assert (got.den, got.ends) == (want.den, want.ends), n
    for n in (0, -1, -7):
        with pytest.raises(ValueError, match="^need at least one interval$"):
            pathological_1d(n)
