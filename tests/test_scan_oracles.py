"""Free2house scans against the brute force they replaced.

``check_disjointness``, ``boundary_containment`` and
``Free2HouseSystem.overlapping_generators`` translate nothing: they read
each overlap g.s ∩ s off the set's ``meet_index``, built from the room
pairs of s.  Their oracles below translate the set by every element of
the ball (or by the reflection at every root), so agreement covers
completeness of the index, the counts, and the order and cap of the
witnesses.  The index itself is checked against translating s by each
room-pair candidate (``oracles.room_pair_candidates``) whose spine has
exponent sum 0, the only candidates that can be group elements.

``check_coverage`` decides each spine power once, on the three rooms of
its closed box.  Its oracle walks every room to the spine and tests that
room's own translated closed box, and the box decision is checked
against the union and containment of the translated closure.

The criterion-7 orbit representatives read the system's own closure, so
a shrunk closure leaves points without one.
"""

import json
from fractions import Fraction

import pytest

from fundreg import checker
from fundreg.action import (
    ActionElement,
    TrieBall,
    _decode,
    group_ball,
    room_reflection,
    walk_to_spine,
)
from fundreg.checker import (
    PROP_BOUNDARY,
    PROP_COVERAGE,
    PROP_DISJOINTNESS,
    REFUTED,
    VERIFIED,
    BudgetExceeded,
    Free2HouseSystem,
    RunConfig,
    VerificationReport,
    boundary_containment,
    check_coverage,
    check_disjointness,
)
from fundreg.freegroup import ReducedWord, enumerate_ball, r_power
from fundreg.tilespace import (
    ALL_ATOMS,
    Cell,
    RoomSet,
    canonical_point,
    materialize_cell,
)
from golden_cli import DATA, run
from oracles import (
    ball_depth,
    fold_member,
    orbit_representatives,
    reference_ball,
    room_pair_candidates,
)


_TRUE = Free2HouseSystem()


def capped(items, limit=8):
    """The first ``limit`` items and "...", or every item if ``limit`` is
    None."""
    if limit is None or len(items) <= limit:
        return items
    return items[:limit] + ["..."]


def scan_ball_in_witness_order(system, depth):
    """The nonidentity elements of the scan ball in the order witnesses are
    listed in: by reference layer, then by ``sort_key``."""
    ref = reference_ball(system.scan_root_len, depth)
    return sorted(
        ref.elements()[1:], key=lambda g: (ball_depth(ref, g), g.sort_key())
    )


def oracle_disjointness(system, cfg, limit=8):
    region = system.region(cfg.radius)
    checked = 0
    bad = []
    for g in scan_ball_in_witness_order(system, cfg.depth):
        checked += 1
        meet = region.translate(g).intersect(region)
        if not meet.is_empty():
            bad.append(f"{g.text()} overlaps: {'; '.join(meet.describe())}")
    return VerificationReport(
        PROP_DISJOINTNESS,
        REFUTED if bad else VERIFIED,
        {"depth": cfg.depth, "radius": cfg.radius},
        [checked, len(bad)],
        capped(bad, limit),
    )


def oracle_boundary(system, cfg, limit=8):
    closure = system.closure(cfg.radius)
    boundary = system.boundary(cfg.radius)
    checked = 0
    nonempty = 0
    bad = []
    for g in scan_ball_in_witness_order(system, cfg.depth):
        checked += 1
        meet = closure.translate(g).intersect(closure)
        if meet.is_empty():
            continue
        nonempty += 1
        spill = meet.difference(boundary)
        if not spill.is_empty():
            bad.append(
                f"{g.text()} meets the closure off the boundary: "
                f"{'; '.join(spill.describe())}"
            )
    return VerificationReport(
        PROP_BOUNDARY,
        REFUTED if bad else VERIFIED,
        {"depth": cfg.depth, "radius": cfg.radius},
        [checked, nonempty, len(bad)],
        capped(bad, limit),
    )


def oracle_overlapping_generators(system, horizon, radius):
    closure = system.closure(radius)
    hits = []
    for root in enumerate_ball(horizon):
        g = room_reflection(root)
        if not closure.intersect(closure.translate(g)).is_empty():
            hits.append((root, g))
    return hits


def oracle_coverage(system, cfg):
    rooms = system.rooms(cfg.radius)
    ext = system.closure(cfg.radius + 1)
    union_at = {}
    certificates = []
    failures = []
    for v in rooms:
        g, m = walk_to_spine(v)
        if m not in union_at:
            mirror = room_reflection(r_power(m))
            union_at[m] = ext.union(ext.translate(mirror))
        image = materialize_cell(v, Cell.CLOSED_BOX).translate(g)
        if union_at[m].contains(image):
            if len(certificates) < 6:
                certificates.append(
                    f"room {v.text() or 'e'}: walk {g.text()} lands on spine "
                    f"power {m}"
                )
        else:
            failures.append(f"room {v.text() or 'e'} escapes its walk cover")
    witnesses = capped(failures) if failures else certificates + [
        f"all {len(rooms)} rooms certified"
    ]
    return VerificationReport(
        PROP_COVERAGE,
        REFUTED if failures else VERIFIED,
        {"depth": cfg.depth, "radius": cfg.radius},
        [len(rooms), len(failures)],
        witnesses,
    )


class ClosureAsRegion(Free2HouseSystem):
    """The closure stands in for the open region: its translates touch
    along walls and diagonals, so disjointness must refute.  Closure and
    boundary stay those of the true region."""

    def region(self, radius):
        return _TRUE.closure(radius)

    def closure(self, radius):
        return _TRUE.closure(radius)

    def boundary(self, radius):
        return _TRUE.boundary(radius)


class Blob(Free2HouseSystem):
    """Whole rooms of the radius-2 word ball as region and closure, with
    no boundary: dozens of translates overlap and every overlap spills,
    so both scans refute past the witness cap."""

    def region(self, radius):
        return RoomSet({w: ALL_ATOMS for w in enumerate_ball(min(radius, 2))})

    closure = region

    def boundary(self, radius):
        return RoomSet()


class ShrunkClosure(Free2HouseSystem):
    """The closure three radii in: rooms near the edge of the ball lose
    their cover, so coverage must refute, past the witness cap."""

    def closure(self, radius):
        return _TRUE.closure(max(radius - 3, 0))


def quarter_grid_points_without_representative(system):
    """The points of the quarter grid, in the rooms of the radius-2 ball,
    with no translate in the system's closed region."""
    quarters = [Fraction(k, 4) for k in range(4)]
    points = [
        canonical_point(room, x, y)
        for room in enumerate_ball(2)
        for x in quarters
        for y in quarters
        if (x, y) != (0, 0)
    ]
    assert len(points) == 255
    return [p for p in points if not orbit_representatives(system, p)]


def test_orbit_representatives_read_the_system_closure():
    # every point of the true system has a representative; the shrunk
    # closure loses the rooms of length 1 and 2, so most points have none
    assert quarter_grid_points_without_representative(Free2HouseSystem()) == []
    assert len(quarter_grid_points_without_representative(ShrunkClosure())) == 168


@pytest.fixture(scope="module")
def f2():
    return Free2HouseSystem()


GRID = [(depth, radius) for depth in range(4) for radius in range(6)]


@pytest.mark.parametrize("depth,radius", GRID)
def test_disjointness_matches_whole_ball_scan(f2, depth, radius):
    cfg = RunConfig(depth=depth, radius=radius)
    assert check_disjointness(f2, cfg).to_dict() == oracle_disjointness(f2, cfg).to_dict()


@pytest.mark.parametrize("depth,radius", GRID)
def test_boundary_containment_matches_whole_ball_scan(f2, depth, radius):
    cfg = RunConfig(depth=depth, radius=radius)
    assert boundary_containment(f2, cfg).to_dict() == oracle_boundary(f2, cfg).to_dict()


@pytest.mark.parametrize("depth,radius", [(1, 1), (2, 3), (3, 5)])
def test_refuting_disjointness_keeps_witness_order(depth, radius):
    system = ClosureAsRegion()
    cfg = RunConfig(depth=depth, radius=radius)
    got = check_disjointness(system, cfg).to_dict()
    assert got["verdict"] == REFUTED
    assert got == oracle_disjointness(system, cfg).to_dict()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_refuting_scans_keep_witness_order_and_cap(depth):
    system = Blob()
    cfg = RunConfig(depth=depth, radius=2)
    disjoint = check_disjointness(system, cfg).to_dict()
    assert disjoint == oracle_disjointness(system, cfg).to_dict()
    boundary = boundary_containment(system, cfg).to_dict()
    assert boundary == oracle_boundary(system, cfg).to_dict()
    assert disjoint["verdict"] == boundary["verdict"] == REFUTED
    assert disjoint["witnesses"][-1] == boundary["witnesses"][-1] == "..."


def test_every_witness_is_listed_by_layer_then_sort_key(monkeypatch):
    # uncapped, the blob at depth 2 lists 49 witnesses in each scan; the
    # rank is (layer, sort_key) all the way, past the eight that print
    monkeypatch.setattr(checker, "_cap", list)
    system, cfg = Blob(), RunConfig(depth=2, radius=2)
    for check, oracle in (
        (check_disjointness, oracle_disjointness),
        (boundary_containment, oracle_boundary),
    ):
        got = check(system, cfg).to_dict()
        assert len(got["witnesses"]) == 49
        assert got == oracle(system, cfg, limit=None).to_dict()


@pytest.mark.parametrize("system", [_TRUE, ClosureAsRegion(), Blob()], ids=type)
def test_scans_look_up_only_members_of_h2(monkeypatch, system):
    # the scan ball holds only elements of H_2, so an index key outside it
    # (the fold decides, independently of the prefix test) is rejected
    # before any layer lookup; the reports are the oracles' either way
    looked = []
    depth_of = TrieBall.depth_of

    def recorded(self, letters, parity):
        looked.append(letters)
        return depth_of(self, letters, parity)

    monkeypatch.setattr(TrieBall, "depth_of", recorded)
    cfg = RunConfig(depth=3, radius=2 if isinstance(system, Blob) else 5)
    assert check_disjointness(system, cfg) == oracle_disjointness(system, cfg)
    assert boundary_containment(system, cfg) == oracle_boundary(system, cfg)
    assert looked and all(fold_member(letters, 2) for letters in looked)
    # the true closure's index holds the reflections at r^i, |i| <= 5,
    # outside H_2 from |i| = 3
    keys = [spine for spine, _ in _TRUE.meet_index(_TRUE.closure(5))]
    assert sum(not fold_member(spine, 2) for spine in keys) == 6


@pytest.mark.parametrize("radius", range(9))
def test_overlapping_generators_match_per_root_scan(f2, radius):
    for horizon in range(5):
        got = f2.overlapping_generators(horizon, radius)
        assert got[0][0] is None and got[0][1].is_identity()
        assert got[1:] == oracle_overlapping_generators(f2, horizon, radius)


# The scan ball holds its layers as tries; the same scans on a ball that
# holds every layer as packed keys must print the same reports, with
# witnesses that sit in the deepest layer in their order.
HELD_GRID = [(d, r) for d in range(5) for r in range(6)] + [(5, 0), (5, 1), (5, 2)]


@pytest.fixture(scope="module")
def held_scan_balls():
    return {}


def on_a_held_scan_ball(system, balls):
    """``system`` with its scan ball a ``GroupBall``."""

    def scan_ball(depth):
        if depth not in balls:
            balls[depth] = group_ball(enumerate_ball(system.scan_root_len), depth)
        return balls[depth]

    system.scan_ball = scan_ball
    return system


@pytest.mark.parametrize(
    "fixture", [Free2HouseSystem, ClosureAsRegion, Blob, ShrunkClosure]
)
@pytest.mark.parametrize("depth,radius", HELD_GRID)
def test_scans_on_the_trie_ball_match_the_held_ball(
    held_scan_balls, fixture, depth, radius
):
    cfg = RunConfig(depth=depth, radius=radius)
    tries, held = fixture(), on_a_held_scan_ball(fixture(), held_scan_balls)
    for check in (check_disjointness, boundary_containment):
        assert check(tries, cfg).to_dict() == check(held, cfg).to_dict()


def test_boundary_witnesses_sit_in_the_deepest_layer():
    # the grid above is not vacuous: at depth 1 the deepest layer is all of
    # the scan, boundary containment at radius 2 meets 5 translates there,
    # and the refuting blob lists several witnesses from it
    system = Free2HouseSystem()
    report = boundary_containment(system, RunConfig(depth=1, radius=2))
    assert report.counts[1] == 5
    assert system.scan_ball(1).layer_sizes() == [1, 17]
    blob = check_disjointness(Blob(), RunConfig(depth=1, radius=2))
    assert blob.verdict == REFUTED and len(blob.witnesses) > 1


def test_room_pair_candidates_are_distinct_and_bounded(f2):
    closure = f2.closure(8)
    cands = list(room_pair_candidates(closure))
    assert len(cands) == len(set(cands))
    assert len(cands) <= 2 * len(closure.rooms) ** 2


def translated_meets(s, candidates):
    """g.s ∩ s for each candidate g whose translate meets s."""
    meets = {g: s.translate(g).intersect(s) for g in candidates}
    return {g: meet for g, meet in meets.items() if not meet.is_empty()}


def index_meets(index):
    return {
        ActionElement(ReducedWord._trusted(spine), parity): RoomSet(rooms)
        for (spine, parity), rooms in index.items()
    }


def assert_index_matches_the_translates(system, s, depth):
    index = system.meet_index(s)
    every = translated_meets(s, room_pair_candidates(s))
    want = {g: meet for g, meet in every.items() if g.spine.exponent_sum() == 0}
    got = index_meets(index)
    assert got == want
    # what the index leaves out is no group element: its exponent sum is not 0
    assert all(g.spine.exponent_sum() != 0 for g in every.keys() - got.keys())
    # and the scan keeps exactly the nonidentity ball members among them
    ball, meets = system._ball_overlaps(s, depth)
    kept = {g: m for g, m in want.items() if not g.is_identity() and g in ball}
    assert dict(meets) == kept
    ranks = [(ball.depth_of(g.spine.letters, g.parity), g.sort_key()) for g, _ in meets]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("radius", range(9))
def test_meet_index_matches_translates_of_the_room_pair_candidates(f2, radius):
    assert_index_matches_the_translates(f2, f2.region(radius), 3)
    assert_index_matches_the_translates(f2, f2.closure(radius), 3)


@pytest.mark.parametrize("radius", range(9))
@pytest.mark.parametrize("fixture", [ClosureAsRegion, Blob])
def test_meet_index_of_refuting_sets_matches_the_translates(fixture, radius):
    system = fixture()
    for s in (system.region(radius), system.closure(radius)):
        assert_index_matches_the_translates(system, s, 2)


@pytest.mark.parametrize("radius", [*range(9), 16, 32])
def test_the_region_meets_only_itself_and_the_closure_its_spine_reflections(radius):
    # the counts of the whole-group verdicts: the open region's index is the
    # identity alone, and the closure's the identity plus the reflection
    # rooted at each spine room r^i, |i| <= R, 2R + 2 keys
    system = Free2HouseSystem()
    assert set(system.meet_index(system.region(radius))) == {((), 0)}
    mirrors = {
        (room_reflection(r_power(i)).spine.letters, 1)
        for i in range(-radius, radius + 1)
    }
    closure = system.meet_index(system.closure(radius))
    assert set(closure) == {((), 0)} | mirrors
    assert len(closure) == 2 * radius + 2


def test_every_enumerated_group_element_has_exponent_sum_zero(f2):
    # the invariant that lets the index pair only rooms of equal exponent
    # sum: the held layers of the scan and half balls, and the meeting
    # candidates of the default centres, all have spines of sum 0
    half = f2.half_ball(2)
    keys = [key for layer in half._reps for key in layer]
    keys += [key for k in range(5) for key in f2.scan_ball(4)._layer_keys(k)]
    assert len(keys) > 45_098
    assert all(_decode(key).spine.exponent_sum() == 0 for key in keys)
    centers = enumerate_ball(min(2, max(RunConfig().radius - 1, 0)))
    cands = [g for w in centers for g in f2.meeting_candidates(w)]
    assert len(cands) == 6 * len(centers)
    assert all(g.spine.exponent_sum() == 0 for g in cands)


@pytest.mark.parametrize("system", [_TRUE, ShrunkClosure()], ids=["true", "shrunk"])
def test_box_rooms_decide_containment_in_the_mirrored_cover(system):
    decided = []
    for radius in (3, 5, 8):
        ext = system.closure(radius + 1)
        for m in range(-9, 10):
            mirror = room_reflection(r_power(m))
            cover = ext.union(ext.translate(mirror))
            box = materialize_cell(r_power(m), Cell.CLOSED_BOX)
            decided.append(system._box_covered(ext, m))
            assert decided[-1] == cover.contains(box)
    # both answers occur, so the comparison is not vacuous
    assert set(decided) == {True, False}


@pytest.mark.parametrize("radius", range(9))
def test_coverage_matches_per_room_walks(f2, radius):
    cfg = RunConfig(radius=radius)
    assert check_coverage(f2, cfg).to_dict() == oracle_coverage(f2, cfg).to_dict()


@pytest.mark.parametrize(
    "radius,counts", [(3, [53, 24]), (5, [485, 96]), (7, [4373, 384])]
)
def test_refuting_coverage_keeps_witness_order_and_cap(radius, counts):
    system = ShrunkClosure()
    cfg = RunConfig(radius=radius)
    got = check_coverage(system, cfg).to_dict()
    assert got["verdict"] == REFUTED and got["counts"] == counts
    assert got["witnesses"][-1] == "..."
    assert got == oracle_coverage(system, cfg).to_dict()


def test_verified_coverage_builds_no_room_ball(monkeypatch):
    # Only the root list of the profile half balls (radius 3) may be
    # enumerated; every room ball of these runs has radius 5, 8 or 13.
    def guard(fn, limit):
        def guarded(*args):
            if args[-1] > limit:
                raise AssertionError(f"room ball of radius {args[-1]} built")
            return fn(*args)

        return guarded

    roots = Free2HouseSystem.profile_root_len
    monkeypatch.setattr(checker, "enumerate_ball", guard(enumerate_ball, roots))
    rooms = Free2HouseSystem.rooms
    monkeypatch.setattr(Free2HouseSystem, "rooms", guard(rooms, 2))
    golden = {
        " ".join(row["argv"]): (row["exit"], row["sha256"])
        for row in json.loads(DATA.read_text(encoding="utf-8"))
    }
    for argv in (
        "verify free2house --format json --depth 3 --radius 5",
        "verify free2house --property coverage --format json",
        # past radius 12, whose room ball is over budget
        "verify free2house --property coverage --radius 13 --format json",
    ):
        assert run(argv.split()) == golden[argv]
    # a failing coverage asks for its room ball, refused before enumerating
    monkeypatch.setattr(Free2HouseSystem, "rooms", rooms)
    with pytest.raises(BudgetExceeded, match="the room ball at radius 12"):
        check_coverage(ShrunkClosure(), RunConfig(radius=12))


def test_walks_carry_closed_boxes_onto_the_spine_power_of_the_exponent_sum(f2):
    for v in f2.rooms(8):
        g, m = walk_to_spine(v)
        assert m == v.exponent_sum()
        box = materialize_cell(v, Cell.CLOSED_BOX).translate(g)
        assert box == materialize_cell(r_power(m), Cell.CLOSED_BOX)
