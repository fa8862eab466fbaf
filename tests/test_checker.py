"""Checker operations against independent oracles.

The six-candidate enumeration is validated by a brute-force scan over a
whole group ball; minimum reflection depths are validated by an oracle
that splits products differently from the implementation; interval and
plane counts are validated against closed forms derived by hand.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fundreg.action import GroupBall, identity, room_reflection
from fundreg import checker, regions
from fundreg.checker import (
    BUDGET,
    EXIT_CODES,
    BudgetExceeded,
    INCONCLUSIVE,
    REFUTED,
    VERIFIED,
    CylinderSystem,
    Free2HouseSystem,
    LineSystem,
    PathologicalLineSystem,
    PlanePathologicalSystem,
    RunConfig,
    VerificationReport,
    battery_exit_code,
    boundary_containment,
    check_coverage,
    check_disjointness,
    compactness_proxy,
    fixed_point_search,
    fsa_check,
    fsa_implies_lf_audit,
    local_finiteness_profile,
    make_system,
    orbit_boundary_finiteness,
    profile_verdict,
    quotient_build,
    run_battery,
    stabilized,
)
from fundreg.freegroup import (
    ball_size,
    enumerate_ball,
    r_power,
    spine_exponent,
    u_power,
    word,
)
from fundreg.regions import IntervalSet, format_fraction, plane2d_translate_meets_box
from fundreg.tilespace import canonical_point, neighborhood_roomset
from oracles import (
    CorruptedLine,
    FiberBand,
    ball_depth,
    closed_atoms,
    fold_member,
    in_closed_region,
    normalize_representative,
    orbit_representatives,
    plane2d_closure_membership,
    plane2d_membership,
    reference_half_ball,
    reference_meeting_candidates,
    recording_tries,
    reference_min_depth,
    representative_class_count,
)


@pytest.fixture(scope="module")
def f2():
    return Free2HouseSystem()


@pytest.fixture(scope="module")
def small_cfg():
    return RunConfig(depth=3, radius=6)


# ------------------------------------------------------- report plumbing


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(schedule=(1, 2))
    with pytest.raises(ValueError):
        RunConfig(schedule=(1, 2, 2))
    with pytest.raises(ValueError):
        RunConfig(depth=-1)
    with pytest.raises(ValueError):
        RunConfig(n_intervals=0)


def test_profile_verdict_rules():
    assert stabilized([4, 6, 6, 6, 6])
    assert profile_verdict([4, 6, 6, 6, 6]) == VERIFIED
    assert profile_verdict([4, 6, 8, 10]) == REFUTED
    assert profile_verdict([4, 6, 6, 8, 9]) == INCONCLUSIVE
    # a falling count fits neither rule, even with a stable tail
    assert profile_verdict([4, 3, 3]) == INCONCLUSIVE
    assert profile_verdict([4, 3, 3, 3]) == INCONCLUSIVE


def test_report_shape_and_exit_codes():
    rep = VerificationReport("coverage", VERIFIED, {"depth": 4, "radius": 8}, [1], [])
    data = rep.to_dict()
    assert sorted(data) == ["counts", "property", "truncation", "verdict", "witnesses"]
    assert sorted(data["truncation"]) == ["depth", "radius"]
    assert rep.exit_code == 0
    assert EXIT_CODES[REFUTED] == 1 and EXIT_CODES[INCONCLUSIVE] == 2


def test_make_system_rejects_unknown():
    with pytest.raises(KeyError):
        make_system("moebius")


# ------------------------------------- candidate completeness (brute force)


def brute_meeting_set(system, center, ball, radius):
    """Every ball element whose closure translate meets the neighbourhood."""
    nbhd = neighborhood_roomset(center, radius)
    closure = system.closure(radius)
    hits = []
    for g in ball:
        if not closure.translate(g).intersect(nbhd).is_empty():
            hits.append(g)
    return {g.sort_key() for g in hits}


@pytest.mark.parametrize("center_text", ["", "r", "uu", "rU"])
def test_six_candidates_match_brute_force(f2, center_text):
    center = word(center_text)
    ball = f2.scan_ball(3)
    expected = brute_meeting_set(f2, center, ball, radius=6)
    cands = f2.meeting_candidates(center)
    assert len(cands) == 6
    in_ball = {g.sort_key() for g in cands if g in ball}
    assert in_ball == expected


def test_meeting_candidates_match_the_word_formula(f2):
    for center in enumerate_ball(4) + (word("rurur"),):
        assert f2.meeting_candidates(center) == reference_meeting_candidates(center)


def test_candidates_identity_membership(f2):
    # the identity translate meets the neighbourhood exactly when a
    # closure room sits in the five-room patch: center, center*u, or
    # center*u^-1 must be a spine power
    for text, expected in [
        ("", True),
        ("r", True),
        ("u", True),
        ("ru", True),
        ("rU", True),
        ("uu", False),
        ("UU", False),
        ("uur", False),
    ]:
        center = word(text)
        has_id = any(g.is_identity() for g in f2.meeting_candidates(center))
        assert has_id is expected, text


# --------------------------------------------------- minimum reflection depth


def oracle_min_depth(g, bound=6):
    """A direct lookup in a depth-3 ball of its own, then the splits
    (2,2), (2,3), (3,3) with the right factor looked up in that ball.  An
    element outside H_3, by the fold, has no depth and skips the splits."""
    half = reference_half_ball()
    direct = ball_depth(half, g)
    if direct is not None or not fold_member(g.spine.letters, 3):
        return direct
    for total in range(4, bound + 1):
        left = total // 2  # (2,2), (2,3), (3,3): both halves within reach
        limit = total - left
        for a in half.layer(left):
            rest = ball_depth(half, a.inverse() * g)
            if rest is not None and rest <= limit:
                return total
    return None


def test_min_depth_matches_oracle_on_products(f2):
    rng = random.Random(20260817)
    roots = enumerate_ball(3)
    cases = []
    for n_factors in (2, 3, 4, 4, 4, 5, 5, 6, 6, 6):
        g = identity()
        for _ in range(n_factors):
            g = g * room_reflection(rng.choice(roots))
        cases.append(g)
    depths = [f2.candidate_min_depth(g, 6) for g in cases]
    assert depths == [oracle_min_depth(g) for g in cases]
    assert depths == [reference_min_depth(g) for g in cases]
    assert {4, 5, 6} <= set(depths)


def test_min_depth_matches_the_reference_on_the_half_ball_and_at_rurur(f2):
    # every element of layers 0-2, a sample of layer 3, and the six
    # candidates at rurur, five of them deeper than the cap or outside
    # the group
    half = reference_half_ball()
    cases = [g for k in range(3) for g in half.layer(k)]
    cases += random.Random(20261018).sample(half.layer(3), 2000)
    for g in cases:
        assert f2.candidate_min_depth(g, 6) == ball_depth(half, g), g
    rurur = f2.meeting_candidates(word("rurur"))
    depths = [f2.candidate_min_depth(g, 6) for g in rurur]
    assert depths == [reference_min_depth(g) for g in rurur]
    assert depths.count(None) == 5


def test_min_depth_rejects_a_non_member_before_any_lookup(monkeypatch):
    # five of the six candidates at rurur lie outside H_3 (the fold says
    # so, independently of the prefix test), and none builds or reads a
    # half ball
    system = Free2HouseSystem()
    rurur = system.meeting_candidates(word("rurur"))
    outside = [g for g in rurur if not fold_member(g.spine.letters, 3)]
    assert len(outside) == 5
    lookups = []
    monkeypatch.setattr(GroupBall, "depth_of", lambda *args: lookups.append(args))
    assert [system.candidate_min_depth(g, 6) for g in outside] == [None] * 5
    assert lookups == []
    assert not any(key[0] == "half ball" for key in system._memo)


def test_the_default_candidates_have_depths_0_to_4(f2):
    # the 102 candidates of the 17 default centers, by minimum depth
    cands = [g for w in enumerate_ball(2) for g in f2.meeting_candidates(w)]
    depths = Counter(f2.candidate_min_depth(g, 6) for g in cands)
    assert len(cands) == 102
    assert depths == {0: 11, 1: 35, 2: 38, 3: 16, 4: 2}


def test_min_depth_parity_invariant(f2):
    # a product of t reflections always has parity t mod 2
    rng = random.Random(7)
    roots = enumerate_ball(3)
    for _ in range(10):
        t = rng.randint(1, 5)
        g = identity()
        for _ in range(t):
            g = g * room_reflection(rng.choice(roots))
        found = f2.candidate_min_depth(g, 6)
        assert found is not None
        assert found % 2 == g.parity


def test_min_depth_respects_bound(f2):
    g = room_reflection(word("r")) * room_reflection(word("u"))
    exact = f2.candidate_min_depth(g, 6)
    assert exact == 2
    assert f2.candidate_min_depth(g, 1) is None


# ----------------------------------------------------------- tiled-space ops


def test_disjointness_free2house(f2, small_cfg):
    rep = check_disjointness(f2, small_cfg)
    assert rep.verdict == VERIFIED
    assert rep.counts == [len(f2.scan_ball(3)) - 1, 0]


def test_coverage_free2house_certificates(f2):
    rep = check_coverage(f2, RunConfig(depth=3, radius=4))
    assert rep.verdict == VERIFIED
    assert rep.counts[0] == len(enumerate_ball(4))
    assert rep.counts[1] == 0
    assert any("certified" in w for w in rep.witnesses)


def _traced_peak(run) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _recorded_needs(monkeypatch) -> dict[str, int]:
    """The byte estimates handed to ``refuse_over_budget``, by what."""
    needs = {}
    refuse = checker.refuse_over_budget

    def recorded(need, what):
        needs[what] = need
        refuse(need, what)

    monkeypatch.setattr(checker, "refuse_over_budget", recorded)
    return needs


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_scan_ball_estimate_bounds_the_traced_peak(depth):
    system = Free2HouseSystem()
    peak = _traced_peak(lambda: system.scan_ball(depth))
    assert peak <= system.scan_ball_estimate(depth)


def test_scan_ball_budget_admits_depth_6_only(f2):
    # estimates only: the depth-7 ball is never built
    assert f2.scan_ball_estimate(6) <= BUDGET < f2.scan_ball_estimate(7)


def test_room_ball_estimate_bounds_the_traced_peak(monkeypatch):
    needs = _recorded_needs(monkeypatch)
    for radius in range(10):
        peak = _traced_peak(lambda: Free2HouseSystem().rooms(radius))
        assert peak <= needs[f"the room ball at radius {radius}"], radius


@pytest.mark.parametrize("radius", [8, 16, 32])
def test_meet_index_estimate_bounds_the_traced_peak(monkeypatch, radius):
    needs = _recorded_needs(monkeypatch)
    system = Free2HouseSystem()
    closure = system.closure(radius)
    peak = _traced_peak(lambda: system.meet_index(closure))
    assert peak <= needs[f"the meet index of {len(closure.rooms)} rooms"]


@pytest.mark.parametrize("radius", [1, 8, 50, 100])
def test_spine_estimate_bounds_the_region_and_the_quotient(radius):
    system = Free2HouseSystem()
    peak = _traced_peak(lambda: system.boundary(radius))
    assert peak <= system.spine_estimate(radius)
    cfg = RunConfig(radius=radius)
    peak = _traced_peak(lambda: Free2HouseSystem().quotient(cfg))
    assert peak <= system.spine_estimate(radius)


def test_line_scan_budget_admits_the_defaults():
    # estimates only: nothing over the budget is built
    family = PathologicalLineSystem()
    for n in (48, 200, 4 * 6):
        assert family.scan_estimate(n) <= BUDGET
    # the largest family the budget admits
    assert family.scan_estimate(6461) <= BUDGET < family.scan_estimate(6462)
    assert LineSystem().scan_estimate(200) < family.scan_estimate(200)


def test_line_scan_estimate_bounds_the_coverage_union():
    family = PathologicalLineSystem()
    peak = _traced_peak(lambda: check_coverage(family, RunConfig(n_intervals=40)))
    assert peak <= family.scan_estimate(40)
    # the whole battery, shift sweeps included, on a fresh system each time
    for n in (40, 200, 395, 800):
        cfg = RunConfig(n_intervals=n, m_range=max(200, n))
        peak = _traced_peak(lambda: run_battery(PathologicalLineSystem(), cfg))
        assert peak <= family.scan_estimate(n), n


def test_line_scan_over_budget_is_refused_before_building(monkeypatch):
    family = PathologicalLineSystem()
    built = []
    family_of = checker.pathological_1d

    def recorded(count):
        if count > 6461:
            raise AssertionError("built a region over the budget")
        built.append(count)
        return family_of(count)

    monkeypatch.setattr(checker, "pathological_1d", recorded)
    # just over the budget: 6,462 intervals, or horizon 1,616 (4 each)
    with pytest.raises(BudgetExceeded, match="6462 intervals"):
        family.region(6462)
    with pytest.raises(BudgetExceeded, match="6462 intervals"):
        run_battery(family, RunConfig(n_intervals=6462))
    assert built == []
    # the battery is refused at the first region over budget: the horizon's
    with pytest.raises(BudgetExceeded, match="at 6464 intervals"):
        run_battery(family, RunConfig(n_intervals=8, schedule=(1, 2, 1616)))
    assert built == [8, 4]


def test_scan_ball_over_budget_is_refused_before_building(monkeypatch):
    built = recording_tries(monkeypatch)
    system = Free2HouseSystem()
    with pytest.raises(BudgetExceeded, match="the scan ball at depth 7"):
        system.scan_ball(7)
    assert ("scan ball", 7) not in system._memo
    # only the depth-2 ball the estimate reads its layer sizes from
    assert built == [("start", enumerate_ball(2), 2)]
    assert len(system.scan_ball(2)) == 250
    assert built[1:] == [("to_depth", 2)]


def test_scan_counts_pass_a_machine_word_at_depth_17(monkeypatch):
    # the scans count the ball by its layer sizes, so a count past
    # 2 ** 63 - 1, which ``len`` refuses, still reaches the report once
    # the depth-7 cap is lifted
    system = Free2HouseSystem()
    monkeypatch.setattr(system, "scan_ball_estimate", lambda depth: 0)
    sizes = system.scan_ball(17).layer_sizes()
    assert sizes[:7] == [1, 17, 232, 3112, 41736, 559752, 7507240]
    # layers 2 to 7 fix s_n = 13 s_(n-1) + 5 s_(n-2) + 7 s_(n-3); the ten
    # layers past them must keep to it
    assert sizes[7] == 100_685_032
    assert all(
        sizes[n] == 13 * sizes[n - 1] + 5 * sizes[n - 2] + 7 * sizes[n - 3]
        for n in range(5, 18)
    )
    total = sum(sizes)
    assert total == 20_486_300_987_926_144_658 > 2**64
    with pytest.raises(OverflowError):
        len(system.scan_ball(17))
    cfg = RunConfig(depth=17, radius=1)
    assert check_disjointness(system, cfg).counts == [total - 1, 0]
    assert boundary_containment(system, cfg).counts == [total - 1, 3, 0]


def test_room_ball_over_budget_is_refused_before_enumerating(monkeypatch):
    # radius 12 would hold about 260 MiB of rooms
    radii = []

    def counted(radius):
        radii.append(radius)
        return enumerate_ball(radius)

    monkeypatch.setattr(checker, "enumerate_ball", counted)
    system = Free2HouseSystem()
    refused = "the room ball at radius 12 needs about 259.5 MiB"
    with pytest.raises(BudgetExceeded, match=refused):
        fixed_point_search(system, RunConfig(radius=12), identity())
    # a coverage that fails (here on the rooms of exponent sum 0) enumerates
    # the room ball; a battery runs until then, its scan ball built
    monkeypatch.setattr(Free2HouseSystem, "_box_covered", lambda self, ext, m: m)
    with pytest.raises(BudgetExceeded, match=refused):
        check_coverage(system, RunConfig(depth=1, radius=12))
    with pytest.raises(BudgetExceeded, match=refused):
        run_battery(Free2HouseSystem(), RunConfig(depth=1, radius=12))
    assert 12 not in radii
    rep = check_coverage(system, RunConfig(depth=1, radius=3))
    assert rep.verdict == REFUTED and rep.counts == [53, 5]
    rep = fixed_point_search(system, RunConfig(radius=3), identity())
    assert rep.counts == [53, 53]


def test_boundary_containment_free2house(f2, small_cfg):
    rep = boundary_containment(f2, small_cfg)
    assert rep.verdict == VERIFIED
    # depth-3 ball holds exactly the five spine reflections that touch
    assert rep.counts[1] == 5
    assert rep.counts[2] == 0


def test_local_finiteness_profiles_free2house(f2, small_cfg):
    rep, profiles = local_finiteness_profile(f2, small_cfg)
    assert rep.verdict == VERIFIED
    assert len(profiles) == len(enumerate_ball(2))
    assert profiles["uu"] == [4, 6, 6, 6, 6]
    for counts in profiles.values():
        assert counts[-1] == 6
        assert stabilized(counts)
    assert rep.counts == [sum(p[i] for p in profiles.values()) for i in range(5)]


def test_local_finiteness_needs_room(f2):
    with pytest.raises(ValueError):
        f2.local_finiteness(RunConfig(depth=3, radius=2), [word("uu")])


def test_local_finiteness_past_the_depth_cap_is_inconclusive(f2):
    # five of the six candidates at rurur are deeper than the exact depth
    # cap of 6 (or outside the group): the count of 1 is stable only
    # because of the cap
    cfg = RunConfig(radius=6, schedule=tuple(range(2, 13)))
    rep, profiles = f2.local_finiteness(cfg, [word("rurur")])
    assert profiles["rurur"] == [0] + [1] * 10
    assert rep.verdict == INCONCLUSIVE
    assert rep.witnesses[-1] == (
        "5 candidates unresolved: minimum depths are exact only up to 6 "
        "reflections, and horizon 12 is past that cap"
    )
    # up to the cap the same counts are exact
    rep, _ = f2.local_finiteness(RunConfig(radius=6), [word("rurur")])
    assert rep.verdict == VERIFIED and rep.counts == [0, 1, 1, 1, 1]
    # the default centers resolve every candidate, past the cap too
    cfg = RunConfig(depth=3, radius=5, schedule=(2, 4, 6, 8))
    rep, _ = local_finiteness_profile(f2, cfg)
    assert rep.verdict == VERIFIED


def test_fsa_free2house_growth(f2):
    cfg = RunConfig(depth=3, radius=6, schedule=(1, 2, 3, 4))
    rep, hits = fsa_check(f2, cfg)
    assert rep.verdict == REFUTED
    assert rep.counts == [4, 6, 8, 10]
    spines = sorted(g.spine.text() for g in hits if g.parity == 1)
    for i in (1, 2, 3, 4):
        assert r_power(i) * u_power(-i) in [g.spine for g in hits]
    assert len(hits) == len(set(g.sort_key() for g in hits))
    assert any("g[rrrr]" in w for w in rep.witnesses)
    assert spines  # parity-one overlaps exist


def test_fsa_free2house_only_spine_roots(f2, small_cfg):
    hits = f2.overlapping_generators(horizon=3, radius=6)
    roots = [root for root, _ in hits if root is not None]
    assert all(spine_exponent(root) is not None for root in roots)
    assert len(hits) == 2 * 3 + 2


def test_quotient_free2house(f2, small_cfg):
    rep, desc = quotient_build(f2, small_cfg)
    assert rep.verdict == VERIFIED
    assert desc.compact is False
    assert len(desc.pieces) == 13
    assert len(desc.identifications) == 12
    assert all(d["orientation"] == "t -> t" for d in desc.identifications)
    assert desc.identifications[6]["via"] == "g[e]"
    assert rep.counts[-1] == 0


def test_fixed_point_search_free2house(f2, small_cfg):
    rep = fixed_point_search(f2, small_cfg, identity())
    assert rep.counts[0] == rep.counts[1]

    rep = fixed_point_search(f2, small_cfg, room_reflection(word("r")))
    assert rep.counts[1] == 1
    assert "room r" in rep.witnesses[0]

    slide = f2.meeting_candidates(word("u"))[0]  # some parity-0 candidate
    moved = [g for g in f2.meeting_candidates(word("u")) if g.parity == 0 and not g.is_identity()]
    rep = fixed_point_search(f2, small_cfg, moved[0])
    assert rep.counts[1] == 0


# ----------------------------------------------------- orbit representatives


def test_orbit_representatives_unique_classes(f2):
    grid = [Fraction(a, 5) for a in range(5)]
    rooms = [word(t) for t in ["", "r", "u", "R", "U"]]
    for room in rooms:
        for x in grid:
            for y in grid:
                if (x, y) == (0, 0):
                    continue
                p = canonical_point(room, x, y)
                reps = orbit_representatives(f2, p)
                assert reps, f"no representative for {p.text()}"
                assert representative_class_count(f2, reps) == 1


def test_orbit_representative_wall_pair(f2):
    p = canonical_point(word("u"), Fraction(1, 4), Fraction(0))
    reps = orbit_representatives(f2, p)
    texts = [q.text() for q in reps]
    assert texts == ["(r, 0, 1/4)", "(u, 1/4, 0)"]
    normalized = {normalize_representative(f2, q).text() for q in reps}
    assert len(normalized) == 1


def test_closed_atoms_of_the_closure_match_the_drawn_table(f2):
    # closure(len(room)) is the only closure the criterion-7 helpers read
    for room in enumerate_ball(6):
        assert f2.closure(len(room)).atoms_at(room) == closed_atoms(room), room.text()
        # and a wider closure adds no atom to the room
        assert f2.closure(len(room) + 2).atoms_at(room) == closed_atoms(room)


def test_in_closed_region_examples(f2):
    def closed(room, x, y):
        return in_closed_region(f2, canonical_point(word(room), x, y))

    assert closed("rr", Fraction(1, 3), Fraction(1, 2))
    assert closed("ru", Fraction(1, 2), Fraction(0))
    assert not closed("r", Fraction(1, 2), Fraction(1, 3))
    assert not closed("ur", Fraction(1, 2), Fraction(0))


# ------------------------------------------------------------------ line ops


def test_line_standard_battery_values():
    cfg = RunConfig()
    ls = make_system("line-standard")
    rep, profiles = local_finiteness_profile(ls, cfg)
    assert rep.verdict == VERIFIED and rep.counts == [2] * 5
    rep, overlap = fsa_check(ls, cfg)
    assert rep.verdict == VERIFIED and overlap == [-1, 0, 1]
    rep = fsa_implies_lf_audit(ls, cfg)
    assert rep.verdict == VERIFIED and rep.counts == [25, 3, 3]
    rep = orbit_boundary_finiteness(ls, cfg)
    assert rep.counts == [2]


def test_line_corrupted_disjointness_refuted():
    cfg = RunConfig()
    rep = check_disjointness(CorruptedLine(), cfg)
    assert rep.verdict == REFUTED
    assert any("m = 1" in w and "(1, 3/2)" in w for w in rep.witnesses)


def test_line_corrupted_boundary_refuted():
    rep = boundary_containment(CorruptedLine(), RunConfig())
    assert rep.verdict == REFUTED


def test_line_pathological_counts_match_closed_forms():
    cfg = RunConfig()
    lp = make_system("line-pathological")
    rep, _ = local_finiteness_profile(lp, cfg)
    # hand count: shift by 1 reaches the window, plus one shift per tile
    # index from k-1 up to 4k-1
    assert rep.counts == [3 * k + 2 for k in cfg.schedule]
    assert rep.verdict == REFUTED

    rep, overlap = fsa_check(lp, cfg)
    assert rep.counts == [2 * k + 1 for k in cfg.schedule]
    assert rep.verdict == REFUTED


def test_line_pathological_coverage_threshold():
    # window [0, 1 - 1/k] needs at least k - 1 tiles
    k = 9
    cfg_enough = RunConfig(n_intervals=k - 1, schedule=(2, 3, k))
    cfg_short = RunConfig(n_intervals=k - 2, schedule=(2, 3, k))
    lp = make_system("line-pathological")
    assert check_coverage(lp, cfg_enough).verdict == VERIFIED
    rep = check_coverage(lp, cfg_short)
    assert rep.verdict == REFUTED
    assert any("uncovered point" in w for w in rep.witnesses)


def test_line_quotients():
    cfg = RunConfig(n_intervals=12)
    rep, desc = quotient_build(make_system("line-standard"), cfg)
    assert rep.verdict == VERIFIED and desc.compact is True
    rep, desc = quotient_build(make_system("line-pathological"), cfg)
    assert rep.verdict == VERIFIED and desc.compact is False
    assert rep.counts[0] == 12


def test_quotient_gluing_is_computed_from_the_region(monkeypatch):
    # the generator carries 0 to 1, not onto the right end 3/2
    line = make_system("line-standard")
    monkeypatch.setattr(line, "region", lambda n: IntervalSet([(0, Fraction(3, 2))]))
    rep, desc = quotient_build(line, RunConfig())
    assert rep.verdict == REFUTED
    assert rep.witnesses == ["gluing m = 1 maps 0 to 1, not to the right end 3/2"]
    assert desc.pieces == ["[0, 3/2]"]

    band = make_system("cylinder", shift=Fraction(3, 2))
    monkeypatch.setattr(band, "region", lambda *_: IntervalSet([(0, 2)]))
    rep, _ = quotient_build(band, RunConfig())
    assert rep.verdict == REFUTED
    assert rep.witnesses == [
        "gluing m = 1 maps the 0 section to the 3/2 section, not to the upper edge 2"
    ]


# ----------------------------------------------------------------- plane ops


def test_plane_disjointness_and_boundary():
    cfg = RunConfig()
    pp = make_system("plane-pathological")
    assert check_disjointness(pp, cfg).verdict == VERIFIED
    assert boundary_containment(pp, cfg).verdict == VERIFIED


def oracle_plane_disjointness(pp, member=plane2d_membership):
    """The full scan of every shift (m, n) with |m|, |n| <= 10, by the
    membership predicate ``member`` of ``pp``'s band."""
    points = pp.sample_points()
    reach = 10
    checked = 0
    bad = []
    for x, y in points:
        for m in range(-reach, reach + 1):
            for n in range(-reach, reach + 1):
                if m == 0 and n == 0:
                    continue
                checked += 1
                if member(x - m, y - n):
                    bad.append(
                        f"({format_fraction(x)}, {format_fraction(y)}) "
                        f"also lies in the ({m}, {n}) translate"
                    )
    return VerificationReport(
        "disjointness",
        REFUTED if bad else VERIFIED,
        {"depth": None, "radius": reach},
        [len(points), checked, len(bad)],
        bad[:8] + ["..."] if len(bad) > 8 else bad,
    )


def test_plane_disjointness_matches_the_full_shift_scan():
    pp = PlanePathologicalSystem()
    got = check_disjointness(pp, RunConfig()).to_dict()
    assert got["counts"] == [44, 19360, 0]
    assert got == oracle_plane_disjointness(pp).to_dict()
    # a band three units tall, with the same chart strip, meets its
    # (0, n) translates for |n| <= 2
    tall = FiberBand(3)
    got = check_disjointness(tall, RunConfig()).to_dict()
    assert got["verdict"] == REFUTED and got["witnesses"][-1] == "..."
    assert got["counts"] == [44, 19360, 88]
    assert got == oracle_plane_disjointness(tall, tall.member).to_dict()


def test_plane_disjointness_lists_the_shifts_of_every_fiber_interval_in_order():
    # t = 1/5 meets the (0, n) translate of (-1, 1/2) for n in {0, 1}, and
    # that of (1/2, 3) for n in {-2, -1}: the higher interval's shifts
    # come first
    split = FiberBand(pairs=[(-1, Fraction(1, 2)), (Fraction(1, 2), 3)])
    got = check_disjointness(split, RunConfig()).to_dict()
    assert got["witnesses"][:3] == [
        f"(1/12, 61/5) also lies in the (0, {n}) translate" for n in (-2, -1, 1)
    ]
    assert got == oracle_plane_disjointness(split, split.member).to_dict()
    # a band that misses a sample point is refused before any verdict
    with pytest.raises(AssertionError, match="must lie in the region"):
        check_disjointness(FiberBand(Fraction(1, 2)), RunConfig())


def test_plane_lf_counts_have_witness_points():
    cfg = RunConfig(schedule=(2, 3, 4))
    pp = PlanePathologicalSystem()
    rep, _ = local_finiteness_profile(pp, cfg)
    assert rep.verdict == REFUTED or rep.counts[0] < rep.counts[-1]
    # every claimed meeting pair at k=2 admits a rational witness point
    k = 2
    half = Fraction(1, k)
    cx, cy = pp.lf_center()
    for m in range(-2, 3):
        for n in range(-8 * k, 8 * k + 1):
            if not plane2d_translate_meets_box(m, n, half, center=(cx, cy)):
                continue
            # solve for a chart coordinate whose fiber crosses the window,
            # then certify the concrete point independently
            w_lo, w_hi = cy - half - n, cy + half - n
            assert w_hi > 0, f"impossible fiber for shift ({m}, {n})"
            x_lo = max(cx - half - m, Fraction(0))
            x_hi = min(cx + half - m, Fraction(1))
            a = max(x_lo, 1 / w_hi)
            b = min(x_hi, 1 / (w_lo - 1)) if w_lo > 1 else x_hi
            assert a < b, f"empty chart slice for shift ({m}, {n})"
            x_chart = (a + b) / 2
            fiber_lo = max(1 / x_chart, w_lo)
            fiber_hi = min(1 / x_chart + 1, w_hi)
            assert fiber_lo < fiber_hi, f"fiber misses window at ({m}, {n})"
            y_chart = (fiber_lo + fiber_hi) / 2
            assert plane2d_closure_membership(x_chart, y_chart)
            bx, by = x_chart + m, y_chart + n
            assert abs(bx - cx) < half and abs(by - cy) < half


def test_plane_local_finiteness_tests_no_shift_pair(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("tested a shift pair")

    monkeypatch.setattr(checker, "plane2d_translate_meets_box", never)
    monkeypatch.setattr(regions, "plane2d_translate_meets_box", never)
    rep, counts = local_finiteness_profile(
        PlanePathologicalSystem(), RunConfig(schedule=(1, 2, 3))
    )
    assert rep.counts == [10, 9, 12] and counts == {"(0, 1/2)": [10, 9, 12]}


def test_plane_fsa_refuted_via_local_profile():
    rep, _ = fsa_check(PlanePathologicalSystem(), RunConfig())
    assert rep.verdict == REFUTED
    assert any("grows" in w for w in rep.witnesses)


def test_plane_fsa_witness_follows_the_local_verdict():
    # counts [10, 9, 12] fall, then rise: the witness must not say "grows"
    rep, _ = fsa_check(PlanePathologicalSystem(), RunConfig(schedule=(1, 2, 3)))
    assert rep.counts == [10, 9, 12]
    assert rep.verdict == INCONCLUSIVE
    assert not any("grows" in w for w in rep.witnesses)
    assert rep.witnesses[1] == (
        "translate count; the local profile is not monotone, so neither rule applies:"
    )


# -------------------------------------------------------------- cylinder ops


def test_cylinder_overlap_set_all_shifts():
    for c in (1, Fraction(3, 2), 7):
        rep, overlap = fsa_check(make_system("cylinder", shift=c), RunConfig())
        assert rep.verdict == VERIFIED
        assert overlap == [-2, -1, 0, 1, 2]


def test_cylinder_audit_and_orbit():
    cfg = RunConfig()
    cy = make_system("cylinder", shift=Fraction(3, 2))
    rep = fsa_implies_lf_audit(cy, cfg)
    assert rep.verdict == VERIFIED
    assert rep.counts[1] == 5 and rep.counts[2] <= 5
    assert orbit_boundary_finiteness(cy, cfg).counts == [2]


def test_cylinder_compactness_both_flags():
    cfg = RunConfig()
    for flag in (True, False):
        cy = make_system("cylinder", shift=Fraction(3, 2), x_compact=flag)
        assert compactness_proxy(cy, cfg).verdict == VERIFIED
        _, desc = quotient_build(cy, cfg)
        assert desc.compact is flag


def test_refuted_compactness_says_the_instance_fails():
    # one interval: finite self-adjacency verifies on a cocompact action
    # whose closure is declared unbounded, so the instance fails
    system = PathologicalLineSystem()
    rep = compactness_proxy(system, RunConfig(n_intervals=1, schedule=(1, 2, 3)))
    assert rep.verdict == REFUTED
    assert rep.witnesses[-1] == "implication instance fails"


def test_cylinder_shift_validation():
    with pytest.raises(ValueError):
        CylinderSystem(shift=0)


# ------------------------------------------------------------------- battery


def test_battery_line_and_cylinder_all_pass():
    cfg = RunConfig()
    for sel in ("line-standard", "line-pathological", "cylinder"):
        results = run_battery(make_system(sel), cfg)
        assert battery_exit_code(results) == 0
        for rep, want in results:
            assert rep.verdict == want


def test_battery_free2house_small():
    results = run_battery(Free2HouseSystem(), RunConfig(depth=3, radius=6))
    assert battery_exit_code(results) == 0
    verdicts = {rep.property_name: rep.verdict for rep, _ in results}
    assert verdicts["finite-self-adjacency"] == REFUTED
    assert verdicts["disjointness"] == VERIFIED


def test_battery_exit_code_flags_mismatch():
    rep = VerificationReport("coverage", REFUTED, {}, [], [])
    assert battery_exit_code([(rep, VERIFIED)]) == 1
    ok = VerificationReport("coverage", VERIFIED, {}, [], [])
    assert battery_exit_code([(ok, VERIFIED)]) == 0
    assert battery_exit_code([(ok, REFUTED)]) == 1
