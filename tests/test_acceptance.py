"""Acceptance suite: every delivery criterion, one printed line each.

Each test covers one numbered criterion and finishes by printing
``criterion N (...): PASS`` (or FAIL before re-raising), so a verbose run
reads as a checklist.  Tolerances are stated inline; counting checks are
exact integers with zero tolerance.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

from fundreg.action import group_ball, identity, room_reflection
from fundreg.checker import (
    REFUTED,
    VERIFIED,
    CylinderSystem,
    Free2HouseSystem,
    LineSystem,
    PathologicalLineSystem,
    RunConfig,
    boundary_containment,
    check_coverage,
    check_disjointness,
    compactness_proxy,
    fsa_check,
    local_finiteness_profile,
    quotient_build,
)
from fundreg.cli import main as cli_main
from fundreg.conformal import (
    build_rescaling,
    equivariance_defect,
    isometry_rel_error,
    partition_diagnostics,
)
from fundreg.freegroup import enumerate_ball, r_power
from fundreg.tilespace import canonical_point
from oracles import orbit_representatives, representative_class_count


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_criterion_01_core_battery_within_budget():
    with criterion(1, "disjointness + coverage + boundary under 60s"):
        system = Free2HouseSystem()
        cfg = RunConfig(depth=4, radius=8)
        start = time.perf_counter()
        reports = [
            check_disjointness(system, cfg),
            check_coverage(system, cfg),
            boundary_containment(system, cfg),
        ]
        elapsed = time.perf_counter() - start
        assert [r.verdict for r in reports] == [VERIFIED, VERIFIED, VERIFIED]
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_exactly_six_translates_meet_every_patch():
    with criterion(2, "local finiteness stabilizes at exactly 6"):
        system = Free2HouseSystem()
        cfg = RunConfig(depth=4, radius=3, schedule=(2, 3, 4, 5, 6))
        report, profiles = local_finiteness_profile(system, cfg)
        assert report.verdict == VERIFIED
        assert len(profiles) == 17  # all centers of word length <= 2
        for center, counts in profiles.items():
            assert counts[-1] == 6, f"{center}: {counts}"
            assert counts[-3:] == [6, 6, 6], f"{center}: {counts}"


def test_criterion_03_self_adjacency_refuted_with_growing_witnesses():
    with criterion(3, "self-adjacency family grows without bound"):
        system = Free2HouseSystem()
        cfg = RunConfig(depth=4, radius=8, schedule=(1, 2, 3, 4))
        report, hits = fsa_check(system, cfg)
        assert report.verdict == REFUTED
        assert report.counts == [4, 6, 8, 10]
        assert all(a < b for a, b in zip(report.counts, report.counts[1:]))
        spine_reflections = [room_reflection(r_power(i)) for i in range(1, 5)]
        for g in spine_reflections:
            assert g in hits
        assert len(set(spine_reflections)) == 4


def test_criterion_04_room_swaps_balance_on_the_whole_ball():
    with criterion(4, "zero letter balance on all 604850 depth-5 products"):
        ball = group_ball(enumerate_ball(2), 5)
        total, bad = 1, 0
        assert identity().spine.exponent_sum() == 0
        for g in ball.nonidentity():
            total += 1
            if g.spine.exponent_sum() != 0:
                bad += 1
        assert total == 604850
        assert bad == 0


def test_criterion_05_cylinder_overlaps_and_compactness_flags():
    with criterion(5, "cylinder overlap set and compactness implication"):
        for shift in (Fraction(1), Fraction(3, 2), Fraction(7)):
            system = CylinderSystem(shift, True)
            report, overlap = fsa_check(system, RunConfig())
            assert report.verdict == VERIFIED
            assert overlap == [-2, -1, 0, 1, 2]
        for x_compact in (True, False):
            system = CylinderSystem(Fraction(3, 2), x_compact)
            assert compactness_proxy(system, RunConfig()).verdict == VERIFIED


def test_criterion_06_pathological_line_diagnosis():
    with criterion(6, "pathological line: disjoint, not locally finite"):
        system = PathologicalLineSystem()
        assert (
            check_disjointness(system, RunConfig(n_intervals=200, m_range=200)).verdict
            == VERIFIED
        )
        report, _ = local_finiteness_profile(
            system, RunConfig(schedule=tuple(range(2, 13)))
        )
        assert report.verdict == REFUTED
        assert report.counts == [3 * k + 2 for k in range(2, 13)]
        for k in (5, 9, 12):
            schedule = (2, 3, k)
            enough = check_coverage(
                system, RunConfig(schedule=schedule, n_intervals=k - 1)
            )
            short = check_coverage(
                system, RunConfig(schedule=schedule, n_intervals=k - 2)
            )
            assert enough.verdict == VERIFIED, f"k={k}"
            assert short.verdict == REFUTED, f"k={k}"


def test_criterion_07_quotient_gluing_and_representative_uniqueness():
    with criterion(7, "quotient strip, circle, unique representatives"):
        system = Free2HouseSystem()
        report, desc = quotient_build(system, RunConfig(radius=4))
        assert report.verdict == VERIFIED
        assert len(desc.pieces) == 9
        for ident in desc.identifications:
            assert ident["orientation"] == "t -> t"
            assert "top edge of triangle" in ident["from"]
            assert "left edge of triangle" in ident["to"]
        froms = [int(d["from"].rsplit(" ", 1)[-1]) for d in desc.identifications]
        tos = [int(d["to"].rsplit(" ", 1)[-1]) for d in desc.identifications]
        assert tos == [i + 1 for i in froms]
        assert froms == list(range(-4, 4))

        line_report, line_desc = quotient_build(
            LineSystem(), RunConfig()
        )
        assert line_report.verdict == VERIFIED
        assert line_desc.compact is True
        assert line_desc.identifications == [
            {"from": "point 0", "to": "point 1", "via": "m = 1"}
        ]

        farey = sorted({Fraction(a, b) for b in range(1, 17) for a in range(b)})
        assert len(farey) == 80
        for room in enumerate_ball(2):
            for x in farey:
                for y in farey:
                    if x == 0 and y == 0:
                        continue
                    point = canonical_point(room, x, y)
                    reps = orbit_representatives(system, point)
                    assert reps, point.text()
                    assert representative_class_count(system, reps) == 1, point.text()


def test_criterion_08_rescaling_tolerances_and_null_control():
    with criterion(8, "rescaling within tolerance, null control fails"):
        for s in (0.3, 0.7, 1.5):
            resc = build_rescaling(s, grid=64, reach=6)
            diag = partition_diagnostics(resc.partition)
            assert diag["max_partition_defect"] <= 1e-12
            assert equivariance_defect(resc) <= 1e-10
            assert isometry_rel_error(resc) <= 1e-9
        null = build_rescaling(0.3, grid=64, reach=6, null=True)
        assert isometry_rel_error(null) >= math.exp(0.6) - 1 - 1e-12


def test_criterion_09_composition_matches_defining_formula():
    with criterion(9, "composed action equals letter-by-letter formula"):
        pool = enumerate_ball(3)

        def single_image(root, v):
            # the defining formula for one reflection, from scratch
            return root * root.inverse().swapped() * v.swapped()

        rng = random.Random(90817)
        for _ in range(1000):
            roots = [
                pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 8))
            ]
            v = pool[rng.randrange(len(pool))]
            composed = identity()
            for root in roots:
                composed = composed * room_reflection(root)
            expected = v
            for root in reversed(roots):
                expected = single_image(root, expected)
            assert composed.apply(v) == expected


def test_criterion_10_repeated_runs_are_byte_identical():
    with criterion(10, "verification JSON and SVG are reproducible"):
        argv = ["verify", "free2house", "--format", "json"]
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert code_a == code_b
        assert out_a.encode("utf-8") == out_b.encode("utf-8")
        payload = json.loads(out_a)
        assert payload["exit_code"] == 0 and code_a == 0

        svg_argv = ["render", "quotient"]
        _, svg_a = run_cli(svg_argv)
        _, svg_b = run_cli(svg_argv)
        assert svg_a.encode("utf-8") == svg_b.encode("utf-8")
        assert svg_a.startswith("<svg ")
