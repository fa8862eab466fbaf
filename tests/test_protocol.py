"""The pieces that the system protocol refactor must keep working.

perfbench's tracer patches fundreg names from outside the package, and
the battery must reach every check through its ``checker`` module name
so that such a patch sees each call.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fundreg import checker, cli
from fundreg.action import GroupBall
from fundreg.checker import (
    SELECTORS,
    VERIFIED,
    CylinderSystem,
    Free2HouseSystem,
    LineSystem,
    PlanePathologicalSystem,
    RunConfig,
    System,
    make_system,
    run_battery,
)
from fundreg.freegroup import enumerate_ball
from fundreg.regions import IntervalSet
from fundreg.tilespace import RoomSet
from oracles import plane2d_membership, recording_tries

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fundreg"
TRACER = ROOT / "perfbench" / "tracer.py"

CHECK_NAMES = {
    "disjointness": "check_disjointness",
    "coverage": "check_coverage",
    "boundary-containment": "boundary_containment",
    "local-finiteness": "local_finiteness_profile",
    "finite-self-adjacency": "fsa_check",
    "self-adjacency-implies-local-finiteness": "fsa_implies_lf_audit",
    "orbit-boundary-finiteness": "orbit_boundary_finiteness",
    "quotient-structure": "quotient_build",
    "compactness-proxy": "compactness_proxy",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(path):
    module, _, cls = path.partition(".")
    mod = importlib.import_module(f"fundreg.{module}")
    return getattr(mod, cls) if cls else mod


def _traced_names(tracer):
    return tracer.SPANS + tracer.LEAVES + [tracer.CACHED_LEAF, tracer.ITERATED]


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = _traced_names(tracer)
    missing = [
        f"{path}.{attr}"
        for path, attr, _ in names
        if not callable(getattr(_owner(path), attr, None))
    ]
    assert missing == []
    # ``verify --property`` dispatches through this table
    assert set(cli._PROPERTY_RUNNERS) == set(CHECK_NAMES)
    assert all(callable(fn) for fn in cli._PROPERTY_RUNNERS.values())


# Functions, methods and classes that only the tests reach: none.  Code
# that no CLI path runs is wired to one, or moves to the tests.
TEST_ONLY: set[str] = set()

# Names that no CLI path reaches, kept only because perfbench's tracer
# patches them to count calls.  The list may only shrink: each goes when
# the tracer stops patching it.
TRACER_ONLY = {
    "closed_intersection",
    "closure_meets_open_window",
    "contains",
    "fixed_point_search",
    "intersect",
    "nonidentity",
}


def _unnamed_definitions():
    """The names defined in ``src/fundreg`` that its code never uses, and
    every name defined there.  A function or class is used when its code
    names it (as a name, an attribute, an imported name, or a string
    constant: check functions are reached by string); a method only when
    it is read as an attribute or named in a string, so a local variable
    of the same name does not count.  Dunder methods and overrides of a
    method from outside the package are called by the protocol or the
    base class, and count as used."""
    methods, functions, used, named = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(
            "fundreg" if path.stem == "__init__" else f"fundreg.{path.stem}"
        )
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                outside = {
                    name
                    for base in getattr(module, node.name).__mro__[1:]
                    if not base.__module__.startswith("fundreg")
                    for name in vars(base)
                }
                used.update(
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in outside
                )
        in_class = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                (methods if id(node) in in_class else functions).add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unnamed = (methods - used) | (functions - used - named)
    return {
        name for name in unnamed if not (name.startswith("__") and name.endswith("__"))
    }, methods | functions


def test_only_the_listed_code_is_reached_by_tests_alone():
    unnamed, defined = _unnamed_definitions()
    traced = {attr for _, attr, _ in _traced_names(_tracer())}
    assert unnamed - TRACER_ONLY <= TEST_ONLY <= defined
    assert TEST_ONLY == set()
    # each listed name is still traced and still unused by src/, and the
    # list only shrinks
    assert TRACER_ONLY <= traced & unnamed and len(TRACER_ONLY) <= 6


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("selector", SELECTORS)
def test_battery_calls_each_check_by_name_and_fsa_once(monkeypatch, selector):
    calls = Counter()
    for name in CHECK_NAMES.values():
        check = getattr(checker, name)
        monkeypatch.setattr(checker, name, _counting(calls, name, check))
    system = make_system(selector)
    cls = type(system)
    body = cls.finite_self_adjacency
    counted = _counting(calls, "fsa body", body)
    monkeypatch.setattr(cls, "finite_self_adjacency", counted)
    cfg = RunConfig(depth=2, radius=4, n_intervals=24)
    results = run_battery(system, cfg)
    props = [report.property_name for report, _ in results]
    assert props == list(system.expected)
    assert calls == Counter({CHECK_NAMES[p]: 1 for p in props} | {"fsa body": 1})


def test_free2house_battery_builds_each_structure_once(monkeypatch):
    balls, closures, indexed, calls = Counter(), Counter(), Counter(), Counter()
    group_ball = checker.group_ball

    def recorded_ball(roots, depth):
        balls[tuple(roots), depth] += 1
        return group_ball(roots, depth)

    closure = RoomSet.closure

    def recorded_closure(self):
        closures[self] += 1
        return closure(self)

    once = Free2HouseSystem._once

    def recorded_once(self, key, make):
        def recorded_make():
            if key[0] == "meet index":
                indexed[key[1]] += 1
            return make()

        return once(self, key, recorded_make)

    tries = recording_tries(monkeypatch)
    monkeypatch.setattr(checker, "group_ball", recorded_ball)
    monkeypatch.setattr(RoomSet, "closure", recorded_closure)
    monkeypatch.setattr(Free2HouseSystem, "_once", recorded_once)
    translate = _counting(calls, "translate", RoomSet.translate)
    monkeypatch.setattr(RoomSet, "translate", translate)
    overlapping = Free2HouseSystem.overlapping_generators
    counted = _counting(calls, "overlapping_generators", overlapping)
    monkeypatch.setattr(Free2HouseSystem, "overlapping_generators", counted)
    system = make_system("free2house")
    run_battery(system, RunConfig(depth=2, radius=4))
    # one scan ball: the depth-2 trie ball the estimate reads, taken to
    # depth 2, with no layer enumerated
    assert tries == [("start", enumerate_ball(2), 2), ("to_depth", 2)]
    # and one profile half ball, of depth 2: it decides the depths up to
    # 3 and the split of the two candidates of depth 4
    assert balls == Counter({(enumerate_ball(3), 2): 1})
    # the closures at radius 4 (scans) and 5 (coverage)
    assert len(closures) == 2 and set(closures.values()) == {1}
    # one meet index built for the region (disjointness) and one for the
    # closure (boundary containment and the overlapping generators)
    assert indexed == Counter({system.region(4): 1, system.closure(4): 1})
    # no set is translated: every overlap is read off an index
    assert calls == Counter({"overlapping_generators": 1})


def never(*args, **kwargs):
    raise AssertionError("built a packed-key ball")


def test_deep_disjointness_counts_its_deepest_layer(monkeypatch, capsys):
    # the f2h-deep benchmark op: one scan ball, grown from the depth-2
    # ball the estimate reads, whose 604,850 elements are counted on its
    # tries and never enumerated; no packed-key ball is built
    tries = recording_tries(monkeypatch)
    monkeypatch.setattr(checker, "group_ball", never)
    argv = "verify free2house --property disjointness --depth 5 --radius 1"
    assert cli.main(argv.split()) == 0
    assert "counts: 604849, 0\n" in capsys.readouterr().out
    assert tries == [("start", enumerate_ball(2), 2), ("to_depth", 5)]


def test_default_battery_holds_every_half_ball_layer():
    system = make_system("free2house")
    run_battery(system, RunConfig())
    built = {key: ball for key, ball in system._memo.items() if "ball" in key[0]}
    half = [ball for (kind, _), ball in built.items() if kind == "half ball"]
    assert half and all(len(ball._reps) == ball.depth + 1 for ball in half)
    # the scan ball holds its five layers as tries, grown from the
    # estimate's depth-2 ball: it shares that ball's nodes and layers
    scan, start = built["scan ball", 4], system._memo["scan start",]
    assert scan._tries is start._tries and scan._roots[:3] == start._roots
    assert scan.layer_sizes() == [1, 17, 232, 3112, 41736]
    assert len(scan) == 45_098


def test_depth_7_is_refused_before_any_layer_is_built(monkeypatch, capsys):
    tries = recording_tries(monkeypatch)
    argv = "verify free2house --property disjointness --depth 7 --radius 1"
    assert cli.main(argv.split()) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fundreg: error: the scan ball at depth 7 needs about 722.9 MiB; "
        "the budget is 128 MiB\n"
    )
    # only the depth-2 ball the estimate extrapolates from
    assert tries == [("start", enumerate_ball(2), 2)]


def test_default_profile_builds_no_depth_3_half_ball(monkeypatch):
    depths, calls = [], Counter()
    group_ball = checker.group_ball

    def recorded_ball(roots, depth):
        if tuple(roots) == enumerate_ball(3):
            depths.append(depth)
        return group_ball(roots, depth)

    splits = GroupBall.splits

    def recorded_split(self, g, k):
        calls[self.depth, k] += 1
        return splits(self, g, k)

    monkeypatch.setattr(checker, "group_ball", recorded_ball)
    monkeypatch.setattr(GroupBall, "splits", recorded_split)
    system = Free2HouseSystem()
    report, _ = checker.local_finiteness_profile(system, RunConfig())
    assert report.verdict == VERIFIED
    # depths up to 3 take one lookup in the depth-2 half ball, which
    # decides layer 3; only the two candidates of depth 4 split, each at
    # total 4 over that same ball
    assert depths == [2]
    deep = {
        key[1].text(): depth
        for key, depth in system._memo.items()
        if key[0] == "min depth" and (depth is None or depth > 3)
    }
    assert deep == {"(uruRRR, 0)": 4, "(URUrrr, 0)": 4}
    assert calls == Counter({(2, 2): 2})


def test_free2house_coverage_decides_each_spine_power_once(monkeypatch):
    calls = Counter()
    walk = checker.walk_to_spine
    monkeypatch.setattr(checker, "walk_to_spine", _counting(calls, "walk", walk))
    box = Free2HouseSystem._box_covered
    monkeypatch.setattr(Free2HouseSystem, "_box_covered", _counting(calls, "box", box))
    for name in ("contains", "translate"):
        counted = _counting(calls, name, getattr(RoomSet, name))
        monkeypatch.setattr(RoomSet, name, counted)
    radius = 5
    report = checker.check_coverage(Free2HouseSystem(), RunConfig(radius=radius))
    # 485 rooms, each walked and tested when decided room by room
    assert report.counts == [485, 0]
    assert calls["box"] <= 2 * radius + 1
    assert calls["walk"] <= 6
    # the box rooms are looked up in the closure; no cover is built
    assert calls["contains"] == calls["translate"] == 0


def test_line_battery_builds_each_family_once(monkeypatch):
    sizes = Counter()
    family = checker.pathological_1d

    def recorded(count):
        sizes[count] += 1
        return family(count)

    monkeypatch.setattr(checker, "pathological_1d", recorded)
    run_battery(make_system("line-pathological"), RunConfig(n_intervals=40))
    # the region, and one per horizon 2..6 of local finiteness (4k tiles)
    assert sizes == Counter({n: 1 for n in (40, 8, 12, 16, 20, 24)})


@pytest.mark.parametrize(
    "selector,shift",
    [("line-standard", 1), ("line-pathological", 1), ("cylinder", Fraction(3, 2))],
)
def test_line_and_cylinder_batteries_sweep_the_shifts_once(
    monkeypatch, selector, shift
):
    calls = Counter()
    sweep = IntervalSet.shift_meetings
    monkeypatch.setattr(IntervalSet, "shift_meetings", _counting(calls, "sweep", sweep))
    system = make_system(selector, shift=shift)
    results = run_battery(system, RunConfig())
    assert all(report.verdict == want for report, want in results)
    # disjointness and boundary containment share the one sweep
    assert calls == Counter({"sweep": 1})


def test_the_cylinder_is_the_line_with_step_c():
    # the sweep, disjointness and self-adjacency are the line's, at step c
    assert issubclass(CylinderSystem, LineSystem)
    for name in ("shift_meetings", "disjointness", "finite_self_adjacency"):
        assert name not in vars(CylinderSystem), name
    band = CylinderSystem(Fraction(2, 3))
    assert band.step == Fraction(2, 3)
    assert band.region() == IntervalSet([(0, Fraction(2, 3))])
    assert band.expected is LineSystem.expected
    assert list(band.shift_meetings(RunConfig(m_range=3))) == [-1, 1]


def test_the_plane_is_the_line_on_its_unit_fiber():
    # boundary containment and coverage are the line's, on the unit fiber
    # (0, 1); the audit and the orbit count have no certificate
    assert issubclass(PlanePathologicalSystem, LineSystem)
    for name in ("region", "shift_meetings", "boundary_containment", "coverage"):
        assert name not in vars(PlanePathologicalSystem), name
    assert PlanePathologicalSystem.adjacency_audit is System.adjacency_audit
    assert PlanePathologicalSystem.orbit_boundary is System.orbit_boundary
    plane, line, cfg = PlanePathologicalSystem(), LineSystem(), RunConfig(m_range=3)
    assert plane.region() == IntervalSet([(0, 1)])
    for check in ("boundary_containment", "coverage"):
        got, want = getattr(plane, check)(cfg), getattr(line, check)(cfg)
        assert got.to_dict() == want.to_dict(), check
    unit = plane.shift_meetings(cfg)
    for p in range(1, 17):
        x = Fraction(p, 16)
        # the band's fiber over x < 1 is the unit fiber moved up by 1/x,
        # the closed fiber over x = 1 its edge ...
        for j in range(-8, 17):
            t = Fraction(j, 8)
            want = x < 1 and 0 < t < 1
            assert plane2d_membership(x, 1 / x + t) == want, (x, t)
        # ... and its (0, n) translates meet it as the unit fiber's do
        fiber = IntervalSet([(1 / x, 1 / x + 1)]).shift_meetings(1, cfg.m_range)
        assert fiber == {m: meet.translate(1 / x) for m, meet in unit.items()}


def test_each_selector_builds_its_own_class():
    assert SELECTORS == tuple(checker.SYSTEMS)
    for selector, cls in checker.SYSTEMS.items():
        assert cls.name == selector and type(make_system(selector)) is cls


def test_no_check_compares_a_system_name():
    # each kind of system is a class: none picks its code by its name
    tree = ast.parse((SRC / "checker.py").read_text(encoding="utf-8"))
    compared = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "name"
            for side in [node.left, *node.comparators]
        )
    ]
    assert compared == []
