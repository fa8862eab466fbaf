"""Every scan check can refute, or is listed as a check that cannot.

A scan check (``checker._scan_report``) refutes exactly when it finds a
violating translate.  ``SITES`` perturbs one input of each such check (a
region, a closure, a band, a certificate, or an action map) until it
finds one, and ``RECORDED`` holds the full report, byte for byte, that
the check returned there before its verdict went through the shared
rule.  A check that no perturbation of its inputs can refute is in
``KNOWN_TAUTOLOGIES`` with the reason; that list may only shrink.
``CALL_OF`` names, for each entry, the function whose scan-rule call it
covers: the cylinder's audit and orbit count, and the plane's coverage and
boundary containment, run the line's.

The module also guards the rules themselves: ``VerificationReport`` is
built only by the three rule helpers and the one check with a rule of
its own, and no code sets a report's verdict afterwards.
"""

import ast
import inspect
from collections import Counter
from fractions import Fraction

import pytest

from fundreg import checker
from fundreg.action import ActionElement, room_reflection
from fundreg.checker import (
    REFUTED,
    CylinderSystem,
    LineSystem,
    RunConfig,
)
from fundreg.freegroup import r_power, u_power
from fundreg.regions import IntervalSet
from oracles import CorruptedLine, FiberBand, GappedLine
from test_scan_oracles import Blob, ClosureAsRegion, ShrunkClosure


class Band(CylinderSystem):
    """The cylinder with the band (0, width * c) for the step c = 2/3:
    a narrow band leaves gaps between its translates, and a wide one
    overlaps them; both miss the gluing."""

    def __init__(self, width):
        super().__init__(Fraction(2, 3))
        self.width = Fraction(width)

    def region(self, n_intervals=1):
        return IntervalSet([(0, self.width * self.step)])


class ThinCertificate:
    """The certified overlap family cut to the identity shift: a sampled
    patch that meets three translates exceeds it, so the audit must
    refute."""

    def finite_self_adjacency(self, cfg):
        report, _ = super().finite_self_adjacency(cfg)
        return report, [0]


class ThinLine(ThinCertificate, LineSystem):
    pass


class ThinCylinder(ThinCertificate, CylinderSystem):
    pass


class UnboundedLine(LineSystem):
    """The standard line with its closure declared unbounded: finite
    self-adjacency verifies on a cocompact action, so the compactness
    implication must fail."""

    closure_bounded = False


def _off_root_reflection(root):
    """The reflection rooted one u-step past ``root``: it glues no
    triangle edge to its neighbour."""
    return room_reflection(root * u_power(1))


def _f2h_quotient(monkeypatch):
    monkeypatch.setattr(checker, "room_reflection", _off_root_reflection)
    report, _ = checker.Free2HouseSystem().quotient(RunConfig(radius=1))
    return report


SMALL = RunConfig(depth=1, radius=1)

# check -> the refuted report of a perturbed system, built with pytest's
# ``monkeypatch`` where the perturbed input is a module-level map
SITES = {
    "free2house disjointness": lambda mp: ClosureAsRegion().disjointness(SMALL),
    "free2house coverage": lambda mp: ShrunkClosure().coverage(RunConfig(radius=3)),
    "free2house boundary-containment": (
        lambda mp: Blob().boundary_containment(SMALL)
    ),
    "free2house quotient-structure": _f2h_quotient,
    "line disjointness": lambda mp: CorruptedLine().disjointness(RunConfig()),
    "line coverage": lambda mp: GappedLine(3).coverage(RunConfig(n_intervals=12)),
    "line boundary-containment": (
        lambda mp: CorruptedLine().boundary_containment(RunConfig())
    ),
    "line-standard quotient-structure": (
        lambda mp: CorruptedLine().quotient(RunConfig())[0]
    ),
    "line-pathological quotient-structure": (
        lambda mp: GappedLine(3).quotient(RunConfig(n_intervals=12))[0]
    ),
    "line self-adjacency-implies-local-finiteness": (
        lambda mp: ThinLine().adjacency_audit(RunConfig())
    ),
    "line compactness-proxy": lambda mp: UnboundedLine().compactness(RunConfig()),
    # a band twice the region's height: its (0, +-1) translates overlap it
    "plane disjointness": lambda mp: FiberBand(2).disjointness(RunConfig()),
    "plane coverage": lambda mp: FiberBand(Fraction(1, 2)).coverage(RunConfig()),
    "plane boundary-containment": (
        lambda mp: FiberBand(Fraction(3, 2)).boundary_containment(RunConfig())
    ),
    "cylinder coverage": lambda mp: Band(Fraction(1, 2)).coverage(RunConfig()),
    "cylinder boundary-containment": (
        lambda mp: Band(Fraction(3, 2)).boundary_containment(RunConfig(m_range=3))
    ),
    "cylinder self-adjacency-implies-local-finiteness": (
        lambda mp: ThinCylinder().adjacency_audit(RunConfig())
    ),
    "cylinder quotient-structure": (
        lambda mp: Band(Fraction(3, 2)).quotient(RunConfig())[0]
    ),
}

# the reports the checks returned before the shared scan rule
RECORDED = {
    "free2house disjointness": {
        "property": "disjointness",
        "verdict": "refuted",
        "truncation": {"depth": 1, "radius": 1},
        "counts": [17, 3],
        "witnesses": [
            "(e, 1) overlaps: e:diag; r:left; u:bottom",
            "(rU, 1) overlaps: r:diag",
            "(Ru, 1) overlaps: e:left; R:diag; Ru:bottom",
        ],
    },
    "free2house coverage": {
        "property": "coverage",
        "verdict": "refuted",
        "truncation": {"depth": 4, "radius": 3},
        "counts": [53, 24],
        "witnesses": [
            "room rr escapes its walk cover",
            "room ru escapes its walk cover",
            "room ur escapes its walk cover",
            "room uu escapes its walk cover",
            "room RR escapes its walk cover",
            "room RU escapes its walk cover",
            "room UR escapes its walk cover",
            "room UU escapes its walk cover",
            "...",
        ],
    },
    "free2house boundary-containment": {
        "property": "boundary-containment",
        "verdict": "refuted",
        "truncation": {"depth": 1, "radius": 1},
        "counts": [17, 5, 5],
        "witnesses": [
            (
                "(e, 1) meets the closure off the boundary: "
                "e:upper+lower+diag+left+bottom; r:upper+lower+diag+left+bottom; "
                "u:upper+lower+diag+left+bottom; R:upper+lower+diag+left+bottom; "
                "U:upper+lower+diag+left+bottom"
            ),
            (
                "(rU, 1) meets the closure off the boundary: "
                "r:upper+lower+diag+left+bottom"
            ),
            (
                "(uR, 1) meets the closure off the boundary: "
                "u:upper+lower+diag+left+bottom"
            ),
            (
                "(Ru, 1) meets the closure off the boundary: "
                "R:upper+lower+diag+left+bottom"
            ),
            (
                "(Ur, 1) meets the closure off the boundary: "
                "U:upper+lower+diag+left+bottom"
            ),
        ],
    },
    "free2house quotient-structure": {
        "property": "quotient-structure",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 1},
        "counts": [3, 2, 4, 4],
        "witnesses": [
            "edge gluing -1 -> 0 moved a sample point",
            "diagonal of room R moved",
            "edge gluing 0 -> 1 moved a sample point",
            "diagonal of room e moved",
        ],
    },
    "line disjointness": {
        "property": "disjointness",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 200},
        "counts": [400, 2],
        "witnesses": ["m = -1: open overlap (0, 1/2)", "m = 1: open overlap (1, 3/2)"],
    },
    "line coverage": {
        "property": "coverage",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 14},
        "counts": [29],
        "witnesses": ["uncovered point 31/40"],
    },
    "line boundary-containment": {
        "property": "boundary-containment",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 200},
        "counts": [400, 2, 2],
        "witnesses": [
            "m = -1: interior overlap (0, 1/2)",
            "m = 1: interior overlap (1, 3/2)",
        ],
    },
    "line-standard quotient-structure": {
        "property": "quotient-structure",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 1},
        "counts": [1, 1, 1],
        "witnesses": ["gluing m = 1 maps 0 to 1, not to the right end 3/2"],
    },
    "line-pathological quotient-structure": {
        "property": "quotient-structure",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 12},
        "counts": [11, 10, 1],
        "witnesses": ["tiles 2 and 3 fail to glue"],
    },
    "line compactness-proxy": {
        "property": "compactness-proxy",
        "verdict": "refuted",
        "truncation": {"depth": 6, "radius": 200},
        "counts": [],
        "witnesses": [
            "finite self-adjacency: verified-at-truncation",
            "action cocompact: True",
            "closure bounded: False",
            "implication instance fails",
        ],
    },
    "line self-adjacency-implies-local-finiteness": {
        "property": "self-adjacency-implies-local-finiteness",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 200},
        "counts": [25, 1, 3],
        "witnesses": [
            "certified overlap family size 1",
            "max translates meeting a sampled point's patch: 3",
        ],
    },
    "plane disjointness": {
        "property": "disjointness",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 10},
        "counts": [44, 19360, 44],
        "witnesses": [
            "(1/12, 61/5) also lies in the (0, -1) translate",
            "(1/12, 62/5) also lies in the (0, -1) translate",
            "(1/12, 63/5) also lies in the (0, -1) translate",
            "(1/12, 64/5) also lies in the (0, -1) translate",
            "(1/6, 31/5) also lies in the (0, -1) translate",
            "(1/6, 32/5) also lies in the (0, -1) translate",
            "(1/6, 33/5) also lies in the (0, -1) translate",
            "(1/6, 34/5) also lies in the (0, -1) translate",
            "...",
        ],
    },
    "plane coverage": {
        "property": "coverage",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 202},
        "counts": [405],
        "witnesses": ["uncovered point -5/4"],
    },
    "plane boundary-containment": {
        "property": "boundary-containment",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 200},
        "counts": [400, 2, 2],
        "witnesses": [
            "m = -1: interior overlap (0, 1/2)",
            "m = 1: interior overlap (1, 3/2)",
        ],
    },
    "cylinder coverage": {
        "property": "coverage",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 5},
        "counts": [11],
        "witnesses": ["uncovered point -5/6"],
    },
    "cylinder boundary-containment": {
        "property": "boundary-containment",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 3},
        "counts": [6, 2],
        "witnesses": ["m = -1", "m = 1"],
    },
    "cylinder self-adjacency-implies-local-finiteness": {
        "property": "self-adjacency-implies-local-finiteness",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 200},
        "counts": [25, 1, 3],
        "witnesses": [
            "certified overlap family size 1",
            "max translates meeting a sampled patch: 3",
        ],
    },
    "cylinder quotient-structure": {
        "property": "quotient-structure",
        "verdict": "refuted",
        "truncation": {"depth": None, "radius": 1},
        "counts": [1, 1, 1],
        "witnesses": [
            (
                "gluing m = 1 maps the 0 section to the 2/3 section, not to the upper "
                "edge 1"
            ),
        ],
    },
}

# check -> why no perturbation of its inputs can refute it
KNOWN_TAUTOLOGIES = {
    "free2house fixed-points": (
        "the identity fixing every room and a reflection fixing its diagonal "
        "are findings, and a parity-0 element fixes no room: s.v = v forces s = e"
    ),
    "line orbit-boundary-finiteness": (
        "counts the shifts within m_range that carry 0 onto a region "
        "endpoint, finitely many by construction; the cylinder's count is "
        "the same code at step c"
    ),
}

# entry -> the function around the scan-rule call it covers
CALL_OF = {
    "free2house disjointness": "Free2HouseSystem.disjointness",
    "free2house coverage": "Free2HouseSystem.coverage",
    "free2house boundary-containment": "Free2HouseSystem.boundary_containment",
    "free2house quotient-structure": "Free2HouseSystem.quotient",
    "free2house fixed-points": "Free2HouseSystem.fixed_points",
    "line disjointness": "LineSystem.disjointness",
    "line coverage": "LineSystem.coverage",
    "line boundary-containment": "LineSystem.boundary_containment",
    "line-standard quotient-structure": "LineSystem.quotient",
    "line-pathological quotient-structure": "PathologicalLineSystem.quotient",
    "line self-adjacency-implies-local-finiteness": "LineSystem.adjacency_audit",
    "line compactness-proxy": "System.compactness",
    "line orbit-boundary-finiteness": "LineSystem.orbit_boundary",
    "plane disjointness": "PlanePathologicalSystem.disjointness",
    "plane coverage": "LineSystem.coverage",
    "plane boundary-containment": "LineSystem.boundary_containment",
    "cylinder coverage": "CylinderSystem.coverage",
    "cylinder boundary-containment": "CylinderSystem.boundary_containment",
    "cylinder self-adjacency-implies-local-finiteness": "LineSystem.adjacency_audit",
    "cylinder quotient-structure": "CylinderSystem.quotient",
}

# where VerificationReport may be built: the three rule helpers and the
# plane's profile-derived self-adjacency
RULE_OWNERS = [
    "PlanePathologicalSystem.finite_self_adjacency",
    "_inconclusive",
    "_profile_report",
    "_scan_report",
]


@pytest.mark.parametrize("site", sorted(SITES))
def test_the_perturbed_check_refutes_with_the_recorded_report(site, monkeypatch):
    report = SITES[site](monkeypatch)
    assert report.verdict == REFUTED
    assert report.to_dict() == RECORDED[site]


def test_every_scan_check_is_refuted_or_a_known_tautology():
    assert set(RECORDED) == set(SITES)
    assert set(SITES).isdisjoint(KNOWN_TAUTOLOGIES)
    assert set(CALL_OF) == set(SITES) | set(KNOWN_TAUTOLOGIES)
    # every call of the scan rule is covered by an entry, and every entry
    # names a call; the tautologies may only shrink
    calls = Counter(_calls_of("_scan_report"))
    assert not calls - Counter(CALL_OF.values())
    assert set(CALL_OF.values()) <= set(calls)
    assert len(KNOWN_TAUTOLOGIES) <= 2


def test_the_cylinder_checks_read_a_wider_band():
    # the band (0, 3c/2) widened by c is (-c, 5c/2): translates by |m| <= 3
    # meet it, the orbit of 0 reaches only the end 0, and a tile's patch
    # (-c, 2c) from it meets four closed translates
    band, cfg = Band(Fraction(3, 2)), RunConfig()
    _, overlap = band.finite_self_adjacency(cfg)
    assert overlap == [-3, -2, -1, 0, 1, 2, 3]
    orbit = band.orbit_boundary(cfg)
    assert orbit.witnesses == [
        "orbit of the 0 section meets the band boundary at shifts [0]"
    ]
    assert band.adjacency_audit(cfg).counts == [25, 7, 4]


def test_a_parity_0_element_fixing_a_room_refutes():
    class Stuck(ActionElement):
        """A parity-0 element with a nontrivial spine that fixes every room."""

        def apply(self, v):
            return v

    report = checker.Free2HouseSystem().fixed_points(
        RunConfig(radius=1), Stuck(r_power(1), 0)
    )
    assert report.verdict == REFUTED
    assert report.counts == [5, 5]
    assert report.witnesses[0] == "unexpected fixed room e"


def _calls_of(name):
    """The qualified name of the function around each call of ``name`` in
    ``checker.py``, one entry per call."""
    tree = ast.parse(inspect.getsource(checker))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == name
            ):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_reports_are_built_only_by_the_verdict_rules():
    assert sorted(_calls_of("VerificationReport")) == RULE_OWNERS
    # and no verdict is set after a rule has returned: the report's own
    # constructor, which the rules call, is the one place that sets it
    tree = ast.parse(inspect.getsource(checker))
    constructor = next(
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "VerificationReport"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    )
    inside = set(map(id, ast.walk(constructor)))
    targets = [
        target
        for node in ast.walk(tree)
        if id(node) not in inside
        and isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert not [
        ast.unparse(t)
        for t in targets
        for sub in ast.walk(t)
        if isinstance(sub, ast.Attribute) and sub.attr == "verdict"
    ]
