"""Tracer for one benchmark pass, installed from outside the package.

It wraps public fundreg functions at the place each one is looked up, so
nothing under ``src/`` changes:

* coarse boundaries (the CLI call, each property check, ``group_ball``,
  ``overlapping_generators``) record one span each: name, start, end,
  parent and self time;
* hot leaves (``RoomSet`` and ``IntervalSet`` operations, ``walk_to_spine``,
  ``candidate_min_depth``) are aggregated into calls, inclusive time and
  self time under their enclosing span, which keeps memory and overhead
  bounded at about a million calls a pass;
* counts named in ``COUNTS`` are taken from the arguments and results of
  the wrapped call.

A span's or leaf's self time is its duration minus the time of the frames
it encloses, so the self times of everything recorded, the root span
included, add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter
from typing import Any, Callable, Iterator

# (owner, attribute, layer name).  Owners are "module" or "module.Class"
# inside the fundreg package; each name is patched where callers look it up.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_rescaling", "conformal.build_rescaling"),
    ("cli", "quotient_build", "checker.quotient-structure"),
    ("checker", "check_disjointness", "checker.disjointness"),
    ("checker", "check_coverage", "checker.coverage"),
    ("checker", "boundary_containment", "checker.boundary-containment"),
    ("checker", "local_finiteness_profile", "checker.local-finiteness"),
    ("checker", "fsa_check", "checker.finite-self-adjacency"),
    ("checker", "fsa_implies_lf_audit", "checker.self-adjacency-implies-local-finiteness"),
    ("checker", "orbit_boundary_finiteness", "checker.orbit-boundary-finiteness"),
    ("checker", "quotient_build", "checker.quotient-structure"),
    ("checker", "compactness_proxy", "checker.compactness-proxy"),
    ("checker", "fixed_point_search", "checker.fixed-points"),
    ("checker", "group_ball", "action.group_ball"),
    ("checker.Free2HouseSystem", "overlapping_generators", "checker.overlapping_generators"),
]

LEAVES = [
    ("checker.Free2HouseSystem", "candidate_min_depth", "checker.candidate_min_depth"),
    ("checker", "walk_to_spine", "action.walk_to_spine"),
    ("checker", "materialize_cell", "tilespace.materialize_cell"),
    ("tilespace", "materialize_cell", "tilespace.materialize_cell"),
    ("tilespace.RoomSet", "translate", "tilespace.translate"),
    ("tilespace.RoomSet", "intersect", "tilespace.intersect"),
    ("tilespace.RoomSet", "union", "tilespace.union"),
    ("tilespace.RoomSet", "contains", "tilespace.contains"),
    ("tilespace.RoomSet", "difference", "tilespace.difference"),
    ("regions.IntervalSet", "__init__", "regions.IntervalSet.init"),
    ("regions.IntervalSet", "translate", "regions.translate"),
    ("regions.IntervalSet", "first_overlap", "regions.first_overlap"),
    ("regions.IntervalSet", "closed_intersection", "regions.closed_intersection"),
    ("regions.IntervalSet", "coverage_gap", "regions.coverage_gap"),
    ("regions.IntervalSet", "closure_meets_open_window", "regions.closure_meets_open_window"),
    ("checker", "plane2d_translate_meets_box", "regions.plane2d_translate_meets_box"),
]

# enumerate_ball is lru-cached: only the first call per radius (a miss)
# is timed as a leaf; repeat calls are cache hits and pass straight through.
CACHED_LEAF = ("checker", "enumerate_ball", "freegroup.enumerate_ball")

# Elements yielded by GroupBall.nonidentity: the whole-ball scans.
ITERATED = ("action.GroupBall", "nonidentity", "action.ball_iterated.elements")

# "<layer>.<what>" -> amount to add per call, from (args, result).
COUNTS: dict[str, Callable[[tuple, Any], int]] = {
    "action.group_ball.elements": lambda args, result: len(result),
    "tilespace.translate.rooms": lambda args, result: len(args[0].rooms),
    "tilespace.intersect.nonempty": lambda args, result: int(bool(result.rooms)),
    "regions.IntervalSet.init.pairs": lambda args, result: len(args[0].pairs),
    "regions.first_overlap.hits": lambda args, result: int(result is not None),
}

LAYERS = {name for _, _, name in SPANS + LEAVES + [CACHED_LEAF]}
COUNT_NAMES = set(COUNTS) | {ITERATED[2]}


class Tracer:
    """Spans and leaf aggregates of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, float]] = []
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.counts: Counter[str] = Counter()
        # Time covered by enclosed frames, one entry per open frame; the
        # bottom entry collects the root span's duration.
        self._child_time: list[list[float]] = [[0.0]]
        self._open: list[int | None] = [None]
        self._ids = itertools.count(1)

    def _counters(self, name: str) -> list[tuple[str, Callable]]:
        return [(key, f) for key, f in COUNTS.items() if key.rsplit(".", 1)[0] == name]

    def _count(self, counters: list, args: tuple, result: Any) -> None:
        for key, measure in counters:
            self.counts[key] += measure(args, result)

    def span(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        child_time, open_spans, spans, ids = (
            self._child_time, self._open, self.spans, self._ids
        )
        counters = self._counters(name)

        def traced(*args, **kwargs):
            parent = open_spans[-1]
            sid = next(ids)
            open_spans.append(sid)
            frame = [0.0]
            child_time.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child_time.pop()
                open_spans.pop()
                child_time[-1][0] += end - start
                spans.append((sid, parent, name, start, end, end - start - frame[0]))
            if counters:
                self._count(counters, args, result)
            return result

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        child_time, open_spans, leaves = self._child_time, self._open, self.leaves
        counters = self._counters(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            child_time.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                child_time.pop()
                child_time[-1][0] += total
                key = (open_spans[-1], name)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += total
                agg[2] += total - frame[0]
            if counters:
                self._count(counters, args, result)
            return result

        return traced

    def cached_leaf(self, name: str, fn: Callable) -> Callable:
        timed = self.leaf(name, fn)
        seen: set = set()

        def traced(*args):
            if args in seen:
                return fn(*args)
            seen.add(args)
            return timed(*args)

        return traced

    def iterated(self, key: str, gen: Callable[..., Iterator]) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            n = 0
            try:
                for item in gen(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[key] += n

        return traced

    def snapshot(self) -> dict:
        """JSON-ready record of the pass."""
        return {
            "spans": [list(s) for s in self.spans],
            "leaves": [
                [parent, name, *agg] for (parent, name), agg in self.leaves.items()
            ],
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Patch every traced name in the imported fundreg modules."""

    def owner(path: str):
        module, _, cls = path.partition(".")
        mod = importlib.import_module(f"fundreg.{module}")
        return getattr(mod, cls) if cls else mod

    def patch(path: str, attr: str, wrap: Callable) -> None:
        target = owner(path)
        setattr(target, attr, wrap(getattr(target, attr)))

    for path, attr, name in SPANS:
        patch(path, attr, lambda fn, name=name: tracer.span(name, fn))
    for path, attr, name in LEAVES:
        patch(path, attr, lambda fn, name=name: tracer.leaf(name, fn))
    path, attr, name = CACHED_LEAF
    patch(path, attr, lambda fn: tracer.cached_leaf(name, fn))
    path, attr, name = ITERATED
    patch(path, attr, lambda fn: tracer.iterated(name, fn))

    # ``verify --property`` dispatches through this table, which holds the
    # functions as they were at import.
    runners = owner("cli")._PROPERTY_RUNNERS
    for prop, fn in list(runners.items()):
        runners[prop] = tracer.span(f"checker.{prop}", fn)
