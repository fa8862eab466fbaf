"""Test-only oracles and fixtures: defining formulas straight off the
pictures, the per-shift scans that closed forms replaced, the
``Fraction`` loops that integer comparisons replaced, the object-level
forms that tuple and packed-key code replaced, a Stallings fold for
subgroup membership, and deliberately broken systems for refutation
tests."""

import argparse
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from fundreg import checker, regions
from fundreg.action import (
    IDENTITY,
    ActionElement,
    TrieBall,
    _decode,
    _encode,
    _letters,
    _spread,
    room_reflection,
)
from fundreg.checker import (
    PROP_ADJACENCY_AUDIT,
    PROP_COVERAGE,
    PROP_ORBIT_BOUNDARY,
    PROP_QUOTIENT,
    INCONCLUSIVE,
    PROP_SELF_ADJACENCY,
    REFUTED,
    VERIFIED,
    CylinderSystem,
    LineSystem,
    PathologicalLineSystem,
    PlanePathologicalSystem,
    QuotientDescription,
    VerificationReport,
    _cap,
    _inconclusive,
    _profile_report,
)
from fundreg.cli import UsageError, _PROPERTY_RUNNERS, _parse_fraction, _parse_schedule
from fundreg.freegroup import (
    ReducedWord,
    concat_reduced,
    enumerate_ball,
    invert_letters,
    r_power,
    spine_exponent,
    swap_letters,
    u_power,
)
from fundreg.tilespace import (
    BOTTOM,
    DIAG,
    LEFT,
    LOWER,
    UPPER,
    Cell,
    RoomPoint,
    RoomSet,
    _WORD_R,
    _WORD_U,
    apply_to_point,
    materialize_cell,
)
from interval_oracle import contains


def naive_reflection_image(root, v):
    """Defining formula for a reflection, straight off the gluing picture:
    the room at root*x goes to root*swap(x)."""
    return root * (root.inverse() * v).swapped()


def compose_all(elements):
    out = IDENTITY
    for g in elements:
        out = out * g
    return out


class ReferenceBall:
    """The breadth-first ball build, as ``GroupBall`` first did it.  It
    holds each new layer twice: as keys in insertion order, and as a
    frontier of ``(letters, parity)`` tuples that the next layer is built
    from.  ``depth_of`` maps each key to its layer: the scans list
    witnesses by that layer, then by ``ActionElement.sort_key``."""

    def __init__(self, roots, depth):
        gens = []
        seen_gens = set()
        for root in roots:
            g = room_reflection(root)
            key = _encode(g.spine.letters, g.parity)
            if key not in seen_gens:
                seen_gens.add(key)
                gens.append(g.spine.letters)
        depth_of = {_encode((), 0): 0}
        layers = [[_encode((), 0)]]
        frontier = [((), 0)]
        for k in range(1, depth + 1):
            nxt_keys = []
            nxt = []
            for letters, parity in frontier:
                swapped = swap_letters(letters)
                for gen in gens:
                    # generators have parity 1: new = gen * elem
                    new_letters = concat_reduced(gen, swapped)
                    new_parity = 1 ^ parity
                    key = _encode(new_letters, new_parity)
                    if key not in depth_of:
                        depth_of[key] = k
                        nxt_keys.append(key)
                        nxt.append((new_letters, new_parity))
            layers.append(nxt_keys)
            frontier = nxt
        self.depth_of = depth_of
        self.layers = layers
        self._decoded = {}

    def layer(self, k):
        """Layer k's elements in insertion order, decoded on the first
        call only."""
        if k not in self._decoded:
            self._decoded[k] = tuple(map(_decode, self.layers[k]))
        return self._decoded[k]

    def elements(self):
        """Every element, layer by layer in insertion order."""
        return [g for k in range(len(self.layers)) for g in self.layer(k)]


def ball_keys(ref):
    """The key set of each layer of a ``ReferenceBall``."""
    return [set(layer) for layer in ref.layers]


def ball_depth(ref, g):
    """The layer of a ``ReferenceBall`` that holds g, or None."""
    return ref.depth_of.get(_encode(g.spine.letters, g.parity))


@lru_cache(maxsize=None)
def reference_ball(root_len, depth):
    """The ``ReferenceBall`` over the roots of length <= ``root_len``,
    built once per test process."""
    return ReferenceBall(enumerate_ball(root_len), depth)


def reference_half_ball():
    """The depth-3 ball over the length-<=3 roots (about 0.6 s to build)."""
    return reference_ball(3, 3)


def junction_row(spines, lead):
    """The product-table row oracle: for a swapped key whose parity and
    first letters are those of ``lead``, each generator's product as
    ``(head, drop, keep)``, every spine walked through the junction.  The
    product key ``swapped >> drop << keep | head`` is the swapped key less
    its parity and the letters the junction cancels, under the parity and
    the surviving spine head: the low ``keep`` bits of the spine's
    parity-0 key.  ``spines`` are ``GroupBall._spines``."""
    body = _letters(lead)
    row = []
    for spine, key in spines:
        i = len(spine)
        j = 0
        while i and j < len(body) and spine[i - 1] == -body[j]:
            i -= 1
            j += 1
        keep = 1 + 2 * i
        row.append((key & (1 << keep) - 1 | lead & 1, 1 + 2 * j, keep))
    return row


def reference_min_depth(g):
    """The depth lookup that the midpoint split replaced: a direct lookup
    in the depth-3 ball, then for t = 4 .. 6 a (t - 3) + 3 split whose
    left factor has minimal depth exactly t - 3.  An element outside H_3,
    by the fold, has no depth and skips the splits."""
    half = reference_half_ball()
    found = ball_depth(half, g)
    if found is not None or not fold_member(g.spine.letters, 3):
        return found
    for total in range(4, 7):
        for a in half.layer(total - 3):
            tail = ball_depth(half, a.inverse() * g)
            if tail is not None and tail <= 3:
                return total
    return None


def reference_room_reflection(root):
    """The reflection at ``root`` as a product of words:
    (root * swap(root^-1), 1)."""
    return ActionElement(root * root.inverse().swapped(), 1)


def recording_tries(monkeypatch):
    """What the scan balls build, in order: ``("start", roots, depth)`` for
    each ``TrieBall`` that ``checker`` builds from roots, ``("to_depth",
    depth)`` for each one grown or cut from another, and ``("enumerated",
    k)`` for each layer read element by element."""
    built = []
    trie_ball, to_depth, layer_keys = (
        checker.TrieBall, TrieBall.to_depth, TrieBall._layer_keys
    )

    def recorded_ball(roots, depth):
        built.append(("start", tuple(roots), depth))
        return trie_ball(roots, depth)

    def recorded_to_depth(self, depth):
        built.append(("to_depth", depth))
        return to_depth(self, depth)

    def recorded_keys(self, k):
        built.append(("enumerated", k))
        return layer_keys(self, k)

    monkeypatch.setattr(checker, "TrieBall", recorded_ball)
    monkeypatch.setattr(TrieBall, "to_depth", recorded_to_depth)
    monkeypatch.setattr(TrieBall, "_layer_keys", recorded_keys)
    return built


def reference_turn(ball, key):
    """The turn that ``GroupBall._next_layer`` inlines, key by key: swap the
    letters and the parity, then apply the symmetry that makes the
    swapped last letter canonical."""
    n = key.bit_length()
    return key ^ (_spread(1 ^ ball._choose[key >> n - 3 & 3 ^ 1], n) | 1)


def stallings_graph(generators):
    """The folded Stallings graph of the subgroup of F(r, u) that the
    letter tuples ``generators`` generate (Stallings, "Topology of finite
    graphs", Invent. Math. 1983): a bouquet of one loop per generator at
    vertex 0, folded until no vertex has two edges of one label.  Returns
    {vertex: {letter: vertex}}, each edge stored both ways (label -a
    reads an a edge backwards), with vertex 0 the base."""
    edges, parent, todo = [{}], [0], []
    for gen in generators:
        v = 0
        for i, a in enumerate(gen):
            w = 0
            if i < len(gen) - 1:
                w = len(edges)
                edges.append({})
                parent.append(w)
            todo.append((v, a, w))
            v = w

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def attach(v, a, w):
        old = edges[v].get(a)
        if old is None:
            edges[v][a] = w
        elif find(old) != w:
            # fold: identify the two ends, and re-attach the merged edges
            x, y = sorted((find(old), w))
            parent[y] = x
            todo.extend((x, b, t) for b, t in edges[y].items())
            edges[y] = {}

    while todo:
        v, a, w = todo.pop()
        v, w = find(v), find(w)
        attach(v, a, w)
        attach(w, -a, find(v))
    return {
        v: {a: find(t) for a, t in out.items()}
        for v, out in enumerate(edges)
        if find(v) == v
    }


@lru_cache(maxsize=None)
def root_subgroup_graph(k):
    """The folded graph of the spines of H_k's even part, which
    reflections at the roots of length <= k generate: (s, 1) and (s, 0)
    lie in H_k together, since (e, 1) does, and the products of two
    reflections (g_w * g_v^-1, 0) generate the even part, g_e = e."""
    spines = [reference_room_reflection(w).spine.letters for w in enumerate_ball(k)]
    return stallings_graph(spines)


def fold_member(letters, k):
    """Whether a spine lies in H_k, read along its folded graph."""
    graph = root_subgroup_graph(k)
    v = 0
    for a in letters:
        v = graph[v].get(a)
        if v is None:
            return False
    return v == 0


def reference_canonical_point(room, x, y):
    """``canonical_point`` as it first ran: every coordinate made a
    ``Fraction`` and compared as one, walls pushed in a loop."""
    x = Fraction(x)
    y = Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"coordinates outside the unit box: ({x}, {y})")
    if (x == 0 or x == 1) and (y == 0 or y == 1):
        raise ValueError(f"excluded corner point ({x}, {y})")
    while x == 1 or y == 1:
        if x == 1:
            room, x = room * _WORD_R, Fraction(0)
        if y == 1:
            room, y = room * _WORD_U, Fraction(0)
    return RoomPoint(room, x, y)


def reference_meeting_candidates(center):
    """``Free2HouseSystem.meeting_candidates`` as it first ran: each
    spine v * back^-ε(v) a product of words, ε read off every v."""
    cands = set()
    for parity, step, back in ((0, u_power, r_power), (1, r_power, u_power)):
        for v in (center, center * step(1), center * step(-1)):
            cands.add(ActionElement(v * back(-v.exponent_sum()), parity))
    return sorted(cands, key=ActionElement.sort_key)


def room_pair_candidates(s):
    """Every element that moves some room of ``s`` onto a room of ``s``,
    each once: the candidates the free2house scans translated before
    they read overlaps off a meet index.

    (spine, p) sends room a to spine * swap^p(a), so sending a to b
    pins spine = b * swap^p(a)^-1.  A translate g.s meets s only if g
    puts a room of s onto a room of s, so these at most
    2 * |rooms(s)|^2 candidates include every g with g.s and s meeting.
    """
    rooms = [room.letters for room in s.rooms]
    seen = set()
    for parity in (0, 1):
        for a in rooms:
            a_inv = invert_letters(swap_letters(a) if parity else a)
            for b in rooms:
                key = (concat_reduced(b, a_inv), parity)
                if key not in seen:
                    seen.add(key)
                    yield ActionElement(ReducedWord._trusted(key[0]), parity)


def covering_point(p):
    """Image in the punctured plane: room offset plus box coordinates."""
    re, ue = p.room.exponent_vector()
    return (re + p.x, ue + p.y)


def reflect_across_diagonal(anchor, point):
    """Reflect the plane across the slope-one line through the anchor."""
    a, b = anchor
    x, y = point
    return (y - b + a, x - a + b)


def plane2d_closure_membership(x, y):
    """Closure membership: x in (0, 1], y in [1/x, 1/x + 1]."""
    x, y = Fraction(x), Fraction(y)
    if x == 0:
        raise ValueError("outside chart")
    if not 0 < x <= 1:
        return False
    return 1 / x <= y <= 1 / x + 1


def spine_cells(radius, cell):
    """One ``cell`` in every spine room r^i, |i| <= radius, as a room set."""
    out = RoomSet({})
    for i in range(-radius, radius + 1):
        out = out.union(materialize_cell(r_power(i), cell))
    return out


def point_atom(p):
    """The atom of its room that the canonical point ``p`` lies in."""
    if p.x == 0:
        return LEFT
    if p.y == 0:
        return BOTTOM
    if p.x == p.y:
        return DIAG
    return UPPER if p.x < p.y else LOWER


def closed_atoms(room):
    """The atoms of ``room`` that the closed free2house region holds, as
    drawn: the upper triangle with its diagonal and left wall in a spine
    room, the bottom wall in the room just above one, none elsewhere."""
    if spine_exponent(room) is not None:
        return {UPPER, DIAG, LEFT}
    prefix = room * u_power(-1)
    if spine_exponent(prefix) is not None and prefix * u_power(1) == room:
        return {BOTTOM}
    return set()


def cell_closure(radius):
    """The free2house closure as drawn cell by cell."""
    return spine_cells(radius, Cell.CLOSED_UPPER_TRIANGLE)


def cell_boundary(radius):
    """The free2house boundary as drawn cell by cell."""
    return spine_cells(radius, Cell.UPPER_BOUNDARY)


class CorruptedLine(LineSystem):
    """The line with an oversized interval (0, 3/2): its translates
    overlap, so disjointness and boundary containment must refute, and the
    generator carries its left end to 1, short of the right end, so the
    quotient must refute.  It keeps the standard interval's windows and
    margin; its coverage union would overlap, so coverage is
    inconclusive."""

    name = "line-corrupted"

    def region(self, n_intervals):
        # looked up at the call, so that a test can swap the interval class
        return regions.IntervalSet([(0, Fraction(3, 2))])

    def coverage(self, cfg):
        return _inconclusive(
            PROP_COVERAGE, "translates of the oversized interval overlap; no tiling"
        )


def plane2d_membership(x, y):
    """Open membership in the hyperbola strip over x in (0, 1), the
    plane's band {0 < x < 1, 1/x < y < 1/x + 1} by its defining
    inequalities.  With x = p/q and y = a/b in lowest terms they read
    q b < a p < (q + p) b once 0 < p < q: integer compares only."""
    p, q = x.numerator, x.denominator
    if p == 0:
        raise ValueError("outside chart")
    if not 0 < p < q:
        return False
    a, b = y.numerator, y.denominator
    return q * b < a * p < (q + p) * b


class FiberBand(PlanePathologicalSystem):
    """The plane with the band {0 < x < 1, y - 1/x in the unit fiber},
    the fiber being (0, height) or the open intervals ``pairs``: a short
    band leaves gaps between its (0, n) translates, and a tall one
    overlaps them."""

    def __init__(self, height=1, pairs=None):
        super().__init__()
        self.pairs = pairs or [(0, Fraction(height))]

    def region(self, n_intervals=1):
        return regions.IntervalSet(self.pairs)

    def member(self, x, y):
        """Open membership in the band, read off the fiber's pairs."""
        return 0 < x < 1 and contains(self.region(), y - 1 / x)


def plane2d_meets_box_by_bands(m, n, half_width, center=(0, 0)):
    """Whether closure(region) + (m, n) meets the open box
    (cx - w, cx + w) x (cy - w, cy + w), one shift at a time: over the x
    slice (x_lo, x_hi] the translated closure sweeps y from 1/x_hi + n to
    1/x_lo + 1 + n (no upper end when x_lo = 0)."""
    w = Fraction(half_width)
    cx, cy = Fraction(center[0]), Fraction(center[1])
    x_lo = max(cx - w - m, Fraction(0))
    x_hi = min(cx + w - m, Fraction(1))
    if x_lo >= x_hi:
        return False
    band_lo = 1 / x_hi
    band_hi = None if x_lo == 0 else 1 / x_lo + 1
    y_lo, y_hi = cy - w - n, cy + w - n
    if y_hi <= band_lo:
        return False
    if band_hi is not None and y_lo >= band_hi:
        return False
    return True


def plane2d_box_shifts_by_fractions(m, reach, half_width, center=(0, 0)):
    """``regions.plane2d_box_shifts`` in ``Fraction`` arithmetic, as it
    first ran: the n strictly between cy - w - (1/x_lo + 1) and
    cy + w - 1/x_hi, bounded below only by the reach when x_lo = 0."""
    w = Fraction(half_width)
    cx, cy = Fraction(center[0]), Fraction(center[1])
    x_lo = max(cx - w - m, Fraction(0))
    x_hi = min(cx + w - m, Fraction(1))
    if x_lo >= x_hi:
        return range(0)
    first = -reach if x_lo == 0 else max(-reach, floor(cy - w - 1 / x_lo - 1) + 1)
    last = min(reach, ceil(cy + w - 1 / x_hi) - 1)
    return range(first, last + 1)


def plane_pairs_by_scan(k, center):
    """The shifts (m, n), |m| <= 2 and |n| <= 4k, whose closure translate
    meets the box of half width 1/k at ``center``: all 5 (8k + 1) pairs
    tested one by one, as plane local finiteness once did."""
    reach = 4 * k
    half = Fraction(1, k)
    return [
        (m, n)
        for m in range(-2, 3)
        for n in range(-reach, reach + 1)
        if plane2d_meets_box_by_bands(m, n, half, center)
    ]


class ScanningPlane(PlanePathologicalSystem):
    """Plane local finiteness by the full shift scan."""

    def local_finiteness(self, cfg):
        cx, cy = self.lf_center()
        counts = []
        last_pairs = []
        for k in cfg.schedule:
            last_pairs = plane_pairs_by_scan(k, (cx, cy))
            counts.append(len(last_pairs))
        witnesses = [
            f"box center ({regions.format_fraction(cx)}, "
            f"{regions.format_fraction(cy)})",
            "meeting shifts at the last horizon: "
            + ", ".join(str(p) for p in last_pairs[:8])
            + (", ..." if len(last_pairs) > 8 else ""),
        ]
        report = _profile_report("local-finiteness", cfg, None, counts, witnesses)
        return report, {"(0, 1/2)": counts}


class ScanningCylinder(CylinderSystem):
    """The cylinder's self-adjacency, audit and orbit count by per-shift
    loops over the band (0, c), independent of the line code they run:
    every shift |m| <= m_range, and every sample, tested in ``Fraction``
    arithmetic."""

    def finite_self_adjacency(self, cfg):
        c = self.step
        lo, hi = -c, 2 * c
        shifts = range(-cfg.m_range, cfg.m_range + 1)
        overlap = [m for m in shifts if abs(m) * c < hi - lo]
        counts = [sum(1 for m in overlap if abs(m) <= k) for k in cfg.schedule]
        report = _profile_report(
            PROP_SELF_ADJACENCY,
            cfg,
            cfg.m_range,
            counts,
            [
                f"candidate band ({regions.format_fraction(lo)}, "
                f"{regions.format_fraction(hi)})",
                f"overlapping shifts: {overlap}",
            ],
        )
        return report, overlap

    def adjacency_audit(self, cfg):
        _, overlap = self.cached_self_adjacency(cfg)
        bound = len(overlap)
        c = self.step
        worst = 0
        samples = [Fraction(j, 8) * c for j in range(-8, 17)]
        for t in samples:
            base = floor(t / c)
            lo, hi = base * c - c, base * c + 2 * c
            seen = sum(
                1 for m in range(base - 4, base + 5) if m * c < hi and m * c + c > lo
            )
            worst = max(worst, seen)
        return VerificationReport(
            PROP_ADJACENCY_AUDIT,
            VERIFIED if worst <= bound else REFUTED,
            {"depth": None, "radius": cfg.m_range},
            [len(samples), bound, worst],
            [
                f"certified overlap family size {bound}",
                f"max translates meeting a sampled patch: {worst}",
            ],
        )

    def orbit_boundary(self, cfg):
        c = self.step
        endpoints = {Fraction(0), c}
        hits = [m for m in range(-cfg.m_range, cfg.m_range + 1) if m * c in endpoints]
        return VerificationReport(
            PROP_ORBIT_BOUNDARY,
            VERIFIED,
            {"depth": None, "radius": cfg.m_range},
            [len(hits)],
            [f"orbit of the 0 section meets the band boundary at shifts {hits}"],
        )


def per_horizon_self_adjacency(system, cfg):
    """``LineSystem.finite_self_adjacency`` as it first ran: each horizon k
    translates the inflated region once per shift |m| <= k."""
    eps = system.margin()
    inflated = system.region(cfg.n_intervals).inflate(eps)
    counts = []
    last_hits = []
    for k in cfg.schedule:
        hits = [
            m
            for m in range(-k, k + 1)
            if inflated.first_overlap(inflated.translate(m)) is not None
        ]
        counts.append(len(hits))
        last_hits = hits
    report = _profile_report(
        PROP_SELF_ADJACENCY,
        cfg,
        cfg.m_range,
        counts,
        [
            f"candidate: closure inflated by {regions.format_fraction(eps)}",
            f"overlapping shifts at the last horizon: {last_hits}",
        ],
    )
    return report, last_hits


def pairwise_line_quotient(system, cfg):
    """The family's quotient check as it first ran: the region's
    ``Fraction`` pairs, every consecutive pair compared by value.  One
    tile has no pair to compare, so its verdict is inconclusive."""
    fmt = regions.format_fraction
    pairs = system.region(cfg.n_intervals).pairs
    idents = []
    checked = 0
    bad = []
    for n in range(len(pairs) - 1):
        checked += 1
        if pairs[n][1] + 1 != pairs[n + 1][0]:
            bad.append(f"tiles {n} and {n + 1} fail to glue")
            continue
        idents.append(
            {
                "from": f"right end of tile {n}",
                "to": f"left end of tile {n + 1}",
                "via": "m = 1",
            }
        )
    desc = QuotientDescription(
        system.name,
        [f"[{fmt(lo)}, {fmt(hi)}]" for lo, hi in pairs[:4]]
        + [f"... {len(pairs)} tiles in total"],
        idents[:4] + [{"note": f"... {len(idents)} gluings in total"}],
        [],
        False,
        [
            "tiles chain into a half-open arc; the closing point is "
            "never reached, so the quotient map to the circle is a "
            "continuous bijection but not a homeomorphism"
        ],
    )
    if len(pairs) == 1:
        reason = "one tile: no consecutive pair whose gluing could be tested"
        report = VerificationReport(
            PROP_QUOTIENT, INCONCLUSIVE, {"depth": None, "radius": None}, [], [reason]
        )
        return report, desc
    report = VerificationReport(
        PROP_QUOTIENT,
        REFUTED if bad else VERIFIED,
        {"depth": None, "radius": cfg.n_intervals},
        [len(pairs), checked, len(bad)],
        _cap(bad) if bad else ["all consecutive tiles glue by m = 1"],
    )
    return report, desc


def pathological_interval(n):
    """The n-th tile of the accumulating family as one ``Fraction`` pair,
    (n + n/(n+1), n + (n+1)/(n+2)), of width 1/((n+1)(n+2)): the build
    that ``regions.pathological_1d``'s integer endpoints replaced."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return (Fraction(n * (n + 2), n + 1), Fraction(n * (n + 3) + 1, n + 2))


class GappedLine(PathologicalLineSystem):
    """The pathological family with tile ``gap`` left out: the tiles on
    either side of the hole do not glue, so the quotient must refute."""

    def __init__(self, gap):
        super().__init__()
        self.gap = gap

    def region(self, n_intervals):
        return regions.IntervalSet(
            pathological_interval(n) for n in range(n_intervals) if n != self.gap
        )


# ------------------------------------------- orbit representatives (criterion 7)


def meeting_inverses(system, center):
    """The inverses of ``system.meeting_candidates(center)``, in its order."""
    return [g.inverse() for g in system.meeting_candidates(center)]


def in_closed_region(system, p):
    """Exact membership of a canonical point in the system's closed
    region, read off ``closure(len(room))``, which holds every closed
    atom of a room of that length."""
    return point_atom(p) in system.closure(len(p.room)).atoms_at(p.room)


def orbit_representatives(system, p):
    """All translates of ``p`` landing in the closed region.

    Completeness rests on the six-candidate enumeration: any element
    moving ``p`` into the closure must place a closure room onto the
    coordinate patch at ``p``'s room.  Where each candidate sends the
    room, and which atoms of the image room are closed, depend on the
    room alone, so they are found once per room; a point then only swaps
    its coordinates and tests its atom.
    """

    def build():
        out = []
        for g in meeting_inverses(system, p.room):
            room = g.apply(p.room)
            if atoms := system.closure(len(room)).atoms_at(room):
                out.append((g.parity, room, atoms))
        return out

    found = {}
    for parity, room, atoms in system._once(("closed images", p.room), build):
        q = RoomPoint(room, p.y, p.x) if parity else RoomPoint(room, p.x, p.y)
        if point_atom(q) in atoms:
            found.setdefault(q.text(), q)
    return [found[key] for key in sorted(found)]


def normalize_representative(system, p):
    """Send a bottom-wall representative to its glued left-wall partner."""
    if point_atom(p) == BOTTOM and in_closed_region(system, p):
        prefix = p.room * u_power(-1)
        return apply_to_point(room_reflection(prefix), p)
    return p


def representative_class_count(system, reps):
    """Distinct representatives after resolving the edge gluing."""
    return len({normalize_representative(system, q).text() for q in reps})


# ------------------------------------------------------------- argparse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@lru_cache(maxsize=None)
def reference_parser() -> _Parser:
    """The argparse parser that ``fundreg.cli.parse`` replaced, kept
    verbatim as its oracle."""
    parser = _Parser(
        prog="fundreg",
        description="Exact tiling verification at truncation scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def radius_and_out(p: _Parser) -> None:
        p.add_argument("--radius", type=int, default=8, help="word ball radius")
        p.add_argument("--out", help="write output to this file instead of stdout")

    def common(p: _Parser) -> None:
        p.add_argument("--depth", type=int, default=4, help="group ball depth")
        radius_and_out(p)
        p.add_argument(
            "--schedule",
            type=_parse_schedule,
            default=(2, 3, 4, 5, 6),
            help="comma-separated growth horizons, e.g. 2,3,4,5,6",
        )
        p.add_argument(
            "--N",
            dest="n_intervals",
            type=int,
            default=200,
            help="interval count for the line systems",
        )
        p.add_argument(
            "--c",
            type=_parse_fraction,
            default=Fraction(1),
            help="cylinder shift (rational)",
        )
        p.add_argument(
            "--x-noncompact",
            action="store_true",
            help="model the cylinder cross-section as non-compact",
        )

    p_verify = sub.add_parser("verify", help="run checks against expectations")
    p_verify.add_argument("selector", choices=checker.SELECTORS)
    p_verify.add_argument(
        "--property",
        choices=sorted(_PROPERTY_RUNNERS),
        help="run a single property instead of the battery",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    common(p_verify)

    p_render = sub.add_parser("render", help="draw an SVG picture")
    p_render.add_argument("view", choices=("nbhd", "spine", "quotient"))
    p_render.add_argument("center", nargs="?", default="", help="room word, e.g. ru")
    radius_and_out(p_render)

    p_quot = sub.add_parser("quotient", help="emit the identification structure")
    p_quot.add_argument("selector", choices=checker.SELECTORS)
    p_quot.add_argument("--format", choices=("json", "svg"), default="json")
    common(p_quot)

    p_conf = sub.add_parser("conformal", help="smooth rescaling diagnostics")
    p_conf.add_argument("--s", type=float, required=True, help="scaling step")
    p_conf.add_argument("--grid", type=int, default=64, help="samples per period")
    p_conf.add_argument(
        "--K", dest="reach", type=int, default=6, help="periods modelled each side"
    )
    p_conf.add_argument(
        "--null-rescaling",
        action="store_true",
        help="use the zero field: a control that must fail the isometry check",
    )
    p_conf.add_argument("--format", choices=("json", "csv"), default="json")
    p_conf.add_argument("--out", help="write output to this file instead of stdout")

    return parser
