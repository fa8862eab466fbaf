"""Truncation-scale verification of fundamental-region properties.

Every operation here follows one discipline: enumerate a finite part of
the acting group (and of the tiled space), test the property on exactly
that part with rational arithmetic, and return a report whose verdict is
one of three strings.  ``verified-at-truncation`` means the enumeration
saw no violation, ``refuted`` means a concrete witness was found and
re-validated, ``inconclusive`` means the enumeration was too small to
decide.  No operation extrapolates silently.

Three rules decide every verdict.  A scan (``_scan_report``) refutes
exactly when it found a violating translate, lists at most eight, and
otherwise verifies.  A count over a growth schedule (``_profile_report``)
is stable when its last three entries agree, and refuting when it grows
strictly across the whole schedule, unless some candidate went uncounted.
A property without a certificate is inconclusive (``_inconclusive``).
Only the plane's profile-derived self-adjacency builds a report
otherwise.

Each system class owns its property checks, its expected battery
verdicts and its compactness facts (see ``System``).  The module-level
check functions hand each call to the system, and the battery and
``verify --property`` reach them by name through ``CHECKS``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Any, Callable, Iterable, Optional, Sequence

from .action import (
    ActionElement,
    GroupBall,
    generator_text,
    group_ball,
    identity,
    in_root_subgroup,
    room_reflection,
    walk_to_spine,
)
from .freegroup import (
    R,
    U,
    ReducedWord,
    ball_size,
    concat_reduced,
    enumerate_ball,
    invert_letters,
    r_power,
    swap_letters,
)
from .regions import (
    IntervalSet,
    Rational,
    format_fraction,
    pathological_1d,
    plane2d_box_shifts,
    plane2d_point_above,
    # No check calls it.  perfbench's tracer counts calls through this
    # name, and its count of 0 shows that no battery scans plane shifts.
    plane2d_translate_meets_box,
    standard_interval,
)
from .record import FrozenRecord, Record, set_field
from .tilespace import (
    NO_ATOMS,
    UPPER,
    Cell,
    RoomSet,
    apply_to_point,
    canonical_point,
    materialize_cell,
    swap_atoms,
)

# ----------------------------------------------------------------- verdicts

VERIFIED = "verified-at-truncation"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

EXIT_CODES = {VERIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}

PROP_DISJOINTNESS = "disjointness"
PROP_COVERAGE = "coverage"
PROP_BOUNDARY = "boundary-containment"
PROP_LOCAL_FINITENESS = "local-finiteness"
PROP_SELF_ADJACENCY = "finite-self-adjacency"
PROP_ADJACENCY_AUDIT = "self-adjacency-implies-local-finiteness"
PROP_ORBIT_BOUNDARY = "orbit-boundary-finiteness"
PROP_QUOTIENT = "quotient-structure"
PROP_COMPACTNESS = "compactness-proxy"
PROP_FIXED_POINTS = "fixed-points"


class VerificationReport(Record):
    """Outcome of one verification operation.

    ``counts`` is the enumeration profile the verdict was judged on (one
    entry per schedule step for profile operations, summary tallies for
    scan operations).  ``witnesses`` are short human-readable strings;
    for a refutation they name concrete violating elements that were
    re-validated exactly before being reported.
    """

    __slots__ = ("property_name", "verdict", "truncation", "counts", "witnesses")

    def __init__(
        self,
        property_name: str,
        verdict: str,
        truncation: dict,
        counts: Optional[list[int]] = None,
        witnesses: Optional[list[str]] = None,
    ) -> None:
        self.property_name = property_name
        self.verdict = verdict
        self.truncation = truncation
        self.counts = [] if counts is None else counts
        self.witnesses = [] if witnesses is None else witnesses

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "verdict": self.verdict,
            "truncation": {
                "depth": self.truncation.get("depth"),
                "radius": self.truncation.get("radius"),
            },
            "counts": list(self.counts),
            "witnesses": list(self.witnesses),
        }

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


class QuotientDescription(Record):
    """Identification structure of the closure modulo the action."""

    __slots__ = (
        "system",
        "pieces",
        "identifications",
        "removed_points",
        "compact",
        "notes",
    )

    def __init__(
        self,
        system: str,
        pieces: list[str],
        identifications: list[dict[str, str]],
        removed_points: list[str],
        compact: bool,
        notes: Optional[list[str]] = None,
    ) -> None:
        self.system = system
        self.pieces = pieces
        self.identifications = identifications
        self.removed_points = removed_points
        self.compact = compact
        self.notes = [] if notes is None else notes

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "pieces": list(self.pieces),
            "identifications": [dict(d) for d in self.identifications],
            "removed_points": list(self.removed_points),
            "compact": self.compact,
            "notes": list(self.notes),
        }


class RunConfig(FrozenRecord):
    """Shared truncation knobs, immutable and hashable.

    depth        word length bound for enumerated group elements
    radius       room-word length bound for the tiled space
    schedule     strictly increasing horizons for profile operations
    n_intervals  tile count for the unbounded interval family
    m_range      translation range for line and plane scans
    """

    __slots__ = ("depth", "radius", "schedule", "n_intervals", "m_range")

    def __init__(
        self,
        depth: int = 4,
        radius: int = 8,
        schedule: tuple[int, ...] = (2, 3, 4, 5, 6),
        n_intervals: int = 200,
        m_range: int = 200,
    ) -> None:
        if depth < 0 or radius < 0:
            raise ValueError("depth and radius must be nonnegative")
        if len(schedule) < 3:
            raise ValueError("schedule needs at least three horizons")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if any(k < 1 for k in schedule):
            raise ValueError("schedule horizons must be positive")
        if n_intervals < 1 or m_range < 1:
            raise ValueError("n_intervals and m_range must be positive")
        set_field(self, "depth", depth)
        set_field(self, "radius", radius)
        set_field(self, "schedule", schedule)
        set_field(self, "n_intervals", n_intervals)
        set_field(self, "m_range", m_range)


def stabilized(counts: Sequence[int]) -> bool:
    """Last three entries agree."""
    return len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]


def _monotone(counts: Sequence[int]) -> bool:
    return all(b >= a for a, b in zip(counts, counts[1:]))


def profile_verdict(counts: Sequence[int]) -> str:
    """Stable tail verifies, strict growth refutes, anything else is
    inconclusive.  A count that falls as the horizon grows fits neither
    rule (a short schedule can shrink a metric window faster than the
    enumeration grows), so it is inconclusive too."""
    if not _monotone(counts):
        return INCONCLUSIVE
    if stabilized(counts):
        return VERIFIED
    if all(b > a for a, b in zip(counts, counts[1:])):
        return REFUTED
    return INCONCLUSIVE


def _profile_report(
    prop: str,
    cfg: RunConfig,
    radius: Optional[int],
    counts: list[int],
    witnesses: list[str],
    unresolved: Optional[str] = None,
) -> VerificationReport:
    """Report judged by ``profile_verdict`` at depth ``cfg.schedule[-1]``; a
    non-monotone profile says so in a witness.  ``unresolved`` is the reason
    some candidates went uncounted: it makes the verdict inconclusive and
    is the last witness."""
    if not _monotone(counts):
        witnesses = witnesses + [
            f"counts {counts} are not monotone in the horizon: "
            "neither the stable nor the growth rule applies"
        ]
    verdict = profile_verdict(counts)
    if unresolved:
        verdict, witnesses = INCONCLUSIVE, witnesses + [unresolved]
    truncation = {"depth": cfg.schedule[-1], "radius": radius}
    return VerificationReport(prop, verdict, truncation, counts, witnesses)


def _scan_report(
    prop: str,
    depth: Optional[int],
    radius: Optional[int],
    counts: list[int],
    bad: list[str],
    ok: Sequence[str] = (),
) -> VerificationReport:
    """Report judged by the scan rule: any violation found refutes, and
    the first eight of them are listed; otherwise the scan verifies and
    lists ``ok``.  A check that cannot refute passes ``bad=[]``."""
    return VerificationReport(
        prop,
        REFUTED if bad else VERIFIED,
        {"depth": depth, "radius": radius},
        counts,
        _cap(bad or ok),
    )


def _inconclusive(prop: str, reason: str) -> VerificationReport:
    return VerificationReport(
        prop, INCONCLUSIVE, {"depth": None, "radius": None}, [], [reason]
    )


def _cap(items: Iterable[str], limit: int = 8) -> list[str]:
    out = []
    for item in items:
        if len(out) == limit:
            out.append("...")
            break
        out.append(item)
    return out


# ------------------------------------------------------------------ budgets

# The most bytes one enumeration may hold, by its own upper estimate.
BUDGET = 128 * 2**20


class BudgetExceeded(ValueError):
    """An enumeration would hold more than ``BUDGET`` bytes."""


def refuse_over_budget(need: int, what: str) -> None:
    """Raise BudgetExceeded when ``need``, the estimated bytes ``what``
    would hold, is over BUDGET; each enumeration asks before it starts.
    The need is rounded up, so one just over the budget reads above it."""
    if need > BUDGET:
        mib, budget = -(-need * 10 // 2**20) / 10, BUDGET / 2**20
        raise BudgetExceeded(
            f"{what} needs about {mib:,.1f} MiB; the budget is {budget:,.0f} MiB"
        )


MeetIndex = dict[tuple[tuple[int, ...], int], dict[ReducedWord, frozenset[int]]]


# ------------------------------------------------------------------ systems


class System:
    """One action with a candidate fundamental region.

    A system class supplies its property checks as methods, each taking
    a ``RunConfig``:

        disjointness, coverage,
        boundary_containment                   -> VerificationReport
        local_finiteness                       -> (report, counts per center)
        finite_self_adjacency                  -> (report, overlap family or None)
        adjacency_audit, orbit_boundary        -> VerificationReport
        quotient                               -> (report, description or None)

    plus ``name``, ``expected`` (property -> expected verdict, in battery
    order; the battery runs exactly these) and the compactness facts
    ``cocompact`` and ``closure_bounded``.  This base supplies, once, the
    inconclusive reports for an audit or orbit count without a
    certificate, the compactness check (which needs only the facts and
    finite self-adjacency), and ``_once``, the one memo a system keeps:
    the two profiles other checks reuse, and whatever structures a system
    builds for several checks.
    """

    name: str
    expected: dict[str, str]
    cocompact: bool
    closure_bounded: bool

    def __init__(self) -> None:
        self._memo: dict[tuple, Any] = {}

    def _once(self, key: tuple, make: Callable[[], Any]) -> Any:
        """``make()``, called the first time ``key`` is asked for and held
        for later calls.  Callers share the result, so none may mutate it."""
        # the memo marks a miss: it is never one of its own values
        found = self._memo.get(key, self._memo)
        if found is self._memo:
            found = self._memo[key] = make()
        return found

    def cached_local_finiteness(self, cfg: RunConfig) -> tuple:
        """``local_finiteness(cfg)``, computed once per configuration."""
        return self._once(
            (PROP_LOCAL_FINITENESS, cfg), lambda: self.local_finiteness(cfg)
        )

    def cached_self_adjacency(self, cfg: RunConfig) -> tuple:
        """``finite_self_adjacency(cfg)``, computed once per configuration."""
        return self._once(
            (PROP_SELF_ADJACENCY, cfg), lambda: self.finite_self_adjacency(cfg)
        )

    def adjacency_audit(self, cfg: RunConfig) -> VerificationReport:
        return _inconclusive(
            PROP_ADJACENCY_AUDIT, "no finite self-adjacency certificate to audit"
        )

    def orbit_boundary(self, cfg: RunConfig) -> VerificationReport:
        return _inconclusive(
            PROP_ORBIT_BOUNDARY,
            "finiteness needs a self-adjacency certificate absent here",
        )

    def compactness(self, cfg: RunConfig) -> VerificationReport:
        """Consistency of one implication instance: a verified finite
        self-adjacency certificate plus a cocompact action forces a
        bounded closure.  Never claims the converse."""
        fsa_report, _ = self.cached_self_adjacency(cfg)
        premise = fsa_report.verdict == VERIFIED and self.cocompact
        holds = (not premise) or self.closure_bounded
        lines = [
            f"finite self-adjacency: {fsa_report.verdict}",
            f"action cocompact: {self.cocompact}",
            f"closure bounded: {self.closure_bounded}",
            f"implication instance {'holds' if holds else 'fails'}"
            + ("" if premise else " (vacuously)"),
        ]
        depth, radius = (fsa_report.truncation[key] for key in ("depth", "radius"))
        bad = [] if holds else lines
        return _scan_report(PROP_COMPACTNESS, depth, radius, [], bad, lines)


class Free2HouseSystem(System):
    """Reflection action on the glued square-tile space.

    Generators are the order-two room reflections; enumeration happens in
    two balls with different root sets.  Scans over all group elements
    use reflections rooted at words of length <= 2.  Minimum-depth
    profiling uses roots of length <= 3: the 102 candidates of the default
    centers all have depths 0 to 4 over those roots (11, 35, 38, 16 and 2
    of them), but five of the six candidates at ``rurur`` lie outside the
    group they generate.
    """

    name = "free2house"
    scan_root_len = 2
    profile_root_len = 3
    # the depth-2 half ball decides depths up to 4, and midpoint splits
    # over half balls of depth at most 3 reach 6
    depth_cap = 6
    expected = {
        PROP_DISJOINTNESS: VERIFIED,
        PROP_COVERAGE: VERIFIED,
        PROP_BOUNDARY: VERIFIED,
        PROP_LOCAL_FINITENESS: VERIFIED,
        PROP_SELF_ADJACENCY: REFUTED,
        PROP_QUOTIENT: VERIFIED,
        PROP_COMPACTNESS: VERIFIED,
    }
    cocompact = False
    closure_bounded = False

    # -- enumeration -------------------------------------------------

    def scan_ball(self, depth: int) -> GroupBall:
        """The scan ball, refused over budget by ``scan_ball_estimate``.

        Grown from the depth-2 ball the estimate reads: the scans ask it
        for its size, which its tries count without enumerating a layer,
        and for the layer of a few keys.  The half balls are the same
        layer tries over the profile roots: ``_min_depth`` looks a
        candidate up in one, and a midpoint split takes one left product
        of a layer's trie and meets it with the others (``splits``)."""

        def build() -> GroupBall:
            need = self.scan_ball_estimate(depth)
            refuse_over_budget(need, f"the scan ball at depth {depth}")
            return self._scan_start().to_depth(depth)

        return self._once(("scan ball", depth), build)

    def _scan_start(self) -> GroupBall:
        return self._once(
            ("scan start",), lambda: GroupBall(enumerate_ball(self.scan_root_len), 2)
        )

    def scan_ball_estimate(self, depth: int) -> int:
        """Upper estimate of the bytes building ``scan_ball(depth)`` holds
        at its peak, as derived for a packed-key build, since removed,
        that held every layer but the deepest and counted that one in
        low-bit classes: 24 an element of the held layers, 5 an element of
        the deepest, and 256 KiB for a product table.  The tries hold a
        few hundred nodes a layer, so the bound is now loose (traced peaks
        at depths 4, 5 and 6: 0.11, 0.18 and 0.23 MiB).  This old pricing
        is kept, and with it the refusal of depth 7, until one byte ledger
        counts what a run holds (ROADMAP item 5).

        The layer sizes are those of the depth-2 scan ball, read once per
        system; deeper layers grow by its layer-2/layer-1 ratio 232/17 =
        13.65, over the true 13.41 from layer 3 on."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        sizes = self._scan_start().layer_sizes()
        layers = sizes[: depth + 1]
        while len(layers) <= depth:
            layers.append(-(-layers[-1] * sizes[2] // sizes[1]))  # rounded up
        return 24 * sum(layers[:-1]) + 5 * layers[-1] + 2**18

    def rooms(self, radius: int) -> tuple[ReducedWord, ...]:
        """The room words of length <= ``radius``, refused over budget at
        160 bytes a room (its word, letter tuple and ball slot), 8 a letter
        and 1 KiB; 206 and 214 bytes a room were traced at radii 8 and 9."""
        need = ball_size(radius) * (160 + 8 * radius) + 2**10
        refuse_over_budget(need, f"the room ball at radius {radius}")
        return enumerate_ball(radius)

    def half_ball(self, depth: int) -> GroupBall:
        return self._once(
            ("half ball", depth),
            lambda: group_ball(enumerate_ball(self.profile_root_len), depth),
        )

    # -- region pieces -----------------------------------------------

    def spine_estimate(self, radius: int) -> int:
        """Upper estimate of the bytes the region, its closure and its
        boundary hold together: 24 (R + 1)^2 for their letters and
        4 KiB (R + 1) for their rooms (18.4 MiB traced at R = 1000).  It
        also bounds the quotient's description, which names every spine
        room (2.9 MiB traced at R = 1000)."""
        return 24 * (radius + 1) ** 2 + 4096 * (radius + 1)

    def region(self, radius: int) -> RoomSet:
        """The open region: the open upper triangle of each spine room
        r^i, |i| <= radius, refused over budget by ``spine_estimate``."""

        def build() -> RoomSet:
            need = self.spine_estimate(radius)
            refuse_over_budget(need, f"the spine region at radius {radius}")
            return RoomSet({r_power(i): {UPPER} for i in range(-radius, radius + 1)})

        return self._once(("region", radius), build)

    def closure(self, radius: int) -> RoomSet:
        return self._once(
            ("closure", radius), lambda: self.region(radius).closure()
        )

    def boundary(self, radius: int) -> RoomSet:
        return self._once(
            ("boundary", radius),
            lambda: self.closure(radius).difference(self.region(radius)),
        )

    # -- candidates ----------------------------------------------------

    def meeting_candidates(self, center: ReducedWord) -> list[ActionElement]:
        """The six elements whose closed-region translate meets the
        coordinate neighbourhood at ``center``.

        Each comes from one coset constraint: the translate must place a
        triangle-bearing room onto a specific room of the neighbourhood,
        and the exponent-sum invariant pins a single element per
        placement.  Exactly six placements are geometrically possible:
        at each parity, v = center * step^s for s in 0, 1, -1, and the
        spine v * back^-ε(v).  The spines are built as letter tuples, and
        ε(v) = ε(center) + s, so ε is read once per center.
        """

        def build() -> list[ActionElement]:
            letters = center.letters
            level = center.exponent_sum()
            spines = set()
            # parity 0 steps along u and returns along r; parity 1 swaps them
            for parity, step, back in ((0, U, R), (1, R, U)):
                for s in (0, 1, -1):
                    v = concat_reduced(letters, (step * s,)) if s else letters
                    n = level + s
                    home = (back if n < 0 else -back,) * abs(n)
                    spines.add((concat_reduced(v, home), parity))
            cands = [ActionElement(ReducedWord._trusted(w), p) for w, p in spines]
            return sorted(cands, key=ActionElement.sort_key)

        return self._once(("meeting candidates", center), build)

    def candidate_min_depth(self, g: ActionElement, bound: int) -> Optional[int]:
        """Smallest reflection count producing ``g``, or None above ``bound``.

        Exact up to ``depth_cap``.  A g outside H_3, the group of the half
        balls' roots, is None at once (``in_root_subgroup``).  Depths up
        to 2 are one lookup in the depth-2 half ball.  Past 2, only totals
        t of g's parity can be minimal (generators have parity 1).
        Scanning them upward, t is found when some a of minimal depth
        floor(t/2) has a^-1 g within ceil(t/2), in the half ball of depth
        ceil(t/2): a minimal product splits so at its midpoint.
        ``splits`` asks it with one left product of layer floor(t/2)'s
        trie, met with the trie of each layer of the right parity.  Past
        the cap: None.
        """
        found = self._once(("min depth", g), lambda: self._min_depth(g))
        return found if found is not None and found <= bound else None

    def _min_depth(self, g: ActionElement) -> Optional[int]:
        if not in_root_subgroup(g.spine.letters, self.profile_root_len):
            return None
        found = self.half_ball(2).depth_of(g.spine.letters, g.parity)
        if found is not None:
            return found
        for total in range(4 - g.parity, self.depth_cap + 1, 2):
            if self.half_ball(total - total // 2).splits(g, total // 2):
                return total
        return None

    def meet_index(self, s: RoomSet) -> MeetIndex:
        """g.s ∩ s, room by room, for every group element g whose
        translate meets s, keyed by g's (spine letters, parity) and built
        once per set.  g = (spine, p) moves rooms bijectively, and spine =
        b * swap^p(a)^-1 sends room a onto b, so g.s ∩ s in room b is
        swap^p(atoms(a)) ∩ atoms(b), and pairs whose atoms miss make no key.

        Every reflection's spine w * swap(w)^-1 has exponent sum 0, the sum
        adds under products and swap keeps it, so every group element has
        ε(spine) = ε(b) - ε(a) = 0: only rooms of equal exponent sum pair.
        The rooms are bucketed by ε once, and each room meets, at each
        parity, only its own bucket: sum 2 n_k^2 pairs over the buckets'
        sizes n_k, not 2 n^2.  The keys' readers ask only for group
        elements (scan-ball members and reflections), so no key they can
        accept is left out.

        Refused over budget at 2 n^2 keys for n rooms, 224 bytes each plus
        2 a letter of the longest room, and 8 KiB, as if every pair met:
        an upper bound far above what the index holds.  The closure's
        index has 2R + 2 keys, traced at 0.04, 0.08 and 0.16 MiB for R =
        8, 16 and 32, against 0.54, 2.15 and 9.36 MiB estimated.  A set
        of one exponent sum whose pairs all meet in five atoms would hold
        up to 3.5 times the estimate."""

        def build() -> MeetIndex:
            n, longest = len(s.rooms), max(map(len, s.rooms), default=0)
            need = 2 * n * n * (224 + 2 * longest) + 2**13
            refuse_over_budget(need, f"the meet index of {n} rooms")
            buckets: dict[int, list[tuple[ReducedWord, frozenset[int]]]] = {}
            for b, here in s.rooms.items():
                buckets.setdefault(b.exponent_sum(), []).append((b, here))
            index: MeetIndex = {}
            for parity in (0, 1):
                for pairs in buckets.values():
                    for a, atoms in pairs:
                        letters = a.letters
                        if parity:
                            letters, atoms = swap_letters(letters), swap_atoms(atoms)
                        a_inv = invert_letters(letters)
                        for b, here in pairs:
                            if meet := atoms & here:
                                key = (concat_reduced(b.letters, a_inv), parity)
                                index.setdefault(key, {})[b] = meet
            return index

        return self._once(("meet index", s), build)

    def overlapping_generators(
        self, horizon: int, radius: int
    ) -> list[tuple[Optional[ReducedWord], ActionElement]]:
        """Identity plus every room reflection rooted within ``horizon``
        whose closure translate meets the closure, tagged by root, roots
        in ``enumerate_ball`` order.

        The reflection rooted at w has spine w * swap(w)^-1, which never
        cancels (swap sends r-letters to u-letters), so a parity-1 key of
        the closure's ``meet_index`` is such a reflection exactly when the
        second half of its spine is the swapped inverse of the first.
        """
        hits: list[tuple[Optional[ReducedWord], ActionElement]] = []
        for spine, parity in self.meet_index(self.closure(radius)):
            half = len(spine) // 2
            if (
                parity
                and len(spine) <= 2 * horizon
                and spine[half:] == swap_letters(invert_letters(spine[:half]))
            ):
                g = ActionElement(ReducedWord._trusted(spine), 1)
                hits.append((ReducedWord._trusted(spine[:half]), g))
        hits.sort(key=lambda hit: hit[0].sort_key())
        return [(None, identity())] + hits

    def _ball_overlaps(
        self, s: RoomSet, depth: int
    ) -> tuple[GroupBall, list[tuple[ActionElement, RoomSet]]]:
        """The scan ball, and each nonidentity ball member g among the keys
        of ``meet_index(s)`` with g.s ∩ s, in witness order: by the layer
        that holds g (``depth_of``: the fewest reflections that produce
        g), then by ``ActionElement.sort_key``.  The ball lies in H_2, so
        a key outside it is dropped before any lookup."""
        ball = self.scan_ball(depth)
        members = [
            (k, ActionElement(ReducedWord._trusted(spine), parity), RoomSet(rooms))
            for (spine, parity), rooms in self.meet_index(s).items()
            if (spine or parity)
            and in_root_subgroup(spine, self.scan_root_len)
            and (k := ball.depth_of(spine, parity)) is not None
        ]
        members.sort(key=lambda member: (member[0], member[1].sort_key()))
        return ball, [(g, meet) for _, g, meet in members]

    # -- properties ----------------------------------------------------

    def disjointness(self, cfg: RunConfig) -> VerificationReport:
        """Overlaps are read off the region's ``meet_index``, so no set is
        translated.  ``counts[0]`` is still the number of nonidentity ball
        elements the scan covers, though no layer is enumerated: the
        ball's tries count them (``GroupBall``)."""
        ball, meets = self._ball_overlaps(self.region(cfg.radius), cfg.depth)
        bad = [
            f"{g.text()} overlaps: {'; '.join(meet.describe())}" for g, meet in meets
        ]
        counts = [sum(ball.layer_sizes()) - 1, len(bad)]
        return _scan_report(PROP_DISJOINTNESS, cfg.depth, cfg.radius, counts, bad)

    def coverage(self, cfg: RunConfig) -> VerificationReport:
        """Walk certificates: the walk g of room v lands on the spine room
        r^m, and v is certified when g carries its closed box into
        ext ∪ room_reflection(r^m)·ext.  That test (``_box_covered``)
        depends on m alone: the action permutes closed boxes, so
        box(v).translate(g) == box(g·v) == box(r^m), and every reflection
        preserves the exponent sum, so m == v.exponent_sum().  The rooms
        are enumerated only when some m fails; otherwise they are counted,
        and walks are taken only for the six certificate lines."""
        ext = self.closure(cfg.radius + 1)
        spine_powers = range(-cfg.radius, cfg.radius + 1)
        covered = {m: self._box_covered(ext, m) for m in spine_powers}
        rooms = ball_size(cfg.radius)
        failures = [] if all(covered.values()) else [
            f"room {v.text()} escapes its walk cover"
            for v in self.rooms(cfg.radius)
            if not covered[v.exponent_sum()]
        ]
        # the first six rooms of any ball lie within radius 2
        first = enumerate_ball(min(cfg.radius, 2))[:6]
        ok = [
            f"room {v.text()}: walk {g.text()} lands on spine power {m}"
            for v, (g, m) in zip(first, map(walk_to_spine, first))
        ] + [f"all {rooms} rooms certified"]
        counts = [rooms, len(failures)]
        return _scan_report(PROP_COVERAGE, cfg.depth, cfg.radius, counts, failures, ok)

    def _box_covered(self, ext: RoomSet, m: int) -> bool:
        """box(r^m) ⊆ ext ∪ ρ·ext, ρ = room_reflection(r^m), room by room: ρ
        is a parity-1 involution, so ρ·ext is swap(ext(ρ·b)) in room b."""
        spine = r_power(m)
        mirror = room_reflection(spine)
        held = ext.rooms
        return all(
            atoms
            <= held.get(b, NO_ATOMS) | swap_atoms(held.get(mirror.apply(b), NO_ATOMS))
            for b, atoms in materialize_cell(spine, Cell.CLOSED_BOX).rooms.items()
        )

    def boundary_containment(self, cfg: RunConfig) -> VerificationReport:
        """The overlaps are read off the closure's ``meet_index``, shared
        with ``overlapping_generators``, as for disjointness; ``counts[0]``
        is still the number of nonidentity ball elements covered, the
        deepest layer counted and its keys decided from the layer below."""
        boundary = self.boundary(cfg.radius)
        ball, meets = self._ball_overlaps(self.closure(cfg.radius), cfg.depth)
        spills = [(g, meet.difference(boundary)) for g, meet in meets]
        bad = [
            f"{g.text()} meets the closure off the boundary: "
            f"{'; '.join(spill.describe())}"
            for g, spill in spills
            if not spill.is_empty()
        ]
        counts = [sum(ball.layer_sizes()) - 1, len(meets), len(bad)]
        return _scan_report(PROP_BOUNDARY, cfg.depth, cfg.radius, counts, bad)

    def local_finiteness(
        self, cfg: RunConfig, centers: Optional[Sequence[ReducedWord]] = None
    ) -> tuple[VerificationReport, dict[str, list[int]]]:
        """The neighbourhood is the five-room coordinate patch at each
        center and the horizon bounds the reflection depth.  Past
        ``depth_cap`` a candidate without a depth may lie deeper than the
        horizon or not be reachable at all, so any such candidate makes
        the profile inconclusive."""
        if centers is None:
            centers = enumerate_ball(min(2, max(cfg.radius - 1, 0)))
        for w in centers:
            if len(w.letters) + 1 > cfg.radius:
                raise ValueError(
                    "radius too small for a requested neighbourhood center"
                )
        bound = cfg.schedule[-1]
        profiles: dict[str, list[int]] = {}
        witnesses: list[str] = []
        totals = [0] * len(cfg.schedule)
        unresolved = 0
        for w in centers:
            cands = self.meeting_candidates(w)
            depths = [self.candidate_min_depth(g, bound) for g in cands]
            unresolved += depths.count(None)
            counts = [
                sum(1 for d in depths if d is not None and d <= t)
                for t in cfg.schedule
            ]
            profiles[w.text()] = counts
            totals = [a + b for a, b in zip(totals, counts)]
            if len(witnesses) < 6:
                witnesses.append(
                    f"center {w.text()}: {counts[-1]} translates, "
                    f"depths {sorted(d for d in depths if d is not None)}"
                )
        tail = (
            f"stable total {totals[-1]}"
            if stabilized(totals)
            else "total still growing"
        )
        witnesses.append(f"{len(profiles)} centers, {tail}")
        reason = None
        if bound > self.depth_cap and unresolved:
            reason = (
                f"{unresolved} candidates unresolved: minimum depths are exact "
                f"only up to {self.depth_cap} reflections, and horizon {bound} "
                "is past that cap"
            )
        return _profile_report(
            PROP_LOCAL_FINITENESS, cfg, cfg.radius, totals, witnesses, reason
        ), profiles

    def finite_self_adjacency(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, list[ActionElement]]:
        """The overlapping generators at the last horizon, counted at each
        horizon by root length; the identity counts at every horizon."""
        last_hits = self.overlapping_generators(cfg.schedule[-1], cfg.radius)
        counts = [
            sum(1 for root, _ in last_hits if root is None or len(root) <= k)
            for k in cfg.schedule
        ]
        names = [
            "id" if root is None else generator_text(root)
            for root, _ in last_hits
        ]
        witnesses = [
            "closure translates under reflections at every spine power overlap",
            "overlapping elements: " + ", ".join(_cap(names, 12)),
        ]
        report = _profile_report(
            PROP_SELF_ADJACENCY, cfg, cfg.radius, counts, witnesses
        )
        return report, [g for _, g in last_hits]

    def quotient(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, QuotientDescription]:
        radius = cfg.radius
        need = self.spine_estimate(radius)
        refuse_over_budget(need, f"the quotient at radius {radius}")
        samples = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        zero, one = Fraction(0), Fraction(1)
        pieces = [
            f"closed triangle in room {r_power(i).text()}"
            for i in range(-radius, radius + 1)
        ]
        idents: list[dict[str, str]] = []
        checked = 0
        bad: list[str] = []
        glued = r_power(-radius)
        for i in range(-radius, radius):
            spine, glued = glued, r_power(i + 1)
            mirror = room_reflection(spine)
            for t in samples:
                checked += 1
                start = canonical_point(spine, t, one)
                image = apply_to_point(mirror, start)
                expect = canonical_point(glued, zero, t)
                if image != expect:
                    bad.append(f"edge gluing {i} -> {i + 1} moved a sample point")
                    break
            for t in samples:
                checked += 1
                on_diag = canonical_point(spine, t, t)
                if apply_to_point(mirror, on_diag) != on_diag:
                    bad.append(f"diagonal of room {spine.text()} moved")
                    break
            idents.append(
                {
                    "from": f"top edge of triangle {i}",
                    "to": f"left edge of triangle {i + 1}",
                    "via": generator_text(spine),
                    "orientation": "t -> t",
                }
            )
        desc = QuotientDescription(
            "free2house",
            pieces,
            idents,
            [
                "triangle vertices (0,0), (0,1), (1,1) in every room are "
                "excluded gluing corners"
            ],
            False,
            [
                "one closed triangle per spine power, glued into an infinite "
                "strip; each diagonal is fixed pointwise by its reflection"
            ],
        )
        ok = [
            f"{len(idents)} edge gluings re-validated on {checked} samples",
            "orientation along each glued edge is the identity in the edge parameter",
        ]
        counts = [len(pieces), len(idents), checked, len(bad)]
        return _scan_report(PROP_QUOTIENT, None, radius, counts, bad, ok), desc

    def fixed_points(
        self, cfg: RunConfig, transform: ActionElement
    ) -> VerificationReport:
        """A parity-0 element other than the identity fixes no room, so a
        fixed room refutes it; a reflection's fixed diagonals are listed."""
        if not isinstance(transform, ActionElement):
            raise TypeError("expected a group element")
        rooms = self.rooms(cfg.radius)
        fixed = [v for v in rooms if transform.apply(v) == v]
        names = [v.text() for v in fixed]
        bad = []
        if transform.is_identity():
            ok = ["identity fixes the whole truncated space"]
        elif transform.parity == 0:
            bad = [f"unexpected fixed room {name}" for name in names]
            ok = ["no fixed rooms: nontrivial room permutation"]
        else:
            ok = [f"diagonal of room {name} is fixed pointwise" for name in names]
            ok = ok or ["no fixed rooms at this truncation"]
        counts = [len(rooms), len(fixed)]
        return _scan_report(PROP_FIXED_POINTS, None, cfg.radius, counts, bad, ok)


class LineSystem(System):
    """The standard line: the interval (0, ``step``) under translation by
    multiples of ``step``, 1 here.  ``PathologicalLineSystem`` and
    ``CylinderSystem`` override what differs."""

    name = "line-standard"
    expected = {
        PROP_DISJOINTNESS: VERIFIED,
        PROP_COVERAGE: VERIFIED,
        PROP_BOUNDARY: VERIFIED,
        PROP_LOCAL_FINITENESS: VERIFIED,
        PROP_SELF_ADJACENCY: VERIFIED,
        PROP_ADJACENCY_AUDIT: VERIFIED,
        PROP_ORBIT_BOUNDARY: VERIFIED,
        PROP_QUOTIENT: VERIFIED,
        PROP_COMPACTNESS: VERIFIED,
    }
    cocompact = True
    closure_bounded = True
    step: Rational = 1
    # witness wording, which the cylinder words for its band
    PATCH = "sampled point's patch"
    ORBIT = "orbit of 0 meets the boundary"

    def region(self, n_intervals: int = 1) -> IntervalSet:
        """The region at ``n_intervals`` tiles, refused over budget by
        ``scan_estimate``: here (0, step), whatever the count."""
        need = self.scan_estimate(n_intervals)
        refuse_over_budget(need, f"{self.name} at {n_intervals} intervals")
        return standard_interval(self.step)

    def scan_estimate(self, n_intervals: int) -> int:
        """Upper estimate, in bytes, of the endpoints one scan over
        ``region(n_intervals)`` holds at once.  The shift sweep holds the
        most: the region, a copy of each interval reduced modulo the step,
        and at most four lifts of each copy, since no interval is wider
        than the step; that is six region-sized sets of endpoints.  The
        window query, the coverage union and the self-adjacency translates
        hold fewer.  Each interval costs about 224 bytes of objects plus a
        third of a byte per bit of its integers: those of its denominator
        (2 here), the bits of n for the integer parts, and 8 more for the
        inflation and window denominators.  Here there is one interval."""
        return 6 * (224 + (2 + n_intervals.bit_length() + 8) // 3)

    def cluster_point(self) -> Fraction:
        return Fraction(0)

    def margin(self) -> Fraction:
        """How far the self-adjacency candidate widens each closed tile."""
        return Fraction(1, 4)

    def coverage_window(self, cfg: RunConfig) -> tuple[Fraction, Fraction]:
        return Fraction(-2), Fraction(3)

    def shift_meetings(self, cfg: RunConfig) -> dict[int, IntervalSet]:
        """One sweep, shared by disjointness and boundary containment."""
        return self._once(
            ("shift meetings", cfg.n_intervals, cfg.m_range),
            lambda: self.region(cfg.n_intervals).shift_meetings(self.step, cfg.m_range),
        )

    # -- properties ----------------------------------------------------

    def disjointness(self, cfg: RunConfig) -> VerificationReport:
        meetings = self.shift_meetings(cfg)
        # the first of each shift's overlaps, left to right
        bad = [
            f"m = {m}: open overlap ({format_fraction(lo)}, {format_fraction(hi)})"
            for m, overlap in meetings.items()
            for lo, hi in overlap.pairs[:1]
        ]
        counts = [2 * cfg.m_range, len(bad)]
        return _scan_report(PROP_DISJOINTNESS, None, cfg.m_range, counts, bad)

    def coverage(self, cfg: RunConfig) -> VerificationReport:
        lo, hi = self.coverage_window(cfg)
        region = self.region(cfg.n_intervals)
        reach = cfg.n_intervals + 2
        pieces = region.window_translates(1, lo, hi, reach)
        gap = IntervalSet(()).union(*pieces.values()).coverage_gap(lo, hi)
        bad = [] if gap is None else [f"uncovered point {format_fraction(gap)}"]
        ok = [
            f"window [{format_fraction(lo)}, {format_fraction(hi)}] covered "
            f"by translates |m| <= {reach}"
        ]
        return _scan_report(PROP_COVERAGE, None, reach, [2 * reach + 1], bad, ok)

    def boundary_containment(self, cfg: RunConfig) -> VerificationReport:
        meetings = self.shift_meetings(cfg)
        # a point where two closures only touch is an endpoint of both
        # intervals, so every touch lies on the region boundary
        bad = [
            f"m = {m}: interior overlap "
            f"({format_fraction(lo)}, {format_fraction(hi)})"
            for m, overlap in meetings.items()
            for lo, hi in overlap.pairs
        ]
        counts = [2 * cfg.m_range, len(meetings), len(bad)]
        return _scan_report(PROP_BOUNDARY, None, cfg.m_range, counts, bad)

    def local_finiteness(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, dict[str, list[int]]]:
        """A window around the cluster point shrinks with the horizon
        while the region grows: 4k tiles at horizon k."""
        point = self.cluster_point()
        counts = []
        last_hits: list[int] = []
        for k in cfg.schedule:
            region = self.region(4 * k)
            lo, hi = point - Fraction(1, k), point + Fraction(1, k)
            hits = list(region.window_translates(1, lo, hi, 4 * k + 2))
            counts.append(len(hits))
            last_hits = hits
        witnesses = [
            f"window around {format_fraction(point)}",
            "meeting shifts at the last horizon: "
            + ", ".join(str(m) for m in _cap(map(str, last_hits), 10)),
        ]
        report = _profile_report(PROP_LOCAL_FINITENESS, cfg, None, counts, witnesses)
        return report, {format_fraction(point): counts}

    def finite_self_adjacency(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, list[int]]:
        """The candidate neighbourhood is the closure inflated by
        ``margin()``; one scan to the last horizon counts every horizon.
        A translate by the inflated span or more cannot overlap it, so the
        scan stops below the span, in steps, and at ``m_range``."""
        inflated = self.region(cfg.n_intervals).inflate(self.margin())
        top = min(cfg.schedule[-1], ceil(inflated.span() / self.step) - 1, cfg.m_range)
        last_hits = [
            m
            for m in range(-top, top + 1)
            if inflated.first_overlap(inflated.translate(m * self.step)) is not None
        ]
        counts = [sum(1 for m in last_hits if abs(m) <= k) for k in cfg.schedule]
        witnesses = self._candidate(inflated, last_hits)
        report = _profile_report(
            PROP_SELF_ADJACENCY, cfg, cfg.m_range, counts, witnesses
        )
        return report, last_hits

    def _candidate(self, inflated: IntervalSet, hits: list[int]) -> list[str]:
        return [
            f"candidate: closure inflated by {format_fraction(self.margin())}",
            f"overlapping shifts at the last horizon: {hits}",
        ]

    def adjacency_audit(self, cfg: RunConfig) -> VerificationReport:
        """The patch of each sampled point, its closed tile widened by
        ``margin()``, meets at most as many translates as the certified
        overlap family holds.  Sample j step / 8 lies in tile j // 8, so
        each of the four tiles is queried once."""
        _, overlap = self.cached_self_adjacency(cfg)
        bound = len(overlap)
        region, step, eps = self.region(cfg.n_intervals), self.step, self.margin()
        samples = range(-8, 17)
        worst = 0
        for base in {j // 8 for j in samples}:
            lo, hi = base * step - eps, (base + 1) * step + eps
            hits = region.window_translates(step, lo, hi, abs(base) + 4)
            worst = max(worst, sum(1 for m in hits if abs(m - base) <= 4))
        found = [
            f"certified overlap family size {bound}",
            f"max translates meeting a {self.PATCH}: {worst}",
        ]
        bad = found if worst > bound else []
        counts = [len(samples), bound, worst]
        return _scan_report(PROP_ADJACENCY_AUDIT, None, cfg.m_range, counts, bad, found)

    def orbit_boundary(self, cfg: RunConfig) -> VerificationReport:
        """Count the shifts m, |m| <= m_range, that carry 0 onto a region
        endpoint m * step."""
        shifts = (e / self.step for e in self.region(cfg.n_intervals).endpoints())
        hits = [int(m) for m in shifts if m.denominator == 1 and abs(m) <= cfg.m_range]
        ok = [f"{self.ORBIT} at shifts {hits}"]
        return _scan_report(PROP_ORBIT_BOUNDARY, None, cfg.m_range, [len(hits)], [], ok)

    def quotient(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, QuotientDescription]:
        ends = self.region(cfg.n_intervals).endpoints()
        lo, hi = format_fraction(ends[0]), format_fraction(ends[-1])
        desc = QuotientDescription(
            self.name,
            [f"[{lo}, {hi}]"],
            [{"from": f"point {lo}", "to": f"point {hi}", "via": "m = 1"}],
            [],
            True,
            ["endpoints glued: a circle"],
        )
        # the generator must carry the left end onto the right end
        image = ends[0] + 1
        bad = [] if image == ends[-1] else [
            f"gluing m = 1 maps {lo} to {format_fraction(image)}, "
            f"not to the right end {hi}"
        ]
        ok = [f"gluing m = 1 maps {lo} to {hi}; sample re-validated"]
        return _scan_report(PROP_QUOTIENT, None, 1, [1, 1, 1], bad, ok), desc


class PathologicalLineSystem(LineSystem):
    """The accumulating family: tile n is (n + n/(n+1), n + (n+1)/(n+2)),
    n < ``n_intervals``, under integer shifts.  Its translates pile up at
    1, so it is not locally finite and its closure is unbounded."""

    name = "line-pathological"
    expected = {
        PROP_DISJOINTNESS: VERIFIED,
        PROP_COVERAGE: VERIFIED,
        PROP_BOUNDARY: VERIFIED,
        PROP_LOCAL_FINITENESS: REFUTED,
        PROP_SELF_ADJACENCY: REFUTED,
        PROP_QUOTIENT: VERIFIED,
        PROP_COMPACTNESS: VERIFIED,
    }
    closure_bounded = False
    # no finite overlap family to audit
    adjacency_audit = System.adjacency_audit

    def region(self, n_intervals: int = 1) -> IntervalSet:
        need = self.scan_estimate(n_intervals)
        refuse_over_budget(need, f"{self.name} at {n_intervals} intervals")
        return self._once(
            ("region", n_intervals), lambda: pathological_1d(n_intervals)
        )

    def scan_estimate(self, n_intervals: int) -> int:
        """The line's estimate over n intervals, whose denominator
        lcm(1, ..., n + 1) has under 1.5 (n + 1) bits, since
        log lcm(1, ..., x) < 1.03883 x (Rosser and Schoenfeld)."""
        den_bits = -(-3 * (n_intervals + 1) // 2)
        bits = den_bits + n_intervals.bit_length() + 8
        return 6 * n_intervals * (224 + bits // 3)

    def cluster_point(self) -> Fraction:
        return Fraction(1)

    def margin(self) -> Fraction:
        return Fraction(1, 16)

    def coverage_window(self, cfg: RunConfig) -> tuple[Fraction, Fraction]:
        return Fraction(0), 1 - Fraction(1, cfg.schedule[-1])

    def quotient(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, QuotientDescription]:
        region = self.region(cfg.n_intervals)
        # tile n ends at ends[2n + 1] / den; m = 1 glues it to tile n + 1
        den, ends = region.den, region.ends
        glued, bad = [], []
        for n in range(len(region) - 1):
            if ends[2 * n + 1] + den == ends[2 * n + 2]:
                glued.append(n)
            else:
                bad.append(f"tiles {n} and {n + 1} fail to glue")
        desc = QuotientDescription(
            self.name,
            [
                f"[{format_fraction(Fraction(lo, den))}, "
                f"{format_fraction(Fraction(hi, den))}]"
                for lo, hi in zip(ends[:8:2], ends[1:8:2])
            ]
            + [f"... {len(region)} tiles in total"],
            [
                {
                    "from": f"right end of tile {n}",
                    "to": f"left end of tile {n + 1}",
                    "via": "m = 1",
                }
                for n in glued[:4]
            ]
            + [{"note": f"... {len(glued)} gluings in total"}],
            [],
            False,
            [
                "tiles chain into a half-open arc; the closing point is "
                "never reached, so the quotient map to the circle is a "
                "continuous bijection but not a homeomorphism"
            ],
        )
        if len(region) < 2:
            reason = "one tile: no consecutive pair whose gluing could be tested"
            return _inconclusive(PROP_QUOTIENT, reason), desc
        counts = [len(region), len(glued) + len(bad), len(bad)]
        ok = ["all consecutive tiles glue by m = 1"]
        return _scan_report(PROP_QUOTIENT, None, cfg.n_intervals, counts, bad, ok), desc


class PlanePathologicalSystem(LineSystem):
    """The hyperbola band {0 < x < 1, 1/x < y < 1/x + 1} in the punctured
    plane under the integer shifts (m, n): the standard line on each
    vertical fiber.

    The closed band lies in 0 < x <= 1, so a shift with m != 0 moves it
    off its own strip, and (0, n) moves the closed fiber over x,
    [1/x, 1/x + 1], the way the line's shift n moves [0, 1].  The line's
    checks are translation invariant, so boundary containment and
    coverage hold on every fiber exactly when they hold on the unit fiber
    (0, 1), which is this class's region: both run the line's shift
    sweep and window cover there.  The fiber over x = 0 is covered by the
    (-1, n) translates of the edge x = 1, [1, 2] + n, the unit fiber's
    cover moved by 1.  Disjointness reads the sampled points' meeting
    shifts (0, n) off the unit fiber too.  Local finiteness, self-adjacency,
    the quotient and compactness keep their own code on the band itself;
    the audit and the orbit count have no certificate here.
    """

    name = "plane-pathological"
    expected = {
        PROP_DISJOINTNESS: VERIFIED,
        PROP_LOCAL_FINITENESS: REFUTED,
        PROP_SELF_ADJACENCY: REFUTED,
        PROP_COMPACTNESS: VERIFIED,
    }
    closure_bounded = False
    # no finite overlap family to audit, nor an orbit count on the band
    adjacency_audit = System.adjacency_audit
    orbit_boundary = System.orbit_boundary

    def sample_points(self) -> list[tuple[Fraction, Fraction]]:
        """(p/12, 12/p + j/5) for 0 < p < 12 and 0 < j < 5."""
        pairs = ((p, j) for p in range(1, 12) for j in range(1, 5))
        return [(Fraction(p, 12), Fraction(60 + j * p, 5 * p)) for p, j in pairs]

    def lf_center(self) -> tuple[Fraction, Fraction]:
        return (Fraction(0), Fraction(1, 2))

    def disjointness(self, cfg: RunConfig) -> VerificationReport:
        """Sampled points against the shifts (m, n), |m|, |n| <= reach, all
        counted in ``checked``.  x - m leaves the chart strip (0, 1) for
        m != 0, and (x, y) lies in the (0, n) translate exactly when t - n
        lies in the unit fiber, t = y - 1/x: each fiber interval (a, b)
        gives the n in (t - b, t - a).  Every point must meet (0, 0)."""
        points = self.sample_points()
        fiber = self.region()
        den, ends = fiber.den, fiber.ends
        reach = 10
        bad = []
        for x, y in points:
            # t = u / (v den), an endpoint e / den = e v / (v den); a higher
            # fiber interval gives lower n, so they are walked from the top
            p, q = x.numerator, x.denominator
            u, v = (y.numerator * p - q * y.denominator) * den, y.denominator * p
            shifts: list[int] = []
            for a, b in (zip(ends[-2::-2], ends[::-2]) if 0 < p < q else ()):
                first = max(-reach, (u - b * v) // (v * den) + 1)
                shifts += range(first, min(reach, -((a * v - u) // (v * den)) - 1) + 1)
            if 0 not in shifts:
                raise AssertionError("sample point must lie in the region")
            bad.extend(
                f"({format_fraction(x)}, {format_fraction(y)}) "
                f"also lies in the (0, {n}) translate"
                for n in shifts
                if n
            )
        checked = len(points) * ((2 * reach + 1) ** 2 - 1)
        counts = [len(points), checked, len(bad)]
        return _scan_report(PROP_DISJOINTNESS, None, reach, counts, bad)

    def local_finiteness(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, dict[str, list[int]]]:
        """A box around a point of the left edge shrinks with the horizon
        while the shift range grows.  For each m the meeting n form one
        range, so only the witness's first pairs are ever listed."""
        cx, cy = self.lf_center()
        counts = []
        for k in cfg.schedule:
            rows = [
                (m, plane2d_box_shifts(m, 4 * k, Fraction(1, k), (cx, cy)))
                for m in range(-2, 3)
            ]
            counts.append(sum(len(ns) for _, ns in rows))
        last_pairs = ((m, n) for m, ns in rows for n in ns)
        witnesses = [
            f"box center ({format_fraction(cx)}, {format_fraction(cy)})",
            "meeting shifts at the last horizon: "
            + ", ".join(str(p) for p in _cap(map(str, last_pairs), 8)),
        ]
        report = _profile_report(PROP_LOCAL_FINITENESS, cfg, None, counts, witnesses)
        return report, {"(0, 1/2)": counts}

    def finite_self_adjacency(self, cfg: RunConfig) -> tuple[VerificationReport, None]:
        """Judged from the local profile: a finite self-adjacency bound
        forces a stable local translate count."""
        lf_report, _ = self.cached_local_finiteness(cfg)
        if lf_report.verdict == REFUTED:
            trend = "grows instead"
        elif lf_report.verdict == VERIFIED:
            trend = "is stable, which does not decide the bound"
        elif not _monotone(lf_report.counts):
            trend = "is not monotone, so neither rule applies"
        else:
            trend = "neither stabilises nor grows strictly"
        report = VerificationReport(
            PROP_SELF_ADJACENCY,
            REFUTED if lf_report.verdict == REFUTED else INCONCLUSIVE,
            lf_report.truncation,
            lf_report.counts,
            [
                "a finite self-adjacency bound forces a stable local",
                f"translate count; the local profile {trend}:",
                f"counts {lf_report.counts}",
            ],
        )
        return report, None

    def quotient(self, cfg: RunConfig) -> tuple[VerificationReport, None]:
        return (
            _inconclusive(
                PROP_QUOTIENT,
                "no piecewise description available for the band quotient",
            ),
            None,
        )

    def compactness(self, cfg: RunConfig) -> VerificationReport:
        report = super().compactness(cfg)
        x, y = plane2d_point_above(100)
        report.witnesses.append(
            "unbounded closure witness: region point "
            f"({format_fraction(x)}, {format_fraction(y)})"
        )
        return report


class CylinderSystem(LineSystem):
    """Product band X x (0, c) under translation by multiples of c: the
    line at step c, whose region (0, c) is the band, with margin c, judged
    as the standard line.  Its shift sweep, disjointness, self-adjacency,
    audit and orbit count are the line's; only their wording is its own.

    The X factor is carried symbolically; only its compactness flag
    matters to any operation here: the action is cocompact, and the
    closed band bounded, exactly when X is compact.
    """

    name = "cylinder"
    PATCH = "sampled patch"
    ORBIT = "orbit of the 0 section meets the band boundary"

    def __init__(self, shift: Rational = 1, x_compact: bool = True) -> None:
        super().__init__()
        self.step = Fraction(shift)
        if self.step <= 0:
            raise ValueError("shift must be positive")
        self.x_compact = bool(x_compact)
        self.cocompact = self.closure_bounded = self.x_compact

    def margin(self) -> Fraction:
        return self.step

    def _candidate(self, inflated: IntervalSet, hits: list[int]) -> list[str]:
        ((lo, hi),) = inflated.pairs
        return [
            f"candidate band ({format_fraction(lo)}, {format_fraction(hi)})",
            f"overlapping shifts: {hits}",
        ]

    def coverage(self, cfg: RunConfig) -> VerificationReport:
        """Band translates cover the window [-2c, 3c]."""
        c = self.step
        lo, hi = -2 * c, 3 * c
        reach = 5  # the window reaches 3 shifts up, plus a margin of 2
        pieces = self.region().window_translates(c, lo, hi, reach)
        gap = IntervalSet(()).union(*pieces.values()).coverage_gap(lo, hi)
        bad = [] if gap is None else [f"uncovered point {format_fraction(gap)}"]
        ok = [f"band translates |m| <= {reach} cover the window"]
        return _scan_report(PROP_COVERAGE, None, reach, [2 * reach + 1], bad, ok)

    def boundary_containment(self, cfg: RunConfig) -> VerificationReport:
        meetings = self.shift_meetings(cfg)
        # touch points are band endpoints; each interior overlap is bad
        bad = [f"m = {m}" for m, overlap in meetings.items() for _ in overlap.pairs]
        counts = [2 * cfg.m_range, len(bad)]
        ok = ["band translates touch only at 0 and the shift"]
        return _scan_report(PROP_BOUNDARY, None, cfg.m_range, counts, bad, ok)

    def local_finiteness(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, dict[str, list[int]]]:
        c = self.step
        band = self.region()
        counts = []
        last_hits: list[int] = []
        for k in cfg.schedule:
            lo, hi = -c / k, c / k
            hits = list(band.window_translates(c, lo, hi, cfg.m_range))
            counts.append(len(hits))
            last_hits = hits
        witnesses = ["band point 0", f"meeting shifts: {last_hits}"]
        report = _profile_report(
            PROP_LOCAL_FINITENESS, cfg, cfg.m_range, counts, witnesses
        )
        return report, {"0": counts}

    def quotient(
        self, cfg: RunConfig
    ) -> tuple[VerificationReport, QuotientDescription]:
        c = self.step
        ends = self.region().endpoints()
        lo, hi = format_fraction(ends[0]), format_fraction(ends[-1])
        desc = QuotientDescription(
            self.name,
            [f"X x [{lo}, {hi}]"],
            [
                {
                    "from": f"X x {{{lo}}}",
                    "to": f"X x {{{hi}}}",
                    "via": "m = 1",
                }
            ],
            [],
            self.x_compact,
            ["band with glued edges; compact exactly when X is"],
        )
        # the generator (shift by c) must carry the lower edge onto the upper
        image = ends[0] + c
        bad = [] if image == ends[-1] else [
            f"gluing m = 1 maps the {lo} section to the "
            f"{format_fraction(image)} section, not to the upper edge {hi}"
        ]
        ok = [f"gluing m = 1 maps the {lo} section to the {hi} section"]
        return _scan_report(PROP_QUOTIENT, None, 1, [1, 1, 1], bad, ok), desc


# selector -> system class
SYSTEMS: dict[str, type[System]] = {
    cls.name: cls
    for cls in (
        Free2HouseSystem,
        LineSystem,
        PathologicalLineSystem,
        PlanePathologicalSystem,
        CylinderSystem,
    )
}
SELECTORS = tuple(SYSTEMS)


def make_system(
    selector: str, shift: Rational = 1, x_compact: bool = True
) -> System:
    """The system ``selector`` names; only the cylinder takes parameters."""
    cls = SYSTEMS.get(selector)
    if cls is None:
        raise KeyError(f"unknown system selector: {selector!r}")
    return CylinderSystem(shift, x_compact) if cls is CylinderSystem else cls()


# ------------------------------------------------------------------- checks
#
# One function per property, each handing the call to the system.  The
# battery and ``verify --property`` look them up by name, so a wrapper put
# on this module sees every call.


def check_disjointness(system: System, cfg: RunConfig) -> VerificationReport:
    """No nonidentity enumerated translate of the open region meets it."""
    return system.disjointness(cfg)


def check_coverage(system: System, cfg: RunConfig) -> VerificationReport:
    """Enumerated closure translates cover the truncated space (or a
    window of it)."""
    return system.coverage(cfg)


def boundary_containment(system: System, cfg: RunConfig) -> VerificationReport:
    """Closure overlaps with nonidentity translates stay inside the
    topological boundary of the region."""
    return system.boundary_containment(cfg)


def local_finiteness_profile(
    system: System, cfg: RunConfig
) -> tuple[VerificationReport, dict[str, list[int]]]:
    """Count enumerated translates meeting a shrinking neighbourhood.

    The profile is per schedule horizon; the verdicts come from the
    stabilization rule.
    """
    return system.cached_local_finiteness(cfg)


def fsa_check(
    system: System, cfg: RunConfig
) -> tuple[VerificationReport, Optional[list]]:
    """Finitely many enumerated translates of a candidate neighbourhood of
    the closure meet the neighbourhood itself; also returns the
    overlapping family at the last horizon."""
    return system.cached_self_adjacency(cfg)


def fsa_implies_lf_audit(system: System, cfg: RunConfig) -> VerificationReport:
    """Spot-check the implication instance: where a finite overlap family
    was certified, every sampled point sees at most that many translates."""
    return system.adjacency_audit(cfg)


def orbit_boundary_finiteness(system: System, cfg: RunConfig) -> VerificationReport:
    """Count orbit points landing on the region boundary."""
    return system.orbit_boundary(cfg)


def quotient_build(
    system: System, cfg: RunConfig
) -> tuple[VerificationReport, Optional[QuotientDescription]]:
    """Assemble the identification structure and re-validate each gluing
    on sample points."""
    return system.quotient(cfg)


def compactness_proxy(system: System, cfg: RunConfig) -> VerificationReport:
    """A verified finite self-adjacency certificate plus a cocompact
    action forces a bounded closure."""
    return system.compactness(cfg)


def fixed_point_search(
    system: Free2HouseSystem, cfg: RunConfig, transform: ActionElement
) -> VerificationReport:
    """Report everything the given transformation fixes at truncation."""
    return system.fixed_points(cfg, transform)


# ------------------------------------------------------------------- battery

# Property -> the module-level check that decides it.
CHECKS = {
    PROP_DISJOINTNESS: "check_disjointness",
    PROP_COVERAGE: "check_coverage",
    PROP_BOUNDARY: "boundary_containment",
    PROP_LOCAL_FINITENESS: "local_finiteness_profile",
    PROP_SELF_ADJACENCY: "fsa_check",
    PROP_ADJACENCY_AUDIT: "fsa_implies_lf_audit",
    PROP_ORBIT_BOUNDARY: "orbit_boundary_finiteness",
    PROP_QUOTIENT: "quotient_build",
    PROP_COMPACTNESS: "compactness_proxy",
}


def property_check(prop: str) -> Callable[[System, RunConfig], VerificationReport]:
    """The check for ``prop`` as this module holds it at the call,
    reduced to its report."""
    check = globals()[CHECKS[prop]]

    def run(system: System, cfg: RunConfig) -> VerificationReport:
        result = check(system, cfg)
        return result[0] if isinstance(result, tuple) else result

    return run


def run_battery(
    system: System, cfg: RunConfig
) -> list[tuple[VerificationReport, str]]:
    """Run the system's expected properties in order; pair each report
    with the expected verdict.  An expected refutation that arrives is a
    pass."""
    return [
        (property_check(prop)(system, cfg), want)
        for prop, want in system.expected.items()
    ]


def battery_exit_code(results: Sequence[tuple[VerificationReport, str]]) -> int:
    mismatched = [r for r, want in results if r.verdict != want]
    if not mismatched:
        return 0
    return max(1, max(r.exit_code for r in mismatched))
