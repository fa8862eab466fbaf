"""Group elements acting on the room tree, in (spine, parity) normal form.

Every element acts on a word v as  v |-> spine * swap^parity(v)  where swap
exchanges the two generator families.  The reflection generators carry one
root word each: the generator rooted at w has spine w * swap(w^-1) and
parity 1, and squares to the identity.  Normal forms compose by

    (a.spine * swap^a.parity(b.spine), a.parity xor b.parity)

so equality of elements is equality of the pair.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .freegroup import (
    IDENTITY_WORD,
    ReducedWord,
    invert_letters,
    leading_r_run,
    r_power,
    run_count,
    spine_exponent,
    swap_letters,
)


class ActionElement:
    __slots__ = ("spine", "parity", "_hash")

    def __init__(self, spine: ReducedWord, parity: int):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        self.spine = spine
        self.parity = parity
        self._hash = hash((spine.letters, parity))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ActionElement)
            and self.parity == other.parity
            and self.spine == other.spine
        )

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "ActionElement") -> "ActionElement":
        tail = other.spine.swapped() if self.parity else other.spine
        return ActionElement(self.spine * tail, self.parity ^ other.parity)

    def inverse(self) -> "ActionElement":
        sp = self.spine.inverse()
        if self.parity:
            sp = sp.swapped()
        return ActionElement(sp, self.parity)

    def apply(self, v: ReducedWord) -> ReducedWord:
        """Image of a room word under this element."""
        return self.spine * (v.swapped() if self.parity else v)

    def is_identity(self) -> bool:
        return self.parity == 0 and self.spine.is_identity()

    def sort_key(self) -> tuple:
        return (*self.spine.sort_key(), self.parity)

    def text(self) -> str:
        return f"({self.spine.text()}, {self.parity})"

    def __repr__(self) -> str:
        return f"ActionElement{self.text()}"


IDENTITY = ActionElement(IDENTITY_WORD, 0)


def identity() -> ActionElement:
    return IDENTITY


def room_reflection(root: ReducedWord) -> ActionElement:
    """The order-two element fixing the diagonal of the room at `root`;
    its spine root * swap(root)^-1 never cancels, as swap moves letters."""
    tail = swap_letters(invert_letters(root.letters))
    return ActionElement(ReducedWord._trusted(root.letters + tail), 1)


def generator_text(root: ReducedWord) -> str:
    return f"g[{root.text()}]"


def in_root_subgroup(letters: tuple[int, ...], k: int) -> bool:
    """Whether (``letters``, p) lies in H_k, which the reflections rooted
    at words of length <= k generate.  Its Stallings graph is the segment
    -k .. k with an r and a u edge from each x to x + 1, and it holds
    (e, 1): so exactly when ε(letters) = 0 and every prefix has |ε| <= k
    (ε the exponent sum), for either parity p."""
    level = 0
    for a in letters:
        level += 1 if a > 0 else -1
        if not -k <= level <= k:
            return False
    return level == 0


# ----------------------------------------------------------- ball storage

# Ball keys pack (parity, spine letters) into one int: bit 0 holds the
# parity, bits 1 + 2i and 2 + 2i hold letter i via the map -2,-1,1,2 ->
# 0,1,2,3, and a sentinel bit sits just above the last letter, so a word
# that ends in code-0 letters keeps its length.  Small ints keep
# million-element balls affordable.

_ENC = {-2: 0, -1: 1, 1: 2, 2: 3}
_DEC = (-2, -1, 1, 2)


def _encode(letters: tuple[int, ...], parity: int) -> int:
    key = 1
    for a in reversed(letters):
        key = key << 2 | _ENC[a]
    return key << 1 | parity


def _letters(key: int) -> tuple[int, ...]:
    return tuple(_DEC[key >> i & 3] for i in range(1, key.bit_length() - 1, 2))


def _decode(key: int) -> ActionElement:
    return ActionElement(ReducedWord._trusted(_letters(key)), key & 1)


def _product(x: int, y: int) -> int:
    """The key of the product of the elements keyed ``x`` and ``y``: x's
    letters, then y's (swapped when x has parity 1), less the letters the
    junction cancels (inverse letters have codes c and c ^ 3), under the
    XOR of the parities."""
    if x & 1:
        y ^= _spread(1, y.bit_length())
    n = x.bit_length()
    while n > 2 and y > 3 and (x >> n - 3 ^ y >> 1) & 3 == 3:
        n -= 2
        x = x & (1 << n - 1) - 1 | 1 << n - 1
        y = y >> 3 << 1 | y & 1
    return (x & (1 << n - 1) - 1 ^ y & 1) | y >> 1 << n - 1


# The letter maps that commute with swap act on a key letterwise, as one
# XOR pattern on every 2-bit letter code: swap (r <-> u) flips the low bit
# (codes 0 <-> 1, 2 <-> 3), phi (r <-> R, u <-> U) flips both bits, and
# phi o swap flips the high bit; pattern 0 is the identity.  Each is an
# automorphism of F(r, u) that commutes with swap, so (spine, p) ->
# (map(spine), p) is an automorphism of the action, and it sends the
# generator rooted at w to the generator rooted at map(w).

_EMPTY_SPINE = frozenset({_encode((), 0), _encode((), 1)})

# A counted layer is enumerated in classes of its keys' low bits: the
# parity and the first two letters (12 classes at depth 5).
_CLASS_BITS = 5


def _spread(pattern: int, n: int) -> int:
    """The XOR that applies ``pattern`` to every letter of a key of bit
    length ``n``."""
    return pattern * ((1 << n - 2) // 3) << 1


def _image(key: int, pattern: int) -> int:
    """The key of the image of ``key``'s element under a letter map."""
    return key ^ _spread(pattern, key.bit_length())


class GroupBall:
    """Products of at most `depth` reflection generators, deduplicated.

    Layer k holds the elements whose minimal generator-word length is
    exactly k.  ``symmetries`` are the letter maps (as XOR patterns) that
    send the set of generators onto itself.  Such a map preserves word
    length, so every layer is a union of its orbits, and a layer is
    stored as one canonical key per orbit: the member whose last letter
    has the least code.  A nonempty spine's orbit has exactly
    ``len(symmetries)`` keys; an empty spine's has one.

    With ``count_last`` the deepest layer (depth >= 1) is counted and never
    held: its keys are enumerated one low-bit class at a time
    (``_parts``), and membership in it is decided from the layers below
    (``_depth``).  Reading its keys builds it anew on every call.
    """

    def __init__(
        self, roots: Sequence[ReducedWord], depth: int, count_last: bool = False
    ):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.roots = tuple(roots)
        self.depth = depth
        # the distinct generator spines, in root order, with their parity-0
        # keys; all generators have parity 1
        letters = dict.fromkeys(room_reflection(r).spine.letters for r in roots)
        self._spines = [(spine, _encode(spine, 0)) for spine in letters]
        keys = {key for _, key in self._spines}
        self.symmetries = tuple(
            p for p in range(4) if {_image(key, p) for key in keys} == keys
        )
        # choose[c]: the symmetry that takes last-letter code c lowest
        self._choose = [min(self.symmetries, key=c.__xor__) for c in range(4)]
        # the letter pattern of the turn in ``_parts``, the same for every
        # canonical key: 0 when swap is a symmetry (the default root sets)
        self._turn = 1 ^ self._choose[1]
        # the cancellation in gen * elem depends only on the parity and the
        # first `width` letters of the swapped key, so the products come
        # from one table row per such lead, filled the first time the lead
        # is seen.  A key with fewer letters is its own lead; a longer one
        # is cut to `width` letters under a flag bit at the sentinel's
        # place, so a short lead and a cut one never alias.
        width = self._width = max((len(s) for s, _ in self._spines), default=0)
        self._flag = 1 << 1 + 2 * width
        self._table: dict[int, list[tuple[int, int, int]]] = {}
        # A row holds each product as (head, drop, keep): its key is
        # ``swapped >> drop << keep | head``, the swapped key less what the
        # junction cancels under the parity and the surviving spine head.
        # Only a spine ending in the inverse of the lead's first letter
        # can cancel; every other keeps its whole spine.
        keeps = [(key, key.bit_length() - 1) for _, key in self._spines]
        self._plain = [[(key - (1 << k) | p, 1, k) for key, k in keeps] for p in (0, 1)]
        self._ending: dict[int, list] = {}
        for n, (spine, key) in enumerate(self._spines):
            if spine:
                self._ending.setdefault(-spine[-1], []).append((n, spine, key))
        # Every generator has parity 1, so layer k holds parity k mod 2,
        # and gen * elem for elem in layer k - 1 lies in layer k - 2 or
        # layer k.
        self._reps: list[set[int]] = [{_encode((), 0)}]
        held = depth if count_last and depth else depth + 1
        for k in range(1, held):
            self._reps.append(next(self._parts(k, 0), set()))
        order = len(self.symmetries)

        def size(layer: set[int]) -> int:
            return order * len(layer) - (order - 1) * len(layer & _EMPTY_SPINE)

        self._sizes = [size(layer) for layer in self._reps]
        if held == depth:
            self._sizes.append(sum(map(size, self._parts(depth, _CLASS_BITS))))

    def _parts(self, k: int, bits: int) -> Iterator[set[int]]:
        """Layer k's canonical keys, one set per value of their low
        ``bits`` bits, built one set at a time from held layers k - 1 and
        k - 2 (``bits`` 0 gives the whole layer as one set).

        Every element of layer k is tau(gen * s) for a representative s of
        layer k - 1, so its orbit meets the products of s: layer k is the
        canonical products less layer k - 2, class by class.  gen * elem =
        (gen spine * swap(elem spine), 1 ^ parity), and the products of
        the orbit of elem are the orbits of the products of any one
        member.  A key with more letters than any spine keeps its last
        letter in every product, so turning its swapped key by the
        symmetry that makes that letter canonical makes every product
        canonical.  A canonical last code c is least in its orbit: with
        swap a symmetry, c ^ 1 is in that orbit and the turn undoes the
        swap; without it ({0}, {0, 2}, {0, 3}) c ^ 1 is least in its own,
        and the turn is the swap.  So every key turns by one XOR, ``key ^
        1`` for the default root sets.  Such keys are bucketed by lead.
        Within a bucket the bits a junction drops are the lead's own, so
        each (lead, generator) entry is one shift plus a constant, and it
        fixes the product's low ``keep + lead bits - drop`` bits: an entry
        fixing at least ``bits`` of them is filed whole under its first
        product's class, and the few that fix fewer (a spine that cancels
        whole) are filed product by product, as are the products of the
        short keys.
        """
        below = self._reps[k - 1]
        below2 = self._reps[k - 2] if k >= 2 else set()
        mask = (1 << bits) - 1
        flag = self._flag
        lead_bits = 1 + 2 * self._width
        # per class: the (bucket, shift, constant) entries shifting left,
        # and those shifting right
        jobs: dict[int, tuple[list, list]] = {}
        loose: dict[int, list[int]] = {}
        buckets: dict[int, list[int]] = {}
        long = flag << 1
        low = flag - 1
        turn = self._turn
        for key in below:
            if key >= long:
                swapped = key ^ (_spread(turn, key.bit_length()) | 1 if turn else 1)
                buckets.setdefault(swapped & low | flag, []).append(swapped)
            else:
                for p in map(self._canonical, self._neighbours(key)):
                    loose.setdefault(p & mask, []).append(p)
        for lead, bucket in buckets.items():
            for head, drop, keep in self._row(lead):
                if keep + lead_bits - drop < bits:
                    for s in bucket:
                        p = s >> drop << keep | head
                        loose.setdefault(p & mask, []).append(p)
                    continue
                # the dropped bits of every s in the bucket are the lead's
                low = lead & (1 << drop) - 1
                lefts, rights = jobs.setdefault(
                    (bucket[0] >> drop << keep | head) & mask, ([], [])
                )
                if keep >= drop:
                    lefts.append((bucket, keep - drop, head - (low << keep - drop)))
                else:
                    rights.append((bucket, drop - keep, head - (low >> drop - keep)))
        for cls in jobs.keys() | loose.keys():
            part = set(loose.get(cls, ()))
            lefts, rights = jobs.get(cls, ((), ()))
            part.update([(s << sh) + c for bucket, sh, c in lefts for s in bucket])
            part.update([(s >> sh) + c for bucket, sh, c in rights for s in bucket])
            part -= below2
            yield part

    def _row(self, swapped: int) -> list[tuple[int, int, int]]:
        flag = self._flag
        lead = swapped if swapped < flag else swapped & flag - 1 | flag
        row = self._table.get(lead)
        if row is None:
            row = self._table[lead] = self._plain[lead & 1].copy()
            body = _letters(lead)
            for n, spine, key in self._ending.get(body[0], ()) if body else ():
                i, j = len(spine), 0
                while i and j < len(body) and spine[i - 1] == -body[j]:
                    i -= 1
                    j += 1
                keep = 1 + 2 * i
                row[n] = (key & (1 << keep) - 1 | lead & 1, 1 + 2 * j, keep)
        return row

    def _neighbours(self, key: int) -> list[int]:
        """The keys of gen * elem for each generator, in generator order."""
        # bit 0 and the low bit of every letter: swap codes 0 <-> 1, 2 <-> 3
        swapped = key ^ (_spread(1, key.bit_length()) | 1)
        row = self._row(swapped)
        return [swapped >> drop << keep | head for head, drop, keep in row]

    def _canonical(self, key: int) -> int:
        n = key.bit_length()
        return key ^ _spread(self._choose[key >> n - 3 & 3], n) if n > 2 else key

    def __len__(self) -> int:
        return sum(self._sizes)

    def _depth(self, key: int, past: bool = False) -> Optional[int]:
        """The layer holding ``key``, or None; with ``past``, a fully held
        ball also decides the layer one past its depth.  A key of the
        first layer d not held (the counted layer, or that one) has d's
        parity, is not in layer d - 2, and has a generator product in
        layer d - 1: every generator is a parity-1 involution, and a
        product of a layer d - 1 element lies in layer d - 2 or d.  The
        parity test only spares the products of a key of the other parity,
        which all have d's parity and so miss layer d - 1."""
        rep = self._canonical(key)
        reps = self._reps
        for k in range(key & 1, len(reps), 2):
            if rep in reps[k]:
                return k
        d = len(reps)
        if d <= self.depth + past and (d ^ key) & 1 == 0:
            products = map(self._canonical, self._neighbours(rep))
            if not reps[-1].isdisjoint(products):
                return d
        return None

    def depth_of(
        self, letters: tuple[int, ...], parity: int, past: bool = False
    ) -> Optional[int]:
        """The layer holding the element (``letters``, ``parity``), or None;
        ``past`` as for ``_depth``."""
        return self._depth(_encode(letters, parity), past)

    def __contains__(self, g: ActionElement) -> bool:
        return self._depth(_encode(g.spine.letters, g.parity)) is not None

    def layer_sizes(self) -> list[int]:
        return list(self._sizes)

    def _layer(self, k: int) -> set[int]:
        """Layer k's canonical keys; the counted layer is built anew."""
        if k < len(self._reps):
            return self._reps[k]
        if k > self.depth:
            raise IndexError(f"layer {k} is past depth {self.depth}")
        return next(self._parts(k, 0), set())

    def _layer_keys(self, k: int) -> Iterator[int]:
        for rep in self._layer(k):
            n = rep.bit_length()
            for p in self.symmetries if n > 2 else (0,):
                yield rep ^ _spread(p, n)

    def iter_layer(self, k: int) -> Iterator[ActionElement]:
        """Every element of layer k once, in no specified order."""
        return map(_decode, self._layer_keys(k))

    def splits(self, g: ActionElement, k: int) -> bool:
        """Whether g = a * b for some a of layer k and b in the ball.
        Generators are involutions, so layers are closed under inverses
        and symmetries: one a per orbit is tried against every image of
        g^-1, each product g^-1 a taken on packed keys."""
        key = _encode(g.inverse().spine.letters, g.parity)
        n = key.bit_length()
        images = [key ^ _spread(p, n) for p in self.symmetries if n > 2 or not p]
        depth = self._depth
        return any(
            depth(_product(h, a)) is not None for a in self._layer(k) for h in images
        )

    def __iter__(self) -> Iterator[ActionElement]:
        for k in range(self.depth + 1):
            yield from self.iter_layer(k)

    def nonidentity(self) -> Iterator[ActionElement]:
        for g in self:
            if not g.is_identity():
                yield g


def group_ball(
    roots: Sequence[ReducedWord], depth: int, count_last: bool = False
) -> GroupBall:
    return GroupBall(roots, depth, count_last)


# ------------------------------------------------------------- spine walk


def walk_to_spine(v: ReducedWord) -> tuple[ActionElement, int]:
    """An element g with g.apply(v) a power of r, plus that power.

    Walks left to right: each step reflects at the room named by the current
    maximal leading r-run, which merges the first two runs.  Words already on
    the spine emit nothing, so g is a product of at most run_count(v)
    generators.
    """
    g = IDENTITY
    w = v
    steps = 0
    bound = run_count(v)
    while True:
        exp = spine_exponent(w)
        if exp is not None:
            return g, exp
        steps += 1
        if steps > bound:
            raise AssertionError(f"walk exceeded run bound on {v.text()}")
        h = room_reflection(r_power(leading_r_run(w)))
        w = h.apply(w)
        g = h * g
