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
    """

    def __init__(self, roots: Sequence[ReducedWord], depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
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
        # the letter pattern of the turn in ``_next_layer``, the same for
        # every canonical key: 0 when swap is a symmetry (the default root
        # sets)
        self._turn = 1 ^ self._choose[1]
        # the cancellation in gen * elem depends only on the parity and the
        # first `width` letters of the swapped key, so the products come
        # from one table row per such lead, filled the first time the lead
        # is seen.  A key with fewer letters is its own lead; a longer one
        # is cut to `width` letters under a flag bit at the sentinel's
        # place, so a short lead and a cut one never alias.
        width = max((len(s) for s, _ in self._spines), default=0)
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
        for k in range(1, depth + 1):
            self._reps.append(self._next_layer(k))
        order = len(self.symmetries)
        self._sizes = [
            order * len(layer) - (order - 1) * len(layer & _EMPTY_SPINE)
            for layer in self._reps
        ]

    def _next_layer(self, k: int) -> set[int]:
        """Layer k's canonical keys, from held layers k - 1 and k - 2.

        Every element of layer k is tau(gen * s) for a representative s of
        layer k - 1, so its orbit meets the products of s: layer k is the
        canonical products less layer k - 2.  gen * elem = (gen spine *
        swap(elem spine), 1 ^ parity), and the products of the orbit of
        elem are the orbits of the products of any one member.  A key with
        more letters than any spine keeps its last letter in every
        product, so turning its swapped key by the symmetry that makes
        that letter canonical makes every product canonical.  A canonical
        last code c is least in its orbit: with swap a symmetry, c ^ 1 is
        in that orbit and the turn undoes the swap; without it ({0},
        {0, 2}, {0, 3}) c ^ 1 is least in its own, and the turn is the
        swap.  So every such key turns by one XOR, ``key ^ 1`` for the
        default root sets, and is bucketed by lead: within a bucket every
        product is one table row's shift.  The short keys take their
        products one by one.
        """
        layer: set[int] = set()
        buckets: dict[int, list[int]] = {}
        flag = self._flag
        long = flag << 1
        low = flag - 1
        turn = self._turn
        for key in self._reps[k - 1]:
            if key >= long:
                swapped = key ^ (_spread(turn, key.bit_length()) | 1 if turn else 1)
                buckets.setdefault(swapped & low | flag, []).append(swapped)
            else:
                layer.update(map(self._canonical, self._neighbours(key)))
        for lead, bucket in buckets.items():
            for head, drop, keep in self._row(lead):
                layer.update([s >> drop << keep | head for s in bucket])
        if k >= 2:
            layer -= self._reps[k - 2]
        return layer

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
        """The layer holding ``key``, or None; with ``past``, also the
        layer d = depth + 1 past the ball.  A key of layer d has d's
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
        if past and (d ^ key) & 1 == 0:
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

    def _layer_keys(self, k: int) -> Iterator[int]:
        for rep in self._reps[k]:
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
            depth(_product(h, a)) is not None for a in self._reps[k] for h in images
        )

    def __iter__(self) -> Iterator[ActionElement]:
        for k in range(self.depth + 1):
            yield from self.iter_layer(k)

    def nonidentity(self) -> Iterator[ActionElement]:
        for g in self:
            if not g.is_identity():
                yield g


def group_ball(roots: Sequence[ReducedWord], depth: int) -> GroupBall:
    return GroupBall(roots, depth)


# ------------------------------------------------------------ layer tries

# A trie node is (terminal, child of code 0, 1, 2, 3), a set of words
# whose letters are read as their 2-bit codes; hash-consing gives equal
# subtries one id.  Id 0 is the empty set, and id 1 the empty word alone.
_NO_WORD = (False, 0, 0, 0, 0)
_EMPTY_WORD = (True, 0, 0, 0, 0)
# Node ids stay below 2 ** _ID_BITS, so a << _ID_BITS | b packs the pair.
_ID_BITS = 32


class _Tries:
    """The hash-consed nodes of a family of tries, their word counts, and
    the memos of union and difference on node pairs.

    A memo key is one int, a << _ID_BITS | b for the pair (a, b), the
    smaller id first for the union: exact, and so collision-free, while
    every id is below 2 ** _ID_BITS, and ``node`` refuses the id past
    that bound.  The trivial pairs (equal ids, an empty side) are decided
    inline for every child before any recursive call, so a shared
    subtrie costs no call and no memo entry."""

    def __init__(self) -> None:
        self.nodes = [_NO_WORD, _EMPTY_WORD]
        self.ids = {_NO_WORD: 0, _EMPTY_WORD: 1}
        self.sizes = [0, 1]
        self._unions: dict[int, int] = {}
        self._differences: dict[int, int] = {}

    def node(self, terminal: bool, c0: int, c1: int, c2: int, c3: int) -> int:
        entry = (terminal, c0, c1, c2, c3)
        found = self.ids.get(entry)
        if found is None:
            found = len(self.nodes)
            if found >> _ID_BITS:
                raise OverflowError(f"a trie family holds at most 2**{_ID_BITS} nodes")
            self.ids[entry] = found
            self.nodes.append(entry)
            sizes = self.sizes
            sizes.append(terminal + sizes[c0] + sizes[c1] + sizes[c2] + sizes[c3])
        return found

    def times(self, g: tuple[int, ...], node: int) -> int:
        """The words g * t, reduced, for the words t of ``node``; g is a
        tuple of n letter codes.  A t that cancels exactly the last c
        letters of g lies below the node reached along g^-1[:c] and does
        not go on with g^-1[c], and its product is g[:n - c] followed by
        the rest of t.  So the product's node after g[:m] is the node
        reached along g^-1[:n - m], less its child g^-1[n - m], plus the
        child g[m] built for m + 1: only the n + 1 nodes along g^-1 are
        rewritten, from the deepest up."""
        nodes = self.nodes
        n = len(g)
        path = [node]
        for c in reversed(g):
            node = nodes[node][1 + (c ^ 3)]
            path.append(node)
        made = 0
        for m in range(n, -1, -1):
            terminal, c0, c1, c2, c3 = nodes[path[n - m]]
            cut = g[m - 1] ^ 3 if m else -1  # g is reduced: never ``put``
            put = g[m] if m < n else -1
            made = self.node(
                terminal,
                made if put == 0 else 0 if cut == 0 else c0,
                made if put == 1 else 0 if cut == 1 else c1,
                made if put == 2 else 0 if cut == 2 else c2,
                made if put == 3 else 0 if cut == 3 else c3,
            )
        return made

    def union(self, a: int, b: int) -> int:
        if a == b or not b:
            return a
        if not a:
            return b
        key = a << _ID_BITS | b if a < b else b << _ID_BITS | a
        found = self._unions.get(key)
        if found is None:
            nodes, union = self.nodes, self.union
            s, a0, a1, a2, a3 = nodes[a]
            t, b0, b1, b2, b3 = nodes[b]
            found = self._unions[key] = self.node(
                s or t,
                a0 if a0 == b0 or not b0 else b0 if not a0 else union(a0, b0),
                a1 if a1 == b1 or not b1 else b1 if not a1 else union(a1, b1),
                a2 if a2 == b2 or not b2 else b2 if not a2 else union(a2, b2),
                a3 if a3 == b3 or not b3 else b3 if not a3 else union(a3, b3),
            )
        return found

    def difference(self, a: int, b: int) -> int:
        if not a or not b:
            return a
        if a == b:
            return 0
        key = a << _ID_BITS | b
        found = self._differences.get(key)
        if found is None:
            nodes, difference = self.nodes, self.difference
            s, a0, a1, a2, a3 = nodes[a]
            t, b0, b1, b2, b3 = nodes[b]
            found = self._differences[key] = self.node(
                s and not t,
                a0 if not (a0 and b0) else 0 if a0 == b0 else difference(a0, b0),
                a1 if not (a1 and b1) else 0 if a1 == b1 else difference(a1, b1),
                a2 if not (a2 and b2) else 0 if a2 == b2 else difference(a2, b2),
                a3 if not (a3 and b3) else 0 if a3 == b3 else difference(a3, b3),
            )
        return found


class TrieBall:
    """The layers of ``GroupBall``, each held as a trie of spines, so no
    layer is enumerated to be built or counted.

    Every generator has parity 1, so layer k holds parity k mod 2, and
    the trie of layer k holds tau_k = swap^k of its spines.  gen * elem =
    (gen spine * swap(elem spine), 1 ^ parity) turns into plain left
    multiplication there: tau_k is the union over generators g of
    swap^k(g) * tau_(k-1), less tau_(k-2) (a product of a layer k - 1
    element lies in layer k - 2 or k).  The sets of ``_Tries`` do the
    rest: a product rewrites the few nodes along g^-1, and a union or
    difference stops at the first shared node.

    The group the scan roots generate is a free product of five copies
    of Z/2, so its words have finitely many cone types, and each layer
    is a slice of one regular language: its trie stays small (180 nodes
    for layer 5, 40 more each layer).  ``to_depth`` shares the nodes and
    the layers it already has.
    """

    def __init__(self, roots: Sequence[ReducedWord], depth: int):
        letters = dict.fromkeys(room_reflection(r).spine.letters for r in roots)
        gens = [tuple(_ENC[a] for a in spine) for spine in letters]
        # swap^k(g) for even and odd k: swap flips the low bit of a code
        self._gens = (gens, [tuple(c ^ 1 for c in g) for g in gens])
        self._tries = _Tries()
        self._roots = [1]
        self._grow(depth)

    def _grow(self, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        tries, roots = self._tries, self._roots
        union, times = tries.union, tries.times
        while len(roots) <= depth:
            k = len(roots)
            layer = 0
            for g in self._gens[k & 1]:
                layer = union(layer, times(g, roots[k - 1]))
            roots.append(tries.difference(layer, roots[k - 2]) if k >= 2 else layer)
        del roots[depth + 1 :]
        self.depth = depth

    def to_depth(self, depth: int) -> "TrieBall":
        """The ball of the same roots at ``depth``, sharing this one's
        nodes and the layers both hold."""
        ball = object.__new__(TrieBall)
        ball._gens, ball._tries, ball._roots = self._gens, self._tries, self._roots[:]
        ball._grow(depth)
        return ball

    def __len__(self) -> int:
        return sum(self.layer_sizes())

    def layer_sizes(self) -> list[int]:
        """The layers' word counts.  Their sum is the ball's size, which
        ``len`` refuses past 2 ** 63 - 1 (from depth 17 on)."""
        sizes = self._tries.sizes
        return [sizes[root] for root in self._roots]

    def depth_of(self, letters: tuple[int, ...], parity: int) -> Optional[int]:
        """The layer holding the element (``letters``, ``parity``), or None:
        swap^k(letters) walked in each layer k of that parity."""
        slots = [1 + (_ENC[a] ^ parity) for a in letters]
        nodes = self._tries.nodes
        for k in range(parity, self.depth + 1, 2):
            node = self._roots[k]
            for slot in slots:
                node = nodes[node][slot]  # node 0, the empty set, stays
            if nodes[node][0]:
                return k
        return None

    def __contains__(self, g: ActionElement) -> bool:
        return self.depth_of(g.spine.letters, g.parity) is not None

    def _layer_keys(self, k: int) -> Iterator[int]:
        """Layer k's packed keys, read off its trie depth first."""
        nodes = self._tries.nodes
        flip = k & 1
        todo = [(self._roots[k], flip, 1)]
        while todo:
            node, key, shift = todo.pop()
            entry = nodes[node]
            if entry[0]:
                yield key | 1 << shift
            for c in range(4):
                if entry[1 + c]:
                    todo.append((entry[1 + c], key | (c ^ flip) << shift, shift + 2))

    def __iter__(self) -> Iterator[ActionElement]:
        for k in range(self.depth + 1):
            yield from map(_decode, self._layer_keys(k))


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
