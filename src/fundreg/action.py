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


# ------------------------------------------------------------ layer tries

# A trie node is (terminal, child of code 0, 1, 2, 3), a set of words
# whose letters are read as 2-bit codes, -2,-1,1,2 -> 0,1,2,3: a letter
# and its inverse have codes c and c ^ 3, and swap flips the low bit.
# Hash-consing gives equal subtries one id.  Id 0 is the empty set, and
# id 1 the empty word alone.
_ENC = {-2: 0, -1: 1, 1: 2, 2: 3}
_DEC = (-2, -1, 1, 2)
_NO_WORD = (False, 0, 0, 0, 0)
_EMPTY_WORD = (True, 0, 0, 0, 0)
# Node ids stay below 2 ** _ID_BITS, so a << _ID_BITS | b packs the pair.
_ID_BITS = 32


def _letters(key: int) -> tuple[int, ...]:
    return tuple(_DEC[key >> i & 3] for i in range(1, key.bit_length() - 1, 2))


def _decode(key: int) -> ActionElement:
    """The element of a packed key: bit 0 holds the parity, bits 1 + 2i
    and 2 + 2i the code of letter i, and a sentinel bit sits just above
    the last letter, so a word that ends in code-0 letters keeps its
    length."""
    return ActionElement(ReducedWord._trusted(_letters(key)), key & 1)


class _Tries:
    """The hash-consed nodes of a family of tries, their word counts, and
    the memos of union, difference and meets on node pairs.

    A memo key is one int, a << _ID_BITS | b for the pair (a, b), the
    smaller id first for the symmetric union and meets: exact, and so
    collision-free, while every id is below 2 ** _ID_BITS, and ``node``
    refuses the id past that bound.  The trivial pairs (equal ids, an
    empty side) are decided inline for every child before any recursive
    call, so a shared subtrie costs no call and no memo entry."""

    def __init__(self) -> None:
        self.nodes = [_NO_WORD, _EMPTY_WORD]
        self.ids = {_NO_WORD: 0, _EMPTY_WORD: 1}
        self.sizes = [0, 1]
        self._unions: dict[int, int] = {}
        self._differences: dict[int, int] = {}
        self._meets: dict[int, bool] = {}

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

    def meets(self, a: int, b: int) -> bool:
        """Whether the sets ``a`` and ``b`` share a word; every id but 0
        holds one."""
        if not a or not b:
            return False
        if a == b:
            return True
        key = a << _ID_BITS | b if a < b else b << _ID_BITS | a
        found = self._meets.get(key)
        if found is None:
            nodes, meets = self.nodes, self.meets
            s, a0, a1, a2, a3 = nodes[a]
            t, b0, b1, b2, b3 = nodes[b]
            found = self._meets[key] = bool(
                s and t
                or a0 and b0 and (a0 == b0 or meets(a0, b0))
                or a1 and b1 and (a1 == b1 or meets(a1, b1))
                or a2 and b2 and (a2 == b2 or meets(a2, b2))
                or a3 and b3 and (a3 == b3 or meets(a3, b3))
            )
        return found


class GroupBall:
    """Products of at most `depth` reflection generators, deduplicated,
    each layer held as a trie of spines, so no layer is enumerated to be
    built, counted or searched.

    Layer k holds the elements whose minimal generator-word length is
    exactly k.  Every generator has parity 1, so layer k holds parity k
    mod 2, and the trie of layer k holds tau_k = swap^k of its spines.
    gen * elem = (gen spine * swap(elem spine), 1 ^ parity) turns into
    plain left multiplication there: tau_k is the union over generators g
    of swap^k(g) * tau_(k-1), less tau_(k-2) (a product of a layer k - 1
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

    def to_depth(self, depth: int) -> "GroupBall":
        """The ball of the same roots at ``depth``, sharing this one's
        nodes and the layers both hold."""
        ball = object.__new__(GroupBall)
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

    def splits(self, g: ActionElement, k: int) -> bool:
        """Whether g = a * b for some a of layer k and b in the ball.
        Layers are closed under inverses (generators are involutions), so
        this asks whether h * a lies in the ball for h = g^-1 and some a
        of layer k.  h * a has parity p = h.parity + k mod 2, so only
        the layers i of parity p can hold it, and in their coordinates
        tau_i(h * a) = swap^p(h.spine) * tau_k(a): one left product of
        layer k's trie, met with each of theirs."""
        h = g.inverse()
        p = (h.parity + k) & 1
        tries = self._tries
        spine = tuple(_ENC[a] ^ p for a in h.spine.letters)
        moved = tries.times(spine, self._roots[k])
        return any(tries.meets(moved, root) for root in self._roots[p::2])

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

    def iter_layer(self, k: int) -> Iterator[ActionElement]:
        """Every element of layer k once, in no specified order."""
        return map(_decode, self._layer_keys(k))

    def __iter__(self) -> Iterator[ActionElement]:
        for k in range(self.depth + 1):
            yield from self.iter_layer(k)

    def nonidentity(self) -> Iterator[ActionElement]:
        for g in self:
            if not g.is_identity():
                yield g


def group_ball(roots: Sequence[ReducedWord], depth: int) -> GroupBall:
    return GroupBall(roots, depth)


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
