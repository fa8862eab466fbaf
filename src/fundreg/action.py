"""Group elements acting on the room tree, in (spine, parity) normal form.

Every element acts on a word v as  v |-> spine * swap^parity(v)  where swap
exchanges the two generator families.  The reflection generators carry one
root word each: the generator rooted at w has spine w * swap(w^-1) and
parity 1, and squares to the identity.  Normal forms compose by

    (a.spine * swap^a.parity(b.spine), a.parity xor b.parity)

so equality of elements is equality of the pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .freegroup import (
    IDENTITY_WORD,
    ReducedWord,
    leading_r_run,
    r_power,
    run_count,
    spine_exponent,
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
    """The order-two element fixing the diagonal of the room at `root`."""
    return ActionElement(root * root.inverse().swapped(), 1)


def generator_text(root: ReducedWord) -> str:
    return f"g[{root.text()}]"


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


def _junctions(spines: list[tuple[tuple, int]], lead: int) -> list[tuple]:
    """One row of the product table: for a swapped key whose parity and
    first letters are those of ``lead``, each generator's product as
    ``(head, drop, keep)``.  The product key ``swapped >> drop << keep |
    head`` is the swapped key less its parity and the letters the junction
    cancels, under the parity and the surviving spine head: the low
    ``keep`` bits of the spine's parity-0 key."""
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


class GroupBall:
    """Products of at most `depth` reflection generators, deduplicated.

    Layers are breadth-first: layer k holds the elements whose minimal
    generator-word length is exactly k.
    """

    def __init__(self, roots: Sequence[ReducedWord], depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.roots = tuple(roots)
        self.depth = depth
        # the distinct generator spines, in root order, with their parity-0
        # keys; all generators have parity 1
        letters = dict.fromkeys(room_reflection(r).spine.letters for r in roots)
        spines = [(spine, _encode(spine, 0)) for spine in letters]
        # the cancellation in gen * elem depends only on the parity and the
        # first `width` letters of the swapped key, so the products come
        # from one table row per such lead, filled the first time the lead
        # is seen.  A key with fewer letters is its own lead; a longer one
        # is cut to `width` letters under a flag bit at the sentinel's
        # place, so a short lead and a cut one never alias.
        width = max((len(spine) for spine, _ in spines), default=0)
        flag = 1 << 1 + 2 * width
        table: dict[int, list[tuple[int, int, int]]] = {}

        def products(layer: dict[int, None]) -> Iterator[int]:
            # new = gen * elem = (gen spine * swap(elem spine), 1 ^ parity);
            # flips[n] has bit 0 and the low bit of each letter of a key of
            # bit length n set, so its XOR swaps codes 0 <-> 1, 2 <-> 3.
            top = max(layer, default=0).bit_length()
            flips = [(1 << n) // 12 << 1 | 1 for n in range(top + 1)]
            for key in layer:
                swapped = key ^ flips[key.bit_length()]
                lead = swapped if swapped < flag else swapped & flag - 1 | flag
                row = table.get(lead)
                if row is None:
                    row = table[lead] = _junctions(spines, lead)
                for head, drop, keep in row:
                    yield swapped >> drop << keep | head

        # Every generator has parity 1, so layer k holds parity k mod 2,
        # and gen * elem for elem in layer k - 1 lies in layer k - 2 or
        # layer k: layer k is the products less the keys of layer k - 2.
        layers: list[dict[int, None]] = [{_encode((), 0): None}]
        for k in range(1, depth + 1):
            nxt = dict.fromkeys(products(layers[-1]))
            for key in layers[-2] if k >= 2 else ():
                nxt.pop(key, None)
            layers.append(nxt)
        self._layers = layers

    def __len__(self) -> int:
        return sum(map(len, self._layers))

    def _depth(self, key: int) -> Optional[int]:
        ks = range(key & 1, len(self._layers), 2)
        return next((k for k in ks if key in self._layers[k]), None)

    def __contains__(self, g: ActionElement) -> bool:
        return self._depth(_encode(g.spine.letters, g.parity)) is not None

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self._layers]

    def iter_layer(self, k: int) -> Iterator[ActionElement]:
        return (_decode(key) for key in self._layers[k])

    def __iter__(self) -> Iterator[ActionElement]:
        for layer in self._layers:
            yield from (_decode(key) for key in layer)

    def nonidentity(self) -> Iterator[ActionElement]:
        for g in self:
            if not g.is_identity():
                yield g

    def in_iteration_order(
        self, elements: Iterable[ActionElement]
    ) -> list[ActionElement]:
        """The ball members among ``elements``, in the order iteration
        yields them.

        Only the layers that hold a member are walked, and only as keys,
        so ranking a few witnesses costs no decoding of the ball.
        """
        wanted: dict[int, dict[int, ActionElement]] = {}
        for g in elements:
            key = _encode(g.spine.letters, g.parity)
            k = self._depth(key)
            if k is not None:
                wanted.setdefault(k, {})[key] = g
        out: list[ActionElement] = []
        for k in sorted(wanted):
            picks = wanted[k]
            out.extend(picks[key] for key in self._layers[k] if key in picks)
        return out


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
