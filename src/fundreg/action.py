"""Group elements acting on the room tree, in (spine, parity) normal form.

Every element acts on a word v as  v |-> spine * swap^parity(v)  where swap
exchanges the two generator families.  The reflection generators carry one
root word each: the generator rooted at w has spine w * swap(w^-1) and
parity 1, and squares to the identity.  Normal forms compose by

    (a.spine * swap^a.parity(b.spine), a.parity xor b.parity)

so equality of elements is equality of the pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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

# Ball keys pack (parity, spine letters) into bytes: one header byte for the
# parity, then one byte per letter via the map -2,-1,1,2 -> 0,1,2,3.  Compact
# keys keep million-element balls affordable.

_ENC = {-2: 0, -1: 1, 1: 2, 2: 3}
_DEC = {0: -2, 1: -1, 2: 1, 3: 2}


def _encode(letters: tuple[int, ...], parity: int) -> bytes:
    return bytes([parity] + [_ENC[a] for a in letters])


def _letters(key: bytes) -> tuple[int, ...]:
    return tuple(_DEC[b] for b in key[1:])


def _decode(key: bytes) -> ActionElement:
    return ActionElement(ReducedWord._trusted(_letters(key)), key[0])


# On a whole key, one translate swaps every letter code (r <-> u, R <-> U:
# 0 <-> 1, 2 <-> 3) and flips the parity header p to 1 ^ p, which is the
# header of a product with a parity-1 generator.  Code c cancels 3 - c.
_SWAP_FLIP = bytes.maketrans(b"\x00\x01\x02\x03", b"\x01\x00\x03\x02")


def _junctions(spines: list[bytes], lead: bytes) -> list[tuple[bytes, int]]:
    """One row of the product table: for a swapped key that starts with
    ``lead`` (its header, then as many letter codes as the longest spine
    has), each generator's product as ``(header + surviving spine head,
    cut)``.  The product key is that head followed by the swapped key from
    ``cut`` on."""
    body = lead[1:]
    row = []
    for spine in spines:
        i = len(spine)
        j = 0
        while i and j < len(body) and spine[i - 1] == 3 - body[j]:
            i -= 1
            j += 1
        row.append((lead[:1] + spine[:i], 1 + j))
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
        # the distinct generator spines as letter codes, in root order;
        # all generators have parity 1
        spines = list(
            dict.fromkeys(
                bytes(_ENC[a] for a in room_reflection(r).spine.letters)
                for r in roots
            )
        )
        # the cancellation in gen * elem depends only on the first `width`
        # bytes of the swapped key, so the products come from one table row
        # per such prefix, filled the first time the prefix is seen
        width = 1 + max(map(len, spines), default=0)
        table: dict[bytes, list[tuple[bytes, int]]] = {}

        depth_of: dict[bytes, int] = {_encode((), 0): 0}
        layers: list[list[bytes]] = [[_encode((), 0)]]
        for k in range(1, depth + 1):
            nxt: list[bytes] = []
            for key in layers[-1]:
                # new = gen * elem = (gen spine * swap(elem spine), 1 ^ parity)
                swapped = key.translate(_SWAP_FLIP)
                lead = swapped[:width]
                row = table.get(lead)
                if row is None:
                    row = table[lead] = _junctions(spines, lead)
                for head, cut in row:
                    new = head + swapped[cut:]
                    if new not in depth_of:
                        depth_of[new] = k
                        nxt.append(new)
            layers.append(nxt)
        self._depth_of = depth_of
        self._layers = layers

    def __len__(self) -> int:
        return len(self._depth_of)

    def __contains__(self, g: ActionElement) -> bool:
        return _encode(g.spine.letters, g.parity) in self._depth_of

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
        wanted: dict[int, dict[bytes, ActionElement]] = {}
        for g in elements:
            key = _encode(g.spine.letters, g.parity)
            k = self._depth_of.get(key)
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
