"""The node algebra of the layer tries (``action._Tries``) against sets.

Random small sets of reduced code words are built as tries.  Union,
difference, ``meets`` (a shared word), the reduced left product ``times``
and the stored word counts are compared with the same operations on
Python sets of tuples.  The
memos key a node pair (a, b) on the one int a << _ID_BITS | b, which is
exact while every id is below 2 ** _ID_BITS.  The bound is pinned with it
lowered: every pair of ids up to its edge is packed and answered right,
and the id past it is refused.
"""

import pytest
from hypothesis import given, strategies as st

from fundreg import action
from fundreg.action import _Tries


def reduced(word):
    """``word`` freely reduced: code c's inverse is c ^ 3 (letters -2, -1,
    1, 2 are codes 0, 1, 2, 3)."""
    out = []
    for c in word:
        if out and out[-1] == c ^ 3:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


words = st.lists(st.integers(0, 3), max_size=7).map(reduced)
word_sets = st.frozensets(words, max_size=14)


def build(tries, ws):
    """The node of the word set ``ws``, built bottom up."""
    if not ws:
        return 0
    children = [build(tries, {w[1:] for w in ws if w and w[0] == c}) for c in range(4)]
    return tries.node(() in ws, *children)


def words_of(tries, node, prefix=()):
    terminal, *children = tries.nodes[node]
    found = {prefix} if terminal else set()
    for c, child in enumerate(children):
        if child:
            found |= words_of(tries, child, prefix + (c,))
    return found


def assert_holds(tries, node, ws):
    """``node`` is the set ``ws``: its words, its stored count, and the one
    id that hash-consing gives that set."""
    assert words_of(tries, node) == ws
    assert tries.sizes[node] == len(ws)
    assert build(tries, ws) == node


def assert_algebra(tries, xs, ys, g):
    a, b = build(tries, xs), build(tries, ys)
    assert_holds(tries, a, xs)
    assert_holds(tries, tries.union(a, b), xs | ys)
    assert tries.union(b, a) == tries.union(a, b)
    assert_holds(tries, tries.difference(a, b), xs - ys)
    assert_holds(tries, tries.difference(b, a), ys - xs)
    assert tries.meets(a, b) is tries.meets(b, a) is bool(xs & ys)
    assert tries.meets(a, a) is bool(xs)
    assert_holds(tries, tries.times(g, a), {reduced(g + t) for t in xs})


@given(word_sets, word_sets, words)
def test_node_algebra_matches_sets(xs, ys, g):
    assert_algebra(_Tries(), xs, ys, g)


def test_memo_keys_do_not_collide_at_the_edge_of_the_packing(monkeypatch):
    # the 32 subsets of five one-letter-or-empty words are 32 nodes whose
    # children are ids 0 and 1: with 5 id bits they take every id, and as
    # the family is closed under union and difference, every pair of ids
    # is packed into a memo key and answered without a new node, as is
    # every meets
    monkeypatch.setattr(action, "_ID_BITS", 5)
    tries = _Tries()
    short = [(), (0,), (1,), (2,), (3,)]
    sets = [{w for i, w in enumerate(short) if mask >> i & 1} for mask in range(32)]
    ids = [build(tries, ws) for ws in sets]
    assert sorted(ids) == list(range(32))
    for xs, a in zip(sets, ids):
        for ys, b in zip(sets, ids):
            assert words_of(tries, tries.union(a, b)) == xs | ys
            assert words_of(tries, tries.difference(a, b)) == xs - ys
            assert tries.meets(a, b) is bool(xs & ys)
    assert len(tries.nodes) == 32
    with pytest.raises(OverflowError):
        tries.node(False, ids[3], 0, 0, 0)  # the words 0 and 00
    # the refused node left no trace, and every held one is still found
    assert len(tries.nodes) == len(tries.sizes) == len(tries.ids) == 32
    assert [build(tries, ws) for ws in sets] == ids

