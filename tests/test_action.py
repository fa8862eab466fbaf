"""Action normal-form tests against the defining reflection formula."""

import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fundreg.action import (
    IDENTITY,
    ActionElement,
    TrieBall,
    _decode,
    _encode,
    _image,
    _letters,
    _product,
    _spread,
    group_ball,
    in_root_subgroup,
    room_reflection,
    walk_to_spine,
)
from fundreg.freegroup import (
    IDENTITY_WORD,
    LETTERS,
    ReducedWord,
    enumerate_ball,
    r_power,
    run_count,
    spine_exponent,
    word,
)
from oracles import (
    ReferenceBall,
    ball_depth,
    ball_keys,
    compose_all,
    fold_member,
    junction_row,
    naive_reflection_image,
    reference_ball,
    reference_half_ball,
    reference_room_reflection,
    reference_turn,
    root_subgroup_graph,
)

letters_st = st.lists(st.sampled_from(LETTERS), max_size=10)


def test_reflection_examples():
    assert room_reflection(IDENTITY_WORD) == ActionElement(IDENTITY_WORD, 1)
    assert room_reflection(word("r")).text() == "(rU, 1)"
    assert room_reflection(r_power(3)).spine.text() == "rrrUUU"


def test_reflections_are_involutions():
    for root in enumerate_ball(3):
        g = room_reflection(root)
        assert (g * g).is_identity()
        assert g.inverse() == g


def test_reflections_match_the_word_product():
    for root in enumerate_ball(5):
        assert room_reflection(root) == reference_room_reflection(root)


def test_compose_example():
    got = room_reflection(IDENTITY_WORD) * room_reflection(word("r"))
    assert got == ActionElement(word("uR"), 0)


def test_apply_example():
    g = room_reflection(r_power(2))
    assert g.apply(word("rruuu")) == r_power(5)


def test_inverse_example():
    g = ActionElement(word("uR"), 0)
    assert g.inverse() == ActionElement(word("rU"), 0)
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


@given(letters_st, letters_st)
def test_reflection_matches_naive_formula(root_letters, v_letters):
    root = ReducedWord(root_letters)
    v = ReducedWord(v_letters)
    assert room_reflection(root).apply(v) == naive_reflection_image(root, v)


def test_action_is_homomorphism_on_small_ball():
    roots = enumerate_ball(1)
    ball = sorted(group_ball(roots, 3), key=ActionElement.sort_key)
    words = enumerate_ball(3)
    for a in ball[:40]:
        for b in ball[:40]:
            ab = a * b
            for v in words[:12]:
                assert ab.apply(v) == a.apply(b.apply(v))


@given(letters_st, letters_st, letters_st)
def test_compose_associative(a, b, c):
    ga = ActionElement(ReducedWord(a), len(a) % 2)
    gb = ActionElement(ReducedWord(b), len(b) % 2)
    gc = ActionElement(ReducedWord(c), len(c) % 2)
    assert (ga * gb) * gc == ga * (gb * gc)


def test_exponent_sum_vanishes_on_ball():
    ball = group_ball(enumerate_ball(2), 3)
    for g in ball:
        assert g.spine.exponent_sum() == 0


def test_group_ball_example():
    ball = group_ball([IDENTITY_WORD, word("r")], 1)
    got = sorted(g.text() for g in ball)
    assert got == ["(e, 0)", "(e, 1)", "(rU, 1)"]


def test_group_ball_layers_and_membership():
    ball = group_ball(enumerate_ball(1), 3)
    ref = ReferenceBall(enumerate_ball(1), 3)
    sizes = ball.layer_sizes()
    assert sizes[0] == 1
    assert sizes[1] == 5
    assert len(ball) == sum(sizes)
    ge = room_reflection(IDENTITY_WORD)
    gr = room_reflection(word("r"))
    # g[u] = g[e] g[r] g[e]: relations can shorten products
    gu = room_reflection(word("u"))
    assert compose_all([ge, gr, ge]) == gu
    for g, k in [(IDENTITY, 0), (ge, 1), (ge * gr, 2), (gu, 1)]:
        assert ball_depth(ref, g) == k
        assert g in ball and g in set(ball.iter_layer(k))
    elements = sorted(ball, key=ActionElement.sort_key)
    assert len(set(elements)) == len(elements)
    keys = [g.sort_key() for g in elements]
    assert keys == sorted(keys)


def assert_matches_the_reference_build(roots, depth, seed):
    """Same layers as the reference build, no element twice, and a few
    picks and a non-member each found in the reference layer."""
    ball = group_ball(roots, depth)
    ref = ReferenceBall(roots, depth)
    assert ball.layer_sizes() == [len(layer) for layer in ref.layers]
    for k, keys in enumerate(ball_keys(ref)):
        got = [_encode(g.spine.letters, g.parity) for g in ball.iter_layer(k)]
        assert len(got) == len(set(got))
        assert set(got) == keys
    assert len(ball) == len(ref.depth_of)
    # a few members and a non-member
    elements = ref.elements()
    picks = random.Random(seed).sample(elements, min(len(elements), 25))
    # a 20-letter spine: longer than any product of two length-4 roots
    stranger = room_reflection(word("rrrrr")) * room_reflection(word("uuuuu"))
    assert stranger not in ball
    for g in picks + [stranger]:
        assert ball.depth_of(g.spine.letters, g.parity) == ball_depth(ref, g)
    return ball


@pytest.mark.parametrize("root_len", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_group_ball_matches_the_reference_build(root_len, depth):
    seed = root_len * 10 + depth
    assert_matches_the_reference_build(enumerate_ball(root_len), depth, seed)


def test_scan_ball_matches_the_reference_build():
    ball = assert_matches_the_reference_build(enumerate_ball(2), 4, 24)
    assert len(ball) == 45_098


def test_depth_6_scan_ball_layer_sizes():
    # layers 0-5 measured on the dict-per-layer build that orbit storage
    # replaced, layer 6 on the packed-key build that the tries replaced
    ball = TrieBall(enumerate_ball(2), 6)
    assert ball.layer_sizes() == [1, 17, 232, 3112, 41736, 559752, 7507240]
    assert len(ball) == 8_112_090
    assert len(ball.to_depth(5)) == 604_850
    assert ball.to_depth(2).layer_sizes() == [1, 17, 232]


@pytest.mark.parametrize("roots", [[], [IDENTITY_WORD]], ids=["none", "e"])
def test_ball_without_spine_letters_matches_the_reference_build(roots):
    # no generator spine has a letter, so the product table's prefix is
    # the parity header alone
    ball = assert_matches_the_reference_build(roots, 3, len(roots))
    assert ball.layer_sizes() == [1, len(roots), 0, 0]


@pytest.mark.parametrize("seed", range(6))
def test_ball_over_random_roots_matches_the_reference_build(seed):
    # a random subset of the length-<=3 roots, some of them repeated, in
    # shuffled order: spines of mixed lengths from 0 to 6 letters
    rng = random.Random(20261018 + seed)
    roots = rng.sample(enumerate_ball(3), rng.randint(1, 10))
    roots += rng.choices(roots, k=3)
    rng.shuffle(roots)
    assert_matches_the_reference_build(roots, 3, seed)


# ------------------------------------------------------ letter symmetries

# The three letter maps of F(r, u) that commute with swap, straight off
# their definitions, keyed by the XOR pattern they apply to a letter code.
LETTER_MAPS = {
    1: lambda a: {1: 2, 2: 1, -1: -2, -2: -1}[a],  # swap: r <-> u
    3: lambda a: -a,  # phi: r <-> R, u <-> U
    2: lambda a: -{1: 2, 2: 1, -1: -2, -2: -1}[a],  # phi o swap
}


def mapped(pattern, g):
    """The image of g under a letter map, computed on its key."""
    return _decode(_image(_encode(g.spine.letters, g.parity), pattern))


@pytest.mark.parametrize("root_len", [2, 3])
def test_symmetries_permute_the_generators(root_len):
    roots = enumerate_ball(root_len)
    ball = group_ball(roots, 0)
    assert ball.symmetries == (0, 1, 2, 3)
    gens = {room_reflection(root) for root in roots}
    for pattern, letter_map in LETTER_MAPS.items():
        images = set()
        for g in gens:
            image = mapped(pattern, g)
            assert image.spine.letters == tuple(map(letter_map, g.spine.letters))
            assert image.parity == g.parity == 1
            images.add(image)
        assert images == gens


def test_symmetries_are_automorphisms_of_the_action():
    rng = random.Random(20261018)
    sample = rng.sample(list(group_ball(enumerate_ball(2), 3)), 200)
    for pattern in LETTER_MAPS:
        for g, h in zip(sample, reversed(sample)):
            assert mapped(pattern, g * h) == mapped(pattern, g) * mapped(pattern, h)
            assert mapped(pattern, g.inverse()) == mapped(pattern, g).inverse()


# One root set for each group of letter symmetries: the turn in
# ``GroupBall._parts`` is ``key ^ 1`` where swap is a symmetry, and the
# swap itself where it is not.
SYMMETRY_GROUPS = [
    (["", "r", "u"], (0, 1)),
    (["r", "U"], (0, 2)),
    (["r", "R"], (0, 3)),
    (["r", "ru"], (0,)),
]


# The scan roots, the profile roots and one root set per symmetry group.
ROOT_SETS = pytest.mark.parametrize(
    "roots,depth",
    [(enumerate_ball(2), 4), (enumerate_ball(3), 3)]
    + [([word(t) for t in texts], 4) for texts, _ in SYMMETRY_GROUPS],
    ids=["scan roots", "profile roots", "swap", "phi o swap", "phi", "none"],
)


@ROOT_SETS
def test_the_inlined_turn_matches_the_reference(roots, depth):
    ball = group_ball(roots, depth)
    assert ball._turn == (0 if 1 in ball.symmetries else 1)
    # every key _next_layer turns: a canonical key with more letters than
    # any spine, in every layer a deeper one is built from
    long = ball._flag << 1
    turned = [key for k in range(depth) for key in ball._reps[k] if key >= long]
    assert turned
    for key in turned:
        flip = _spread(ball._turn, key.bit_length()) | 1
        assert key ^ flip == reference_turn(ball, key)


def trie_keys(ball, k):
    """Layer k of a ``TrieBall`` as a set of packed keys, each read once."""
    keys = list(ball._layer_keys(k))
    assert len(keys) == len(set(keys))
    return set(keys)


@ROOT_SETS
def test_trie_ball_matches_the_reference_build(roots, depth):
    # the breadth-first build, layer by layer, over root sets with every
    # group of letter symmetries: the tries use none of them.  The builds
    # over the scan and profile roots are the suite's cached ones.
    cached = [n for n in (2, 3) if roots == enumerate_ball(n)]
    ref = reference_ball(cached[0], depth) if cached else ReferenceBall(roots, depth)
    ball = TrieBall(roots, depth)
    assert ball.layer_sizes() == [len(layer) for layer in ref.layers]
    assert len(ball) == len(ref.depth_of)
    for k, keys in enumerate(ball_keys(ref)):
        assert trie_keys(ball, k) == keys


@pytest.mark.parametrize(
    "texts,symmetries",
    [SYMMETRY_GROUPS[0], SYMMETRY_GROUPS[3]],
    ids=["swap only", "none"],
)
def test_ball_over_asymmetric_roots_matches_the_reference_build(texts, symmetries):
    roots = [word(t) for t in texts]
    assert group_ball(roots, 0).symmetries == symmetries
    assert_matches_the_reference_build(roots, 4, len(texts))


def test_packed_product_matches_the_element_product():
    rng = random.Random(28)
    sample = rng.sample(list(group_ball(enumerate_ball(2), 3)), 300)
    sample += [
        ActionElement(ReducedWord(rng.choices(LETTERS, k=rng.randint(0, 30))), p)
        for p in (0, 1)
        for _ in range(100)
    ]

    def key(g):
        return _encode(g.spine.letters, g.parity)

    for _ in range(3000):
        g, h = rng.choice(sample), rng.choice(sample)
        if rng.random() < 0.5:
            # h starts with the inverse of g, up to its whole spine
            h = g.inverse() * h
        assert _product(key(g), key(h)) == key(g * h)


# ------------------------------------------------ membership in closed form


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_root_subgroup_membership_matches_the_stallings_fold(k):
    # the fold has the 2k + 1 vertices of the segment -k .. k
    assert len(root_subgroup_graph(k)) == 2 * k + 1
    rng = random.Random(k)
    words = [w.letters for w in enumerate_ball(6)]
    words += [
        ReducedWord(rng.choices(LETTERS, k=rng.randint(7, 40))).letters
        for _ in range(2000)
    ]
    # products of reflections rooted within k + 1: members and strangers
    roots = enumerate_ball(k + 1)
    for _ in range(1000):
        factors = [room_reflection(rng.choice(roots)) for _ in range(rng.randint(1, 6))]
        words.append(compose_all(factors).spine.letters)
    got = [in_root_subgroup(w, k) for w in words]
    assert got == [fold_member(w, k) for w in words]
    assert 0 < sum(got) < len(got)


def test_the_fold_holds_the_half_ball_and_every_generator_product():
    half = group_ball(enumerate_ball(3), 2)
    for k in range(3):
        assert all(fold_member(_letters(key), 3) for key in half._layer_keys(k))
    rng = random.Random(3)
    roots = enumerate_ball(3)
    for _ in range(1000):
        factors = [room_reflection(rng.choice(roots)) for _ in range(rng.randint(1, 6))]
        assert fold_member(compose_all(factors).spine.letters, 3)
    # a reflection rooted at length 4 reaches exponent sum 4
    assert not fold_member(room_reflection(word("rrrr")).spine.letters, 3)
    assert fold_member(room_reflection(word("rrrr")).spine.letters, 4)


# words need not be reduced to be packed; -2 (U) is letter code 0
long_letters_st = st.lists(st.sampled_from(LETTERS), max_size=200)
code0_tail_st = st.integers(min_value=0, max_value=5)


@given(long_letters_st, code0_tail_st, st.sampled_from([0, 1]))
def test_packed_keys_round_trip(letters, tail, parity):
    w = tuple(letters) + (-2,) * tail
    g = _decode(_encode(w, parity))
    assert (g.spine.letters, g.parity) == (w, parity)


@given(
    long_letters_st,
    code0_tail_st,
    st.sampled_from([0, 1]),
    long_letters_st,
    code0_tail_st,
    st.sampled_from([0, 1]),
)
def test_packed_keys_are_injective(a, a_tail, p, b, b_tail, q):
    v = (tuple(a) + (-2,) * a_tail, p)
    w = (tuple(b) + (-2,) * b_tail, q)
    assert (_encode(*v) == _encode(*w)) == (v == w)


def test_packed_keys_keep_trailing_code0_letters():
    keys = {_encode((-2,) * n, p) for n in range(12) for p in (0, 1)}
    assert len(keys) == 24


def test_ball_over_eight_letter_spines_matches_the_reference_build():
    # roots of length <= 4: 161 generators, spines of up to 8 letters
    ball = assert_matches_the_reference_build(enumerate_ball(4), 2, 42)
    assert ball.layer_sizes()[:2] == [1, 161]


def test_spine_longer_than_every_member_is_not_in_the_ball():
    ball = group_ball(enumerate_ball(2), 3)
    longest = max(ball, key=lambda g: len(g.spine))
    n = len(longest.spine)
    # the member's spine followed by code-0 letters (U): without the
    # sentinel bit those letters would add nothing to the member's key
    tail = (-2,) * 5 if longest.spine.letters[-1] != 2 else (1,) + (-2,) * 5
    extended = ReducedWord(longest.spine.letters + tail)
    assert len(extended) > n
    assert longest in ball
    for parity in (0, 1):
        assert ActionElement(extended, parity) not in ball
        assert ActionElement(extended * word("r" * 9), parity) not in ball


# ---------------------------------------------------------- the layer tries

# (root length, depth): the scan roots, the profile roots and the
# eight-letter spines, each up to the deepest ball the suite builds
HELD = (
    [(2, d) for d in range(6)] + [(3, d) for d in range(4)] + [(4, d) for d in range(3)]
)


@lru_cache(maxsize=None)
def held_ball(root_len, depth):
    """The ``GroupBall`` over the roots of length <= ``root_len``, built once
    per test process."""
    return group_ball(enumerate_ball(root_len), depth)


def longer_than_every_member(keys):
    """Keys of both parities whose spine is the longest spine among
    ``keys`` followed by code-0 letters (U)."""
    # the largest key has the most letters
    letters = _decode(max(keys)).spine.letters
    tail = (-2,) * 5 if not letters or letters[-1] != 2 else (1,) + (-2,) * 5
    return [_encode(letters + tail, parity) for parity in (0, 1)]


def random_words(rng, n, longest):
    """``n`` random reduced words of up to ``longest`` letters, as keys of
    both parities."""
    lengths = [rng.randint(0, longest) for _ in range(n)]
    words = [ReducedWord(rng.choices(LETTERS, k=m)) for m in lengths]
    return [_encode(w.letters, parity) for w in words for parity in (0, 1)]


@pytest.mark.parametrize("root_len,depth", HELD)
def test_trie_ball_matches_the_held_ball(root_len, depth):
    held = held_ball(root_len, depth)
    ball = TrieBall(enumerate_ball(root_len), depth)
    assert ball.layer_sizes() == held.layer_sizes()
    assert len(ball) == len(held)
    for k in range(depth + 1):
        assert trie_keys(ball, k) == set(held._layer_keys(k))

    def agree(key):
        letters, parity = _letters(key), key & 1
        return ball.depth_of(letters, parity) == held.depth_of(letters, parity)

    # members: every key of a layer of up to 20,000 elements, or every
    # image of 3,000 of its orbit keys
    rng = random.Random(root_len * 10 + depth)
    members = []
    for k in range(depth + 1):
        reps = sorted(held._reps[k])
        if held.layer_sizes()[k] > 20_000:
            reps = rng.sample(reps, 3000)
        members += [
            rep ^ _spread(p, rep.bit_length())
            for rep in reps
            for p in (held.symmetries if rep.bit_length() > 2 else (0,))
        ]
    assert all(agree(key) for key in members)
    # non-members in both parities: products of layer d that lie in layer
    # d + 1, a spine longer than any member's, and random words
    top = held._reps[depth]
    sample = rng.sample(sorted(top), min(len(top), 200))
    up = {p for key in sample for p in held._neighbours(key) if held._depth(p) is None}
    assert up
    stranger = longer_than_every_member(top)
    noise = random_words(rng, 300, 4 * depth + 2)
    # and keys outside H_2: reflections rooted at length-3 words and
    # products of them (generators at root length 3 and 4)
    far = [room_reflection(word(t)) for t in ("rrr", "UUU", "ruu")]
    outside = [
        _encode(g.spine.letters, g.parity)
        for g in far + [far[0] * far[1], far[2] * far[0]]
    ]
    assert not any(in_root_subgroup(_letters(key), 2) for key in outside)
    for key in sorted(up) + stranger + noise + outside:
        assert agree(key)
    with pytest.raises(IndexError):
        next(held.iter_layer(depth + 1))
    with pytest.raises(IndexError):
        next(ball._layer_keys(depth + 1))


@pytest.mark.parametrize("depth", [4, 5])
def test_every_filled_row_matches_the_junction_walk(depth):
    # held balls over the scan roots: rows start from the no-cancellation
    # row, and only some spines walk the junction (the profile half ball's
    # rows are checked with its layer-3 decisions)
    ball = held_ball(2, depth)
    assert ball._table
    for lead, row in ball._table.items():
        assert row == junction_row(ball._spines, lead), lead


def test_a_held_scan_ball_decides_the_layer_past_it():
    roots = enumerate_ball(2)
    held = group_ball(roots, 3)
    deeper = group_ball(roots, 4)
    for k in range(5):
        keys = list(deeper._layer_keys(k))
        assert keys and all(held._depth(key, past=True) == k for key in keys)
    assert all(held._depth(key) is None for key in deeper._layer_keys(4))
    # non-members of layers 5 and 6: products of 5 or 6 generators outside
    # the depth-4 ball have exactly that depth
    rng = random.Random(25)
    gens = [room_reflection(root) for root in roots]
    far = {5: [], 6: []}
    for n, found in far.items():
        while len(found) < 300:
            g = compose_all(rng.choices(gens, k=n))
            if g not in deeper:
                found.append(g)
    for g in far[5] + far[6]:
        assert held.depth_of(g.spine.letters, g.parity, past=True) is None


def test_the_profile_half_ball_decides_layer_3():
    ref = reference_half_ball()
    half = group_ball(enumerate_ball(3), 2)
    rng = random.Random(3)
    layer3 = rng.sample(ref.layers[3], 3000)
    assert all(half._depth(key, past=True) == 3 for key in layer3)
    for k in range(3):
        assert all(half._depth(key, past=True) == k for key in ref.layers[k])
    # products of the sample that the reference does not hold are in
    # layer 4, which has layer 2's parity and must not pass for layer 3
    up = {p for key in layer3[:300] for p in half._neighbours(key)}
    up -= ref.depth_of.keys()
    assert up and all(half._depth(key, past=True) is None for key in up)
    # and the rows those decisions filled
    assert len(half._table) > 100
    for lead, row in half._table.items():
        assert row == junction_row(half._spines, lead), lead


def test_walk_to_spine_examples():
    g, exp = walk_to_spine(word("rruuu"))
    assert exp == 5
    assert g.apply(word("rruuu")) == r_power(5)
    g, exp = walk_to_spine(r_power(-3))
    assert g.is_identity()
    assert exp == -3


def test_walk_to_spine_on_radius5_ball():
    for v in enumerate_ball(5):
        g, exp = walk_to_spine(v)
        assert g.apply(v) == r_power(exp)


def test_walk_generator_count_bound():
    rng = random.Random(3)
    ball = enumerate_ball(6)
    for _ in range(200):
        v = rng.choice(ball)
        g, exp = walk_to_spine(v)
        # recompute the walk to count steps through the public api only
        # (bound asserted internally); at least confirm the landing
        assert g.apply(v) == r_power(exp)
        assert run_count(v) >= (0 if spine_exponent(v) is not None else 1)


def test_spine_stabilizer_property():
    ball = group_ball(enumerate_ball(2), 3)
    for g in ball:
        for i in range(-4, 5):
            image = g.apply(r_power(i))
            j = spine_exponent(image)
            if j is None:
                continue
            assert j == i
            assert g.is_identity() or g == room_reflection(r_power(i))


def test_parity_zero_translations_compose_additively():
    a = ActionElement(word("uR"), 0)
    b = ActionElement(word("uR"), 0)
    assert (a * b).spine == word("uRuR")
    assert (a * b).parity == 0


def test_group_ball_rejects_negative_depth():
    with pytest.raises(ValueError):
        group_ball([IDENTITY_WORD], -1)
