"""Action normal-form tests against the defining reflection formula."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fundreg.action import (
    IDENTITY,
    ActionElement,
    GroupBall,
    _decode,
    _letters,
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
    generator_products,
    naive_reflection_image,
    packed_key,
    reference_ball,
    reference_depth,
    reference_half_ball,
    reference_room_reflection,
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
        got = [packed_key(g.spine.letters, g.parity) for g in ball.iter_layer(k)]
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
    ball = GroupBall(enumerate_ball(2), 6)
    assert ball.layer_sizes() == [1, 17, 232, 3112, 41736, 559752, 7507240]
    assert len(ball) == 8_112_090
    assert len(ball.to_depth(5)) == 604_850
    assert ball.to_depth(2).layer_sizes() == [1, 17, 232]


@pytest.mark.parametrize("roots", [[], [IDENTITY_WORD]], ids=["none", "e"])
def test_ball_without_spine_letters_matches_the_reference_build(roots):
    # no generator spine has a letter, so every product is a bare parity
    # flip of the empty spine
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
# their definitions: swap (r <-> u), phi (r <-> R, u <-> U) and phi o swap.
LETTER_MAPS = {
    "swap": lambda a: {1: 2, 2: 1, -1: -2, -2: -1}[a],
    "phi": lambda a: -a,
    "phi o swap": lambda a: -{1: 2, 2: 1, -1: -2, -2: -1}[a],
}


def mapped(name, g):
    """The image of g under a letter map, applied letter by letter."""
    letters = tuple(map(LETTER_MAPS[name], g.spine.letters))
    return ActionElement(ReducedWord._trusted(letters), g.parity)


def symmetries_of(roots):
    """The letter maps that send the generators rooted at ``roots`` onto
    themselves."""
    gens = {room_reflection(root) for root in roots}
    return {name for name in LETTER_MAPS if {mapped(name, g) for g in gens} == gens}


@pytest.mark.parametrize("root_len", [2, 3])
def test_symmetries_permute_the_generators(root_len):
    roots = enumerate_ball(root_len)
    assert symmetries_of(roots) == set(LETTER_MAPS)
    for name, letter_map in LETTER_MAPS.items():
        for g in map(room_reflection, roots):
            image = mapped(name, g)
            assert image.spine.letters == tuple(map(letter_map, g.spine.letters))
            assert image.parity == g.parity == 1
            # the map sends the reflection at w to the reflection at map(w)
            root = ReducedWord(map(letter_map, g.spine.letters[: len(g.spine) // 2]))
            assert image == room_reflection(root)


def test_symmetries_are_automorphisms_of_the_action():
    rng = random.Random(20261018)
    sample = rng.sample(list(group_ball(enumerate_ball(2), 3)), 200)
    for name in LETTER_MAPS:
        for g, h in zip(sample, reversed(sample)):
            assert mapped(name, g * h) == mapped(name, g) * mapped(name, h)
            assert mapped(name, g.inverse()) == mapped(name, g).inverse()


# One root list for each group of letter symmetries it keeps: the balls
# are built without any, so each must match the reference build alike.
SYMMETRY_GROUPS = [
    (["", "r", "u"], {"swap"}),
    (["r", "U"], {"phi o swap"}),
    (["r", "R"], {"phi"}),
    (["r", "ru"], set()),
]
SYMMETRY_IDS = ["swap", "phi o swap", "phi", "none"]


# The scan roots, the profile roots and one root set per symmetry group.
ROOT_SETS = pytest.mark.parametrize(
    "roots,depth",
    [(enumerate_ball(2), 4), (enumerate_ball(3), 3)]
    + [([word(t) for t in texts], 4) for texts, _ in SYMMETRY_GROUPS],
    ids=["scan roots", "profile roots"] + SYMMETRY_IDS,
)


def trie_keys(ball, k):
    """Layer k of a ``GroupBall`` as a set of packed keys, each read once."""
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
    ball = GroupBall(roots, depth)
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
    assert symmetries_of(roots) == symmetries
    assert_matches_the_reference_build(roots, 4, len(texts))


# The scan and profile roots to depth 2, whose layers the brute force
# below searches whole, and the root lists of each symmetry group.
SPLIT_SETS = pytest.mark.parametrize(
    "roots,depth",
    [(enumerate_ball(2), 2), (enumerate_ball(3), 2)]
    + [([word(t) for t in texts], 4) for texts, _ in SYMMETRY_GROUPS],
    ids=["scan roots", "profile roots"] + SYMMETRY_IDS,
)


@SPLIT_SETS
def test_splits_matches_the_brute_force_over_the_reference_layers(roots, depth):
    # g splits at k when some a of layer k has a^-1 g in the ball: every a
    # of the reference layer is tried, for products of up to 2 depth + 1
    # generators, so each g lies within one layer of the split's reach
    ball = GroupBall(roots, depth)
    ref = ReferenceBall(roots, depth)
    rng = random.Random(depth * 100 + len(roots))
    gens = [room_reflection(root) for root in roots]
    cases = [compose_all(rng.choices(gens, k=n)) for n in range(2 * depth + 2)]
    for _ in range(40):
        cases.append(compose_all(rng.choices(gens, k=rng.randint(0, 2 * depth + 1))))
    # and two strangers outside the group: no split holds them
    cases += [ActionElement(word("rrU"), 0), ActionElement(word("ru"), 1)]
    got, want = [], []
    for g in cases:
        for k in range(depth + 1):
            got.append(ball.splits(g, k))
            want.append(
                any(ball_depth(ref, a.inverse() * g) is not None for a in ref.layer(k))
            )
    assert got == want
    assert any(want) and not all(want)


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
    g = _decode(packed_key(w, parity))
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
    assert (packed_key(*v) == packed_key(*w)) == (v == w)


def test_packed_keys_keep_trailing_code0_letters():
    keys = {packed_key((-2,) * n, p) for n in range(12) for p in (0, 1)}
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


# --------------------------------------------------- membership by the tries

# (root length, depth): the scan roots, the profile roots and the
# eight-letter spines, each up to the deepest ball the suite builds
HELD = (
    [(2, d) for d in range(6)] + [(3, d) for d in range(4)] + [(4, d) for d in range(3)]
)


def longer_than_every_member(keys):
    """Keys of both parities whose spine is the longest spine among
    ``keys`` followed by code-0 letters (U)."""
    # the largest key has the most letters
    letters = _decode(max(keys)).spine.letters
    tail = (-2,) * 5 if not letters or letters[-1] != 2 else (1,) + (-2,) * 5
    return [packed_key(letters + tail, parity) for parity in (0, 1)]


def random_words(rng, n, longest):
    """``n`` random reduced words of up to ``longest`` letters, as keys of
    both parities."""
    lengths = [rng.randint(0, longest) for _ in range(n)]
    words = [ReducedWord(rng.choices(LETTERS, k=m)) for m in lengths]
    return [packed_key(w.letters, parity) for w in words for parity in (0, 1)]


@pytest.mark.parametrize("root_len,depth", HELD)
def test_trie_ball_matches_the_held_ball(root_len, depth):
    # the reference build holds every layer up to depth 4; the depth-5
    # scan ball's 559,752-element layer 5 (5 s and 200 MiB to build) is
    # decided key by key past the depth-4 build instead
    ref = reference_ball(root_len, min(depth, 4))
    ball = GroupBall(enumerate_ball(root_len), depth)
    held = len(ref.layers)
    assert ball.layer_sizes()[:held] == [len(layer) for layer in ref.layers]
    layers = [trie_keys(ball, k) for k in range(depth + 1)]
    assert layers[:held] == ball_keys(ref)
    assert [len(keys) for keys in layers] == ball.layer_sizes()

    def agree(key):
        letters, parity = _letters(key), key & 1
        return ball.depth_of(letters, parity) == reference_depth(ref, key, depth)

    # members: every key of a layer of up to 20,000 elements, or 3,000 of
    # its keys
    rng = random.Random(root_len * 10 + depth)
    members = []
    for keys in layers:
        keys = sorted(keys)
        members += rng.sample(keys, 3000) if len(keys) > 20_000 else keys
    assert all(agree(key) for key in members)
    # non-members in both parities: products of layer d that lie in layer
    # d + 1, a spine longer than any member's, and random words
    top = rng.sample(sorted(layers[depth]), min(len(layers[depth]), 200))
    up = {p for key in top for p in generator_products(ref, key)}
    up -= set().union(*layers)
    assert up
    stranger = longer_than_every_member(layers[depth])
    noise = random_words(rng, 300, 4 * depth + 2)
    # and keys outside H_2: reflections rooted at length-3 words and
    # products of them (generators at root length 3 and 4)
    far = [room_reflection(word(t)) for t in ("rrr", "UUU", "ruu")]
    outside = [
        packed_key(g.spine.letters, g.parity)
        for g in far + [far[0] * far[1], far[2] * far[0]]
    ]
    assert not any(in_root_subgroup(_letters(key), 2) for key in outside)
    for key in sorted(up) + stranger + noise + outside:
        assert agree(key)
    with pytest.raises(IndexError):
        next(ball.iter_layer(depth + 1))


def test_the_profile_half_ball_decides_layer_3():
    # the depth-2 half ball decides layers 3 and 4: an element of layer 3
    # splits at 1 over it, and one of layer 4 splits at 2 but not at 1
    ref = reference_half_ball()
    half = group_ball(enumerate_ball(3), 2)
    rng = random.Random(3)
    layer3 = rng.sample(ref.layer(3), 3000)
    for g in layer3:
        assert g not in half and half.splits(g, 1)
    for k in range(3):
        assert all(half.depth_of(g.spine.letters, g.parity) == k for g in ref.layer(k))
    # products of the sample that the reference does not hold are in
    # layer 4, which has layer 2's parity and must not pass for layer 3
    up = {
        p
        for g in layer3[:300]
        for p in generator_products(ref, packed_key(g.spine.letters, g.parity))
    }
    up -= ref.depth_of.keys()
    assert up
    for g in map(_decode, up):
        assert g not in half and not half.splits(g, 1) and half.splits(g, 2)


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
