"""Word arithmetic tests, checked against deliberately naive oracles."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fundreg.freegroup import (
    IDENTITY_WORD,
    LETTERS,
    ReducedWord,
    ball_size,
    enumerate_ball,
    leading_r_run,
    r_power,
    reduce_letters,
    run_count,
    spine_exponent,
    u_power,
    word,
)

letters_st = st.lists(st.sampled_from(LETTERS), max_size=14)


# ---------------------------------------------------------------- oracles


def naive_reduce(letters):
    """Repeatedly delete adjacent inverse pairs until none remain."""
    seq = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


def naive_swap(letters):
    table = {1: 2, 2: 1, -1: -2, -2: -1}
    return tuple(table[a] for a in letters)


def naive_ball(radius):
    """Grow the ball by brute-force products and set dedup."""
    seen = {()}
    frontier = {()}
    for _ in range(radius):
        nxt = set()
        for t in frontier:
            for a in LETTERS:
                nxt.add(naive_reduce(t + (a,)))
        nxt -= seen
        seen |= nxt
        frontier = nxt
    return seen


# ----------------------------------------------------------------- basics


def test_reduction_examples():
    assert word("rR").is_identity()
    assert (word("rru") * word("Ur")).text() == "rrr"
    assert word("rruUR").text() == "r"


def test_inverse_example():
    assert word("rrU").inverse().text() == "uRR"
    assert (word("rrU") * word("rrU").inverse()).is_identity()


def test_swap_example():
    assert word("uuurrU").swapped().text() == "rrruuR"


def test_exponent_sum_example():
    assert word("uuurrU").exponent_sum() == 4


def test_exponent_vector_example():
    assert word("rrUUU").exponent_vector() == (2, -3)


def test_text_round_trip():
    for text in ("e", "r", "U", "rrU", "uRRu"):
        assert word(text).text() == text
    with pytest.raises(ValueError):
        word("rx")


def test_powers_and_helpers():
    assert r_power(3).text() == "rrr"
    assert r_power(-2).text() == "RR"
    assert u_power(1).text() == "u"
    assert spine_exponent(r_power(-4)) == -4
    assert spine_exponent(IDENTITY_WORD) == 0
    assert spine_exponent(word("ru")) is None
    assert leading_r_run(word("rrUr")) == 2
    assert leading_r_run(word("uR")) == 0
    assert run_count(word("rruuur")) == 3
    assert run_count(IDENTITY_WORD) == 0


# ------------------------------------------------------------- properties


@given(letters_st)
def test_reduction_matches_naive(letters):
    assert ReducedWord(letters).letters == naive_reduce(letters)


@given(letters_st, letters_st)
def test_concat_matches_naive(a, b):
    got = ReducedWord(a) * ReducedWord(b)
    assert got.letters == naive_reduce(tuple(a) + tuple(b))
    assert len(got) <= len(ReducedWord(a)) + len(ReducedWord(b))


long_st = st.lists(st.sampled_from(LETTERS), max_size=100)


@given(long_st, long_st, long_st)
def test_long_junctions_cancel_as_the_stack_reduction(a, shared, b):
    # a ends in the reduced word `shared` and b starts with its inverse,
    # so the junction cancels at least len(shared) letters: past the 32
    # compared one at a time, into the sliced bisection
    mid = ReducedWord(shared)
    left = ReducedWord(tuple(a) + mid.letters)
    right = ReducedWord(mid.inverse().letters + tuple(b))
    got = left * right
    assert got.letters == reduce_letters(left.letters + right.letters)
    assert got == ReducedWord(tuple(a) + tuple(b))


def random_reduced(rng, n):
    """A reduced word of exactly n letters."""
    out = []
    for _ in range(n):
        out.append(rng.choice([a for a in LETTERS if not out or a != -out[-1]]))
    return tuple(out)


def inverse(letters):
    return tuple(-a for a in reversed(letters))


@pytest.mark.parametrize("cancel", [0, 1, 31, 32, 33, 47, 63, 64, 65, 100, 257])
def test_junctions_of_every_length_cancel_exactly(cancel):
    # left = p x m and right = m^-1 y p^-1 with x y not cancelling: the
    # junction cancels exactly len(m) letters, and past the mismatch x y
    # the letters cancel again, which a window test must not read past
    rng = random.Random(cancel)
    for tail in (0, 1, 40):
        m = random_reduced(rng, cancel)
        p = random_reduced(rng, tail)
        for x in LETTERS:
            for y in LETTERS:
                left = p + (x,) + m
                right = inverse(m) + (y,) + inverse(p)
                if x == -y or reduce_letters(left) != left:
                    continue
                if reduce_letters(right) != right:
                    continue
                got = (ReducedWord(left) * ReducedWord(right)).letters
                assert got == p + (x, y) + right[cancel + 1 :], (x, y)
                assert got == reduce_letters(left + right)
        # one side cancels whole
        assert ReducedWord(m) * ReducedWord(inverse(m) + p) == ReducedWord(p)
        assert ReducedWord(p + m) * ReducedWord(inverse(m)) == ReducedWord(p)


@given(long_st)
def test_letter_maps_match_their_definitions(letters):
    w = ReducedWord(letters)
    assert w.swapped().letters == naive_swap(w.letters)
    assert w.inverse().letters == tuple(-a for a in reversed(w.letters))
    assert w.text() == ("".join("_ruUR"[a] for a in w.letters) or "e")
    assert w.exponent_sum() == sum(1 if a > 0 else -1 for a in w.letters)
    ranks = {1: 0, 2: 1, -1: 2, -2: 3}
    assert w.sort_key() == (len(w), tuple(ranks[a] for a in w.letters))


@given(letters_st, letters_st, letters_st)
def test_concat_associative(a, b, c):
    wa, wb, wc = ReducedWord(a), ReducedWord(b), ReducedWord(c)
    assert (wa * wb) * wc == wa * (wb * wc)


@given(letters_st)
def test_identity_and_inverse_laws(a):
    w = ReducedWord(a)
    assert w * IDENTITY_WORD == w
    assert IDENTITY_WORD * w == w
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(letters_st)
def test_swap_is_involutive_automorphism(a):
    w = ReducedWord(a)
    assert w.swapped().swapped() == w
    assert w.swapped().letters == naive_swap(w.letters)


@given(letters_st, letters_st)
def test_swap_is_homomorphism(a, b):
    wa, wb = ReducedWord(a), ReducedWord(b)
    assert (wa * wb).swapped() == wa.swapped() * wb.swapped()


@given(letters_st)
def test_exponent_sum_respects_swap(a):
    w = ReducedWord(a)
    assert w.swapped().exponent_sum() == w.exponent_sum()
    re, ue = w.exponent_vector()
    assert w.swapped().exponent_vector() == (ue, re)
    assert re + ue == w.exponent_sum()


@given(letters_st, letters_st)
def test_exponent_maps_are_homomorphisms(a, b):
    wa, wb = ReducedWord(a), ReducedWord(b)
    assert (wa * wb).exponent_sum() == wa.exponent_sum() + wb.exponent_sum()
    va, vb = wa.exponent_vector(), wb.exponent_vector()
    assert (wa * wb).exponent_vector() == (va[0] + vb[0], va[1] + vb[1])


# ------------------------------------------------------------------ balls


def test_ball_sizes():
    assert len(enumerate_ball(0)) == 1
    assert len(enumerate_ball(1)) == 5
    assert len(enumerate_ball(3)) == 53
    for radius in range(6):
        assert len(enumerate_ball(radius)) == ball_size(radius)


def test_ball_per_length_counts():
    by_len = {}
    for w in enumerate_ball(4):
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {0: 1, 1: 4, 2: 12, 3: 36, 4: 108}


def test_ball_matches_naive_enumeration():
    got = {w.letters for w in enumerate_ball(3)}
    assert got == naive_ball(3)


def test_ball_is_canonically_sorted_and_unique():
    ball = enumerate_ball(3)
    keys = [w.sort_key() for w in ball]
    assert keys == sorted(keys)
    assert len(set(ball)) == len(ball)


def test_ball_closed_under_inverse_and_swap():
    ball = set(enumerate_ball(3))
    for w in ball:
        assert w.inverse() in ball
        assert w.swapped() in ball


def test_random_products_stay_reduced():
    rng = random.Random(7)
    ball = enumerate_ball(4)
    for _ in range(300):
        a = rng.choice(ball)
        b = rng.choice(ball)
        prod = a * b
        assert prod.letters == naive_reduce(a.letters + b.letters)
