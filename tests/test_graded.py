"""Scalars, graded bases, and the Koszul sign engine."""

import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shufflebv.graded import (
    BasisLetter,
    GradedSpace,
    InvalidInputError,
    koszul_parity,
    koszul_sign,
    normalize_scalar,
    parse_scalar,
    render_scalar,
    shifted_degree,
)


def bubble_sign(perm, degrees):
    """Independent oracle: decompose into adjacent transpositions, counting
    (-1)^(d_i d_j) per swap."""
    perm = list(perm)
    degs = list(degrees)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                sign *= (-1) ** (degs[i] * degs[i + 1])
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                degs[i], degs[i + 1] = degs[i + 1], degs[i]
                changed = True
    return sign


# -- scalars ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("3", 3), ("-7", -7), ("1/2", Fraction(1, 2)), ("-4/6", Fraction(-2, 3)), ("4/2", 2),
     ("+3", 3), (" 4 ", 4), ("2/-4", Fraction(-1, 2)), ("0/5", 0)],
)
def test_parse_scalar(text, value):
    got = parse_scalar(text)
    assert got == value
    if isinstance(got, Fraction):
        assert got.denominator > 1  # otherwise it must have collapsed to int
    else:
        assert isinstance(got, int)


# underscores and non-ASCII digits (here Arabic-Indic 12), which int() takes
SEPARATED_OR_NON_ASCII = ["1_000", "3/1_0", "\u0661\u0662", "1/\u0662", "\u00a04"]


@pytest.mark.parametrize("bad", ["1.5", "1e3", "a", "1/0", "", "1/2/3", *SEPARATED_OR_NON_ASCII])
def test_parse_scalar_rejects(bad):
    with pytest.raises(InvalidInputError):
        parse_scalar(bad)


def test_normalize_rejects_floats_and_bools():
    with pytest.raises(InvalidInputError):
        normalize_scalar(0.5)
    with pytest.raises(InvalidInputError):
        normalize_scalar(True)


@given(st.integers(-1000, 1000), st.integers(1, 1000))
def test_scalar_roundtrip_reduced(p, q):
    c = normalize_scalar(Fraction(p, q))
    again = parse_scalar(render_scalar(c))
    assert again == Fraction(p, q)
    if isinstance(again, Fraction):
        from math import gcd

        assert gcd(abs(again.numerator), again.denominator) == 1
        assert again.denominator > 1


# -- shifted degree ---------------------------------------------------------


@pytest.mark.parametrize("degree,shifted", [(0, 1), (1, 2), (-2, -1)])
def test_shifted_degree(degree, shifted):
    assert shifted_degree(BasisLetter("a", degree)) == shifted


# -- koszul sign ------------------------------------------------------------


def test_koszul_sign_examples():
    # degree-zero letters: the Koszul sign of a transposition is just sgn
    assert koszul_sign((2, 1), (1, 1)) == -1
    assert koszul_sign((1, 2, 3), (5, 7, 9)) == 1
    # one inversion with exponent 2*1
    assert koszul_sign((2, 1), (2, 1)) == 1


def test_koszul_sign_rejects_non_bijection():
    with pytest.raises(InvalidInputError):
        koszul_sign((1, 1), (0, 0))
    with pytest.raises(InvalidInputError):
        koszul_sign((0, 1), (1, 1))
    with pytest.raises(InvalidInputError):
        koszul_sign((1, 2), (1,))


@given(
    st.permutations(range(1, 6)),
    st.lists(st.integers(-3, 4), min_size=5, max_size=5),
)
def test_koszul_sign_matches_transposition_oracle(perm, degrees):
    assert koszul_sign(perm, degrees) == bubble_sign(perm, degrees)


@given(
    st.permutations(range(1, 6)),
    st.permutations(range(1, 6)),
    st.lists(st.integers(0, 3), min_size=5, max_size=5),
)
def test_koszul_sign_multiplicative(sigma, tau, degrees):
    # objects move by tau first, then sigma; degrees seen by sigma are the
    # tau-rearranged ones
    composed = tuple(sigma[tau[i] - 1] for i in range(5))
    inv_tau = [0] * 5
    for i, t in enumerate(tau):
        inv_tau[t - 1] = i
    moved = [degrees[inv_tau[p]] for p in range(5)]
    assert koszul_sign(composed, degrees) == koszul_sign(sigma, moved) * koszul_sign(
        tau, degrees
    )


@given(st.permutations(range(1, 7)))
def test_koszul_sign_parity_extremes(perm):
    # all-even degrees: +1; all-odd degrees: the sign of the permutation
    assert koszul_sign(perm, (2,) * 6) == 1
    assert koszul_sign(perm, (0,) * 6) == 1
    assert koszul_sign(perm, (1,) * 6) == bubble_sign(perm, (1,) * 6)


# -- spaces and elements ----------------------------------------------------


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(InvalidInputError):
        GradedSpace("s", [])
    with pytest.raises(InvalidInputError):
        GradedSpace("s", [BasisLetter("a", 0), BasisLetter("a", 1)])


@pytest.fixture
def space():
    return GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 1), BasisLetter("c", 0)])


def test_encoding_keeps_the_order_of_letter_ids():
    # basis order differs from sorted order, and ids share prefixes: two
    # stored words of one length compare as their letter-id tuples do
    sp = GradedSpace("s", [BasisLetter(a, 0) for a in ("one", "eps", "e1", "e10", "e2")])
    words = [
        tuple(w) for n in range(3) for w in itertools.product(sp.ids, repeat=n)
    ]
    for w in words:
        assert len(sp.encode(w)) == len(w)
        assert sp.decode(sp.encode(w)) == w
        assert sp.encode(list(w)) == sp.encode(w)
    for u, v in itertools.product(words, repeat=2):
        if len(u) == len(v):
            assert (sp.encode(u) < sp.encode(v)) == (u < v), (u, v)
    clone = pickle.loads(pickle.dumps(sp))
    assert all(clone.encode(w) == sp.encode(w) for w in words)


def test_encode_rejects_unknown_letters_and_bare_strings(space):
    with pytest.raises(InvalidInputError, match="zz"):
        space.encode(("a", "zz"))
    # a bare string is not read as a word of one-character letter ids
    with pytest.raises(InvalidInputError, match="sequence of letter ids"):
        space.encode("ab")
    with pytest.raises(InvalidInputError):
        space.encode("")


def koszul_oracle(perm, parities):
    acc = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                acc += parities[i] * parities[j]
    return acc % 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_koszul_parity_matches_oracle(data):
    n = data.draw(st.integers(0, 7))
    perm = data.draw(st.permutations(range(n))) if n else []
    parities = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    assert koszul_parity(tuple(perm), parities) == koszul_oracle(perm, parities)
