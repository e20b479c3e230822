"""Words and the shuffle product."""

import contextlib
import gc
import itertools
import random
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from shufflebv import bv, operators, words
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError, koszul_sign
from shufflebv.words import (
    Table,
    TElement,
    merge_images,
    merge_scaled,
    render_telement,
    shuffle,
    shuffle_elements,
    shuffle_terms,
    sorted_terms,
    unstored_shuffle_terms,
    word_degree,
    words_up_to,
)
from case_reference import word_tuples_with_total

from defect_reference import order_defect_reference, shuffle_many
from lift_reference import shifted_parity
from shuffle_reference import Shuffle, enumerate_shuffles, shuffle_signed
from test_graded import bubble_sign


@pytest.fixture(scope="module")
def mixed():
    # three letters with degrees 0, 1, 2
    return GradedSpace(
        "mixed", [BasisLetter("x", 0), BasisLetter("y", 1), BasisLetter("z", 2)]
    )


def shuffle_oracle(space, u, v):
    """Brute force: all permutations, filtered to block-monotone ones, with
    the sign from the transposition-counting oracle on shifted degrees."""
    n, m = len(u), len(v)
    uv = u + v
    sdegs = [space.degree(a) + 1 for a in uv]
    terms = {}
    for perm in itertools.permutations(range(n + m)):
        if list(perm[:n]) != sorted(perm[:n]):
            continue
        if list(perm[n:]) != sorted(perm[n:]):
            continue
        sign = bubble_sign([p + 1 for p in perm], sdegs)
        inv = [0] * (n + m)
        for src, tgt in enumerate(perm):
            inv[tgt] = src
        word = tuple(uv[inv[p]] for p in range(n + m))
        terms[word] = terms.get(word, 0) + sign
    return {w: c for w, c in terms.items() if c}


def id_words(space, max_len):
    """``words_up_to``, each word as its letter ids."""
    return [space.decode(w) for w in words_up_to(space, max_len)]


# -- grading ----------------------------------------------------------------


def test_word_degree(mixed):
    degree = lambda ids: word_degree(mixed, mixed.encode(ids))
    assert degree(()) == 0
    assert degree(("x",)) == 1
    assert degree(("y", "x")) == 3
    assert degree(("z", "z")) == 6
    with pytest.raises(InvalidInputError):
        degree(("nope",))


# -- shuffle enumeration ------------------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (0, 3), (3, 0), (2, 2), (3, 2)])
def test_enumerate_shuffles_count(n, m):
    shuffles = enumerate_shuffles(n, m)
    assert len(shuffles) == comb(n + m, n)
    assert len({s.sigma for s in shuffles}) == len(shuffles)
    for s in shuffles:
        first, second = s.sigma[:n], s.sigma[n:]
        assert list(first) == sorted(first)
        assert list(second) == sorted(second)


def test_enumerate_shuffles_deterministic_order():
    sigmas = [s.sigma for s in enumerate_shuffles(2, 1)]
    assert sigmas == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]


def test_enumerate_shuffles_rejects_negative():
    with pytest.raises(InvalidInputError):
        enumerate_shuffles(-1, 2)


def test_shuffle_invariants_rejected():
    with pytest.raises(InvalidInputError):
        Shuffle((1, 0, 2), 2, 1)  # first block out of order
    with pytest.raises(InvalidInputError):
        Shuffle((0, 0, 1), 2, 1)


# -- shuffle product ----------------------------------------------------------


def test_shuffle_degree_zero_letters(mixed):
    # (x)*(x) with |x| = 0: the crossing carries -1, so the two terms cancel
    assert shuffle(mixed, ("x",), ("x",)).is_zero()
    sp = GradedSpace("two", [BasisLetter("a", 0), BasisLetter("b", 0)])
    assert dict(shuffle(sp, ("a",), ("b",))) == {("a", "b"): 1, ("b", "a"): -1}


def test_shuffle_odd_letter(mixed):
    # one crossing, sign (-1)^((|y|+1)(|x|+1)) = +1
    got = shuffle(mixed, ("y",), ("x",))
    assert dict(got) == {("y", "x"): 1, ("x", "y"): 1}


def test_shuffle_unit(mixed):
    for w in id_words(mixed, 3):
        assert dict(shuffle(mixed, (), w)) == {w: 1}
        assert dict(shuffle(mixed, w, ())) == {w: 1}


def test_shuffle_matches_bruteforce_oracle(mixed):
    words = id_words(mixed, 2)
    for u, v in itertools.product(words, repeat=2):
        assert dict(shuffle(mixed, u, v)) == shuffle_oracle(mixed, u, v), (u, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shuffle_matches_oracle_random(data):
    degrees = data.draw(st.lists(st.integers(-2, 3), min_size=2, max_size=4))
    sp = GradedSpace("h", [BasisLetter(f"l{i}", d) for i, d in enumerate(degrees)])
    ids = sp.ids
    u = tuple(data.draw(st.sampled_from(ids)) for _ in range(data.draw(st.integers(0, 3))))
    v = tuple(data.draw(st.sampled_from(ids)) for _ in range(data.draw(st.integers(0, 3))))
    assert dict(shuffle(sp, u, v)) == shuffle_oracle(sp, u, v)


def test_shuffle_term_count_before_cancellation(mixed):
    for u, v in itertools.product(id_words(mixed, 3), repeat=2):
        pu = tuple(shifted_parity(mixed, a) for a in u)
        pv = tuple(shifted_parity(mixed, a) for a in v)
        assert len(shuffle_signed(u, v, pu, pv)) == comb(len(u) + len(v), len(u))


def test_shuffle_signed_counts_and_first_term():
    u, v = ("a", "b"), ("c",)
    got = shuffle_signed(u, v, (0, 0), (0,))
    assert len(got) == comb(3, 2)
    assert got[0] == (("a", "b", "c"), 1)  # u-first ordering


def test_shuffle_signed_empty_blocks():
    assert shuffle_signed((), ("a",), (), (1,)) == [(("a",), 1)]
    assert shuffle_signed(("a",), (), (1,), ()) == [(("a",), 1)]
    assert shuffle_signed((), (), (), ()) == [((), 1)]


def reference_shuffles(n, m, pu, pv):
    """The signed shuffles of u0..u(n-1) and v0..v(m-1): enumerate_shuffles
    lists them lexicographically in the first block's slots,
    Shuffle.interleave builds each word and koszul_sign signs it from the
    permutation."""
    u = tuple(f"u{i}" for i in range(n))
    v = tuple(f"v{j}" for j in range(m))
    return u, v, [
        (sh.interleave(u, v), koszul_sign([s + 1 for s in sh.sigma], pu + pv))
        for sh in enumerate_shuffles(n, m)
    ]


def test_shuffle_signed_matches_shuffle_enumeration_in_order():
    # every parity pattern up to n, m <= 3: the same terms in the same order
    for n, m in itertools.product(range(4), repeat=2):
        for pu in itertools.product((0, 1), repeat=n):
            for pv in itertools.product((0, 1), repeat=m):
                u, v, want = reference_shuffles(n, m, pu, pv)
                assert shuffle_signed(u, v, pu, pv) == want, (u, v, pu, pv)


def test_shuffle_signed_at_the_lengths_the_sweeps_use():
    # --pair-len 4 shuffles pairs up to (4, 4) and --triple-len 3 defect-memo
    # fills reach n + m = 9: a few seeded parity patterns for each n + m <= 9,
    # the all-odd one among them
    rng = random.Random(9)
    for n, m in itertools.product(range(10), repeat=2):
        if n + m > 9:
            continue
        patterns = [((1,) * n, (1,) * m)] + [
            (tuple(rng.getrandbits(1) for _ in range(n)), tuple(rng.getrandbits(1) for _ in range(m)))
            for _ in range(3)
        ]
        for pu, pv in patterns:
            u, v, want = reference_shuffles(n, m, pu, pv)
            assert shuffle_signed(u, v, pu, pv) == want, (n, m, pu, pv)


def test_merge_scaled():
    acc = {("a",): 2, ("b",): 1}
    out = merge_scaled(acc, {("a",): 1, ("c",): -4}, 2)
    assert out is acc
    assert acc == {("a",): 4, ("b",): 1, ("c",): -8}
    merge_scaled(acc, {("a",): 4, ("b",): 1}, -1)
    assert acc == {("c",): -8}  # zero entries dropped
    acc = {("x",): 5}
    merge_scaled(acc, {("x",): 5}, -1)
    assert acc == {}


def test_merge_scaled_has_one_implementation():
    # bv, and operators wherever it calls it, bind the words function by
    # name, so one wrapper per module sees every call
    assert getattr(operators, "merge_scaled", merge_scaled) is merge_scaled
    assert bv.merge_scaled is merge_scaled


def _merge_loop(acc, terms, table, coeff):
    """The loop that ``merge_images`` fuses."""
    for w, c in terms.items():
        merge_scaled(acc, table[w], coeff * c)
    return acc


_IMAGES = {
    ("a",): {("a", "b"): 1, ("b",): -2},
    ("b",): {("a", "b"): -1, ("c",): 3},
    ("c",): {("b",): Fraction(1, 2), ("c",): Fraction(-3, 4)},
    ("d",): {("a", "b"): 1, ("b",): -2},
}


@pytest.mark.parametrize("coeff", [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
@pytest.mark.parametrize("terms", [
    {},
    {("a",): 1},
    {("a",): 1, ("b",): 1, ("c",): 2},
    {("c",): Fraction(2, 3), ("a",): -5},
    {("a",): 1, ("d",): -1},  # the images cancel completely
])
def test_merge_images_is_the_merge_scaled_loop(terms, coeff):
    for start in ({}, {("b",): 2, ("z",): Fraction(1, 3)}):
        want = _merge_loop(dict(start), terms, _IMAGES, coeff)
        acc = dict(start)
        got = merge_images(acc, terms, _IMAGES, coeff)
        assert got is acc
        assert list(got.items()) == list(want.items())  # term for term, in order
        assert all(got.values())
    assert merge_images({}, {("a",): 1, ("d",): -1}, _IMAGES, coeff) == {}
    acc = {("b",): 2 * coeff}
    assert merge_images(acc, {("a",): 1}, _IMAGES, coeff) == {("a", "b"): coeff}


def test_table_fills_each_key_once():
    calls = []

    def fill(key):
        calls.append(key)
        return {key: 1}

    table = Table(fill)
    for _ in range(3):
        for key in ("x", "y", "x"):
            assert table[key] == {key: 1}
    assert calls == ["x", "y"]
    assert table.get("z") is None and "z" not in table  # reads that never fill
    assert table == {"x": {"x": 1}, "y": {"y": 1}}


def test_shuffle_table_fills_each_pair_once(monkeypatch):
    calls = []
    fill = words.shuffle_terms

    def counted(space, u, v):
        calls.append((u, v))
        return fill(space, u, v)

    monkeypatch.setattr(words, "shuffle_terms", counted)
    space = GradedSpace("once", [BasisLetter("x", 0), BasisLetter("y", 1)])
    pairs = list(itertools.product(words_up_to(space, 2), repeat=2))
    for _ in range(2):
        for u, v in pairs:
            got = shuffle(space, space.decode(u), space.decode(v))
            assert got.terms is space._shuffle_cache[u, v]
    assert sorted(calls) == sorted(pairs)


def test_a_space_and_its_table_form_no_cycle():
    gc.collect()
    gc.disable()
    try:
        space = GradedSpace("gone", [BasisLetter("x", 0), BasisLetter("y", 1)])
        shuffle(space, ("x",), ("y",))
        ref = weakref.ref(space)
        del space
        assert ref() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_shuffle_graded_commutativity(mixed):
    for u, v in itertools.product(words_up_to(mixed, 3), repeat=2):
        sign = (-1) ** (word_degree(mixed, u) * word_degree(mixed, v) % 2)
        u_ids, v_ids = mixed.decode(u), mixed.decode(v)
        lhs = shuffle(mixed, u_ids, v_ids)
        rhs = sign * shuffle(mixed, v_ids, u_ids)
        assert lhs == rhs, (u_ids, v_ids)


def test_shuffle_associativity(mixed):
    words = id_words(mixed, 2)
    for u, v, w in itertools.product(words, repeat=3):
        eu, ev, ew = (TElement.word(mixed, x) for x in (u, v, w))
        assert shuffle_elements(shuffle_elements(eu, ev), ew) == shuffle_elements(
            eu, shuffle_elements(ev, ew)
        ), (u, v, w)


def test_shuffle_degree_additivity(mixed):
    for u, v in itertools.product(words_up_to(mixed, 3), repeat=2):
        expected = word_degree(mixed, u) + word_degree(mixed, v)
        for w in shuffle(mixed, mixed.decode(u), mixed.decode(v)).terms:
            assert word_degree(mixed, w) == expected


def test_shuffle_rejects_mismatched_spaces(mixed):
    other = GradedSpace("other", [BasisLetter("a", 0)])
    with pytest.raises(InvalidInputError):
        shuffle_elements(TElement.unit(mixed), TElement.unit(other))


# -- TElement ----------------------------------------------------------------


def test_telement_basics(mixed):
    x = TElement(mixed, {("x",): 1, ("y", "x"): -2})
    y = TElement(mixed, {("x",): -1})
    assert dict(x + y) == {("y", "x"): -2}
    assert (x - x).is_zero()
    assert dict(2 * x) == {("x",): 2, ("y", "x"): -4}
    assert TElement(mixed, {("x",): 1}).degree() == 1
    assert TElement(mixed, {("y", "x"): -2}).degree() == 3


def test_telement_words_are_letter_id_sequences(mixed):
    # a bare string is not read as a word of one-character letter ids
    for bad in ("xy", "x", ""):
        with pytest.raises(InvalidInputError, match="sequence of letter ids"):
            TElement.word(mixed, bad)
        with pytest.raises(InvalidInputError, match="sequence of letter ids"):
            TElement(mixed, {bad: 1})
    with pytest.raises(InvalidInputError, match="nope"):
        TElement.word(mixed, ("x", "nope"))
    assert TElement.word(mixed, ["x", "y"]) == TElement(mixed, {("x", "y"): 1})
    assert TElement.word(mixed, ("x",), 0).is_zero()
    # iteration gives the terms in canonical order, words as letter ids
    x = TElement(mixed, {("y", "x"): 2, ("z",): 1, (): -1, ("x", "z"): 3})
    assert list(x) == [((), -1), (("z",), 1), (("x", "z"), 3), (("y", "x"), 2)]


def test_telement_drops_zero_terms(mixed):
    assert TElement(mixed, {("x",): 0}).is_zero()
    assert (0 * TElement.unit(mixed)).is_zero()


def test_render_canonical_order(mixed):
    x = TElement(mixed, {("y", "x"): 1, ("x",): -3, (): 1, ("x", "y"): 1})
    assert render_telement(x) == "1 - 3 x + x(x)y + y(x)x"
    assert render_telement(TElement.zero(mixed)) == "0"


def test_sorted_terms_orders_by_length_then_lex(mixed):
    terms = {mixed.encode(w): c for w, c in {("z",): 1, (): 2, ("x", "x"): 3, ("y",): 4}.items()}
    got = [mixed.decode(w) for w, _ in sorted_terms(terms)]
    assert got == [(), ("y",), ("z",), ("x", "x")]


def test_words_up_to_and_tuples(mixed):
    ws = words_up_to(mixed, 2)
    assert len(ws) == 1 + 3 + 9
    assert ws[0] == "" and mixed.decode(ws[1]) == ("x",)
    tuples = word_tuples_with_total(mixed, 2, 3)
    assert all(len(t) == 2 and all(t2 for t2 in t) for t in tuples)
    assert all(sum(len(w) for w in t) <= 3 for t in tuples)
    # 2 slots of nonempty words over 3 letters with total length 2 or 3
    assert len(tuples) == 9 + 2 * 27
    # in the order of itertools.product over the nonempty words
    for count, total in ((1, 2), (2, 3), (3, 4), (3, 5)):
        nonempty = [w for w in words_up_to(mixed, total - count + 1) if w]
        want = [
            t for t in itertools.product(nonempty, repeat=count)
            if sum(map(len, t)) <= total
        ]
        assert word_tuples_with_total(mixed, count, total) == want
    assert word_tuples_with_total(mixed, 3, 2) == []


@contextlib.contextmanager
def recorded_unstored():
    """The (u, v) of every ``unstored_shuffle_terms`` call inside the block:
    ``merge_shuffles`` calls it through ``words``, ``_koszul_step`` through
    ``operators``, so both names are wrapped."""
    calls = []
    build = words.unstored_shuffle_terms

    def recorded(space, u, v, intern):
        calls.append((u, v))
        return build(space, u, v, intern)

    try:
        words.unstored_shuffle_terms = operators.unstored_shuffle_terms = recorded
        yield calls
    finally:
        words.unstored_shuffle_terms = operators.unstored_shuffle_terms = build


def prefix_pairs(pairs):
    """The prefix pairs (u', v) and (u, v') of each pair (u, v) with
    nonempty u' or v' respectively: the pairs a fill of (u, v) by one step
    of the last-letter recursion reads."""
    out = set()
    for u, v in pairs:
        if len(u) > 1 and v:
            out.add((u[:-1], v))
        if len(v) > 1 and u:
            out.add((u, v[:-1]))
    return out


def test_memo_fill_stores_only_prefix_pairs():
    # a defect-memo fill takes b * c from the space's table when the table
    # holds the pair, and builds it by one step from its prefix pairs
    # otherwise; the pairs of the rows it shuffles likewise.  It stores the
    # prefix pairs of the pairs it builds, never a pair it builds itself,
    # and the two ways give equal entries
    space = GradedSpace("peek", [BasisLetter("x", 0), BasisLetter("y", 1)])
    mu = operators.MultilinearMap(space, 2, 0, {("x", "x"): {"x": 1}, ("x", "y"): {"y": 1}})
    op = operators.lift_coderivation(mu)
    u, v = space.encode(("x", "y", "x")), space.encode(("y", "x"))
    with recorded_unstored() as built:
        entry = op._defects[(u,)][v]
    assert (u, v) in built and len(built) > 1
    assert set(space._shuffle_cache) == prefix_pairs(built)
    assert (u, v) not in space._shuffle_cache
    assert all(w is space._word_table[w] for w in entry)
    inputs = [TElement._make(space, {w: 1}) for w in (u, v)]
    assert entry == order_defect_reference(op, 1, inputs).terms
    cached = shuffle(space, ("x", "y", "x"), ("y", "x")).terms
    op._defects.clear()
    with recorded_unstored() as built:
        assert op._defects[(u,)][v] == entry
    assert (u, v) not in built  # read from the table, which holds it now
    assert space._shuffle_cache[u, v] is cached


def signed_sum(space, u, v):
    """u * v summed from ``shuffle_signed``, in its order, zeros dropped."""
    pu = tuple(shifted_parity(space, a) for a in space.decode(u))
    pv = tuple(shifted_parity(space, a) for a in space.decode(v))
    want = {}
    for w, s in shuffle_signed(u, v, pu, pv):
        w = "".join(w)
        want[w] = want.get(w, 0) + s
        if not want[w]:
            del want[w]
    return want


def recursion_space(name):
    # x has odd shifted degree and y even, so x * x = 0 and y * y = 2 yy; z
    # is odd too, so a last letter meets one of its own parity and one of
    # the other, and the words of length <= 3 give every parity pattern
    return GradedSpace(
        name, [BasisLetter("x", 0), BasisLetter("y", 1), BasisLetter("z", 2)]
    )


def counted_grids(monkeypatch):
    """The (u, v) of every ``_shuffle_grid`` call from now on."""
    calls = []
    walk = words._shuffle_grid

    def counted(space, u, v):
        calls.append((u, v))
        return walk(space, u, v)

    monkeypatch.setattr(words, "_shuffle_grid", counted)
    return calls


def test_shuffle_table_fills_from_prefix_pairs(monkeypatch):
    # filled in product order, every pair finds both its prefix pairs held
    # and is one step of the recursion: no fill walks the grid
    space = recursion_space("prefix")
    grids = counted_grids(monkeypatch)
    ws = words_up_to(space, 3)
    for u, v in itertools.product(ws, repeat=2):
        got = space._shuffle_cache[u, v]
        assert got == signed_sum(space, u, v), (space.decode(u), space.decode(v))
        assert all(w is space._word_table[w] for w in got)
    assert grids == []
    x, y = space.encode(("x",)), space.encode(("y",))
    assert space._shuffle_cache[x, x] == {} and space._shuffle_cache[y, y] == {y + y: 2}


def test_shuffle_grid_matches_shuffle_signed(monkeypatch):
    # on an empty table every pair with a word of two or more letters lacks
    # a prefix pair, so it is walked over its grid; none is stored
    space = recursion_space("grid")
    grids = counted_grids(monkeypatch)
    ws = words_up_to(space, 3)
    for u, v in itertools.product(ws, repeat=2):
        got = shuffle_terms(space, u, v)
        assert got == signed_sum(space, u, v), (space.decode(u), space.decode(v))
        assert all(w is space._word_table[w] for w in got)
    assert len(grids) == sum(1 for u, v in itertools.product(ws, repeat=2)
                             if u and v and len(u) + len(v) > 2)
    assert space._shuffle_cache == {}
    # a grid reads the cells the table holds: with every shorter pair held,
    # it gives the same terms
    for u, v in itertools.product(words_up_to(space, 2), repeat=2):
        space._shuffle_cache[u, v]
    for u, v in itertools.product(ws, repeat=2):
        if u and v:
            assert words._shuffle_grid(space, u, v) == signed_sum(space, u, v)


def test_unstored_pair_stores_only_its_prefix_pairs():
    # a pair built once is one step from its prefix pairs, which it reads
    # through the table, so exactly they are stored; the pair is not
    space = recursion_space("unstored")
    ws = words_up_to(space, 3)
    keep = {}.get
    for u, v in itertools.product(ws, repeat=2):
        space._shuffle_cache.clear()
        before = set(space._word_table)
        got = unstored_shuffle_terms(space, u, v, keep)
        assert got == signed_sum(space, u, v), (space.decode(u), space.decode(v))
        assert set(space._shuffle_cache) == prefix_pairs([(u, v)])
        # with an intern that keeps each word, only the prefix pairs' words
        # are interned; with the space's, the pair's words too
        held = {w for terms in space._shuffle_cache.values() for w in terms}
        assert set(space._word_table) - before <= held
        interned = unstored_shuffle_terms(space, u, v, space._word_table.setdefault)
        assert interned == got and all(w is space._word_table[w] for w in interned)
    x = space.encode(("x",))
    assert unstored_shuffle_terms(space, x, x, keep) == {}  # x * x = 0


def test_a_lone_long_pair_is_walked_over_its_grid():
    # a 300-letter word shuffled with one letter, on a fresh space: the
    # prefix pairs are missing, so the grid builds the pair in a loop, with
    # no chain of prefix fills; it stores no pair and interns only the 301
    # words of the product, none of the grid's shorter ones
    space = GradedSpace("lone", [BasisLetter("a", 0), BasisLetter("b", 1)])
    u, v = space.encode(("a",) * 300), space.encode(("b",))
    got = shuffle_terms(space, u, v)
    assert len(got) == 301 and got == signed_sum(space, u, v)
    assert space._shuffle_cache == {}
    assert set(space._word_table) == set(got)
    # 200 letters through the table and through the path that does not
    # store the pair: no RecursionError, and only the expected pairs held
    a200, b = space.encode(("a",) * 200), space.encode(("b",))
    assert len(shuffle(space, ("a",) * 200, ("b",)).terms) == 201
    assert list(space._shuffle_cache) == [(a200, b)]
    space._shuffle_cache.clear()
    bb = b + b
    got = unstored_shuffle_terms(space, a200, bb, {}.get)
    assert len(got) == comb(202, 2) and got == signed_sum(space, a200, bb)
    assert set(space._shuffle_cache) == {(a200[:-1], bb), (a200, b)}


def test_shuffle_many(mixed):
    # the left fold of the shuffle product that the order-n reference uses
    assert shuffle_many(mixed, []) == TElement.unit(mixed)
    # an odd-degree letter has even shifted degree, so its powers survive
    ey = TElement.word(mixed, ("y",))
    assert dict(shuffle_many(mixed, [ey, ey, ey])) == {("y", "y", "y"): 6}
    # while a degree-0 letter squares to zero
    ex = TElement.word(mixed, ("x",))
    assert shuffle_many(mixed, [ex, ex]).is_zero()
