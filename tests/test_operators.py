"""Coderivation lifts, operator algebra, induced morphisms."""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from lift_reference import coderivation_defect, lift_image_reference

from shufflebv.algebra_io import (
    MorphismSpec,
    builtin,
    builtin_names,
    validate_ainf,
    validate_dga,
)
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError
from shufflebv.operators import (
    CompositeSum,
    MultilinearMap,
    LiftedCoderivation,
    Operator,
    induced_morphism,
    lift_coderivation,
)
from shufflebv.words import TElement, words_up_to
from test_words import id_words
from validate_reference import apply


@pytest.fixture(scope="module")
def end2():
    return validate_dga(builtin("end-two-term-complex"))


# independent transcriptions of the two printed lift formulas --------------


def d_lift_oracle(space, dmap, w):
    """sum_i (-1)^(|a_1|+...+|a_(i-1)|+i-1) a_1 ... d(a_i) ... a_n"""
    out = {}
    for t in range(len(w)):
        sign = (-1) ** ((sum(space.degree(a) for a in w[:t]) + t) % 2)
        for b, c in dmap.table.get((w[t],), {}).items():
            w2 = w[:t] + (b,) + w[t + 1 :]
            out[w2] = out.get(w2, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def delta_lift_oracle(space, mu, w):
    """sum_i (-1)^(|a_1|+...+|a_i|+i-1) a_1 ... mu(a_i, a_(i+1)) ... a_n"""
    out = {}
    for t in range(len(w) - 1):
        sign = (-1) ** ((sum(space.degree(a) for a in w[: t + 1]) + t) % 2)
        for b, c in mu.table.get((w[t], w[t + 1]), {}).items():
            w2 = w[:t] + (b,) + w[t + 2 :]
            out[w2] = out.get(w2, 0) + sign * c
    return {k: v for k, v in out.items() if v}


# -- multilinear maps --------------------------------------------------------


def test_multilinear_map_validation():
    sp = GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 1)])
    with pytest.raises(InvalidInputError):
        MultilinearMap(sp, 0, 0, {})
    with pytest.raises(InvalidInputError):
        MultilinearMap(sp, 1, 0, {("a",): {"b": 1}})  # output degree off by one
    m = MultilinearMap(sp, 1, 1, {("a",): {"b": 1}})
    assert m.table == {("a",): {"b": 1}}
    with pytest.raises(InvalidInputError):
        MultilinearMap(sp, 2, 0, {("a",): {"a": 1}})  # key length != arity


def test_multilinear_apply_is_multilinear():
    # on degree-0 letters the lift of m is m on words of length 2: with
    # x = 2a + 3b and y = 5b, it takes x (x) y = 10 ab + 15 bb to m(x, y)
    sp = GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 0)])
    m = MultilinearMap(sp, 2, 0, {("a", "b"): {"a": 1}, ("b", "b"): {"b": 2}})
    xy = TElement(sp, {("a", "b"): 10, ("b", "b"): 15})
    assert lift_coderivation(m)(xy) == TElement(sp, {("a",): 10, ("b",): 30})
    assert apply(m.table, {"a": 2, "b": 3}, {"b": 5}) == {"a": 10, "b": 30}


# -- lifts --------------------------------------------------------------------


def test_lift_d_on_pair(end2):
    # d(a (x) b) = d(a) (x) b + (-1)^(|a|+1) a (x) d(b)
    sp = end2.space
    got = end2.d_op(TElement.word(sp, ("a", "b")))
    assert dict(got) == {("c", "b"): 1, ("a", "a"): -1, ("a", "e"): -1}


def test_lift_mu_on_pair(end2):
    # the product lift on a two-letter word is (-1)^|first| mu(first, second)
    sp = end2.space
    assert dict(end2.delta_op(TElement.word(sp, ("a", "b")))) == {("b",): 1}
    # |b| = -1 is odd, so (b, c) picks up a sign
    assert dict(end2.delta_op(TElement.word(sp, ("b", "c")))) == {("a",): -1}


def test_lift_arity2_on_single_letter(end2):
    for a in end2.space.ids:
        assert dict(end2.delta_op((a,))) == {}
    assert dict(end2.delta_op(())) == {}


def test_lift_matches_printed_formulas(end2):
    sp = end2.space
    for w in id_words(sp, 4):
        assert dict(end2.d_op(w)) == d_lift_oracle(sp, end2.d, w), w
        assert dict(end2.delta_op(w)) == delta_lift_oracle(sp, end2.mu, w), w


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lift_matches_printed_formulas_random_degrees(data):
    degrees = data.draw(st.lists(st.integers(-2, 3), min_size=2, max_size=3))
    sp = GradedSpace("h", [BasisLetter(f"l{i}", d) for i, d in enumerate(degrees)])
    ids = sp.ids
    # random degree-consistent arity-1 (degree +1) and arity-2 (degree 0) tables
    def random_table(arity, opdeg):
        table = {}
        for key in itertools.product(ids, repeat=arity):
            want = sum(sp.degree(a) for a in key) + opdeg
            outs = {
                a: data.draw(st.integers(-2, 2))
                for a in ids
                if sp.degree(a) == want
            }
            outs = {a: c for a, c in outs.items() if c}
            if outs:
                table[key] = outs
        return table

    dmap = MultilinearMap(sp, 1, 1, random_table(1, 1))
    mu = MultilinearMap(sp, 2, 0, random_table(2, 0))
    dop, muop = lift_coderivation(dmap), lift_coderivation(mu)
    w = tuple(data.draw(st.sampled_from(ids)) for _ in range(data.draw(st.integers(0, 4))))
    assert dict(dop(w)) == d_lift_oracle(sp, dmap, w)
    assert dict(muop(w)) == delta_lift_oracle(sp, mu, w)


def _builtin_lifts():
    for name in builtin_names():
        spec = builtin(name)
        if isinstance(spec, MorphismSpec):
            continue
        if spec.kind == "dga":
            alg = validate_dga(spec)
            yield name, "d", alg.d_op
            yield name, "delta", alg.delta_op
        else:
            alg = validate_ainf(spec)
            for k in sorted(alg.maps):
                yield name, f"delta_{k}", alg.delta_op(k)


def test_prefix_fill_matches_block_scan_on_builtin_fixtures():
    # longest words first, so that most fills go through the loop that
    # fills the missing prefixes
    seen = 0
    for name, label, op in _builtin_lifts():
        for w in reversed(id_words(op.space, 5)):
            assert dict(op(w)) == lift_image_reference(op, w), (name, label, w)
        seen += 1
    assert seen == 15  # six DG algebras, and ainf-mu3 in arities 1 to 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_fill_matches_block_scan_random(data):
    # with ``unit`` set, the letter l0 has degree 0, the map has intrinsic
    # degree 0, and every block l0 ... l0 x that the degrees allow maps to
    # x: then on l0 ... l0 x the last block's output coincides with the
    # prefix's term shifted by x, and the two are merged with cancellation
    unit = data.draw(st.booleans())
    degrees = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    if unit:
        degrees[0] = 0
    sp = GradedSpace("h", [BasisLetter(f"l{i}", d) for i, d in enumerate(degrees)])
    ids = sp.ids
    k = data.draw(st.integers(1, 3))
    g0 = 0 if unit else data.draw(st.integers(-1, 1))
    coeff = st.integers(-2, 2)
    table = {}
    for key in itertools.product(ids, repeat=k):
        want = sum(sp.degree(a) for a in key) + g0
        outs = {a: data.draw(coeff) for a in ids if sp.degree(a) == want}
        if unit and set(key[:-1]) <= {"l0"}:
            outs[key[-1]] = data.draw(coeff.filter(bool))
        outs = {a: c for a, c in outs.items() if c}
        if outs:
            table[key] = outs
    op = lift_coderivation(MultilinearMap(sp, k, g0, table))
    words = id_words(sp, 4)
    for w in data.draw(st.permutations(words)):
        assert dict(op(w)) == lift_image_reference(op, w), w


def test_prefix_fill_merges_the_last_block_with_cancellation():
    # u of degree 0 with m(u, u) = u: D(u u) = u, and D(u u u) = u u - u u,
    # the prefix's term u (x) u and the last block's cancelling
    sp = GradedSpace("u", [BasisLetter("u", 0)])
    op = lift_coderivation(MultilinearMap(sp, 2, 0, {("u", "u"): {"u": 1}}))
    assert dict(op(("u", "u"))) == {("u",): 1}
    assert dict(op(("u", "u", "u"))) == {} == lift_image_reference(op, ("u", "u", "u"))
    assert dict(op(("u",) * 4)) == {("u",) * 3: 1}


def test_long_word_fills_without_recursion(end2):
    # c is killed by d and c c by the product, so every prefix of c...c a
    # has an image of at most one term
    w = ("c",) * 1999 + ("a",)
    for op in (lift_coderivation(end2.d), lift_coderivation(end2.mu)):
        assert dict(op(w)) == lift_image_reference(op, w)
        assert len(op._cache) == len(w) + 1  # w and each of its prefixes
        assert set(op._cache) == {op.space.encode(w[:i]) for i in range(len(w) + 1)}
        assert len(dict(op(w))) == 1


def test_unknown_letter_raises_and_leaves_tables_unchanged():
    alg = validate_dga(builtin("end-two-term-complex"))
    ops = [alg.d_op, alg.delta_op, CompositeSum([(1, alg.d_op, alg.delta_op)])]
    for op in ops:
        for w in id_words(alg.space, 2):
            op(w)

    def tables():
        return [dict(op._cache) for op in ops] + [dict(alg.space._word_table)]

    before = tables()
    word = ("a", "b", "c")
    for i in range(len(word) + 1):
        bad = word[:i] + ("zz",) + word[i:]
        for op in ops:
            with pytest.raises(InvalidInputError, match="zz"):
                op(bad)
            with pytest.raises(InvalidInputError, match="zz"):
                op(bad)
            assert tables() == before, (bad, op)


def test_lift_degree_bookkeeping():
    # arity k with intrinsic degree 2-k lifts to operator degree 3-2k
    sp = GradedSpace("s", [BasisLetter("a", 1), BasisLetter("b", 2), BasisLetter("c", 3)])
    for k, expected in [(1, 1), (2, -1), (3, -3), (4, -5)]:
        op = lift_coderivation(MultilinearMap(sp, k, 2 - k, {}))
        assert op.degree == expected


def test_lift_is_linear_and_corestriction_recovers_component(end2):
    sp = end2.space
    # linearity: lift(d + d) = lift(d) + lift(d) termwise
    double = MultilinearMap(
        sp, 1, 1, {k: {b: 2 * c for b, c in v.items()} for k, v in end2.d.table.items()}
    )
    op2 = lift_coderivation(double)
    for w in id_words(sp, 3):
        lhs = dict(op2(w))
        rhs = {k: 2 * c for k, c in end2.d_op(w)}
        assert lhs == rhs
    # corestriction: on arity-length words, length-1 output terms give the
    # twisted component; for the product that twist is (-1)^|first|
    for a, b in itertools.product(sp.ids, repeat=2):
        length1 = {
            w[0]: c for w, c in end2.delta_op((a, b)) if len(w) == 1
        }
        twist = -1 if sp.degree(a) & 1 else 1
        expected = {k: twist * c for k, c in end2.mu.table.get((a, b), {}).items()}
        assert length1 == expected


# -- operator algebra ---------------------------------------------------------


def test_compose_degrees(end2):
    assert CompositeSum([(1, end2.d_op, end2.delta_op)]).degree == 0
    assert CompositeSum([(1, end2.d_op, end2.d_op)]).degree == 2


def test_composite_sum_checks_and_normalises_its_terms(end2):
    d, delta = end2.d_op, end2.delta_op
    other = validate_dga(builtin("dual-numbers")).d_op
    for terms, message in (([], "empty composite sum"),
                           ([(1, d, other)], "different spaces"),
                           ([(1, d, d), (1, d, delta)], r"share a degree, got \[0, 2\]"),
                           ([(0.5, d, delta)], "not an exact rational")):
        with pytest.raises(InvalidInputError, match=message):
            CompositeSum(terms)
    # scalars are normalised, and a zero term is dropped before composite_sum,
    # which would otherwise store zero coefficients
    once = CompositeSum([(1, d, delta)])
    twice = CompositeSum([(Fraction(4, 2), d, delta), (Fraction(0), delta, d)])
    images = [dict(twice(w)) for w in id_words(end2.space, 3)]
    assert images == [{k: 2 * c for k, c in once(w)} for w in id_words(end2.space, 3)]
    assert any(images) and all(type(c) is int and c for im in images for c in im.values())


def test_compose_d_squared_vanishes(end2):
    dd = CompositeSum([(1, end2.d_op, end2.d_op)])
    for w in id_words(end2.space, 4):
        assert dict(dd(w)) == {}


def anticommutator(P, Q):
    return CompositeSum([(1, P, Q), (1, Q, P)])


def test_anticommutator(end2):
    sp = end2.space
    dd2 = anticommutator(end2.d_op, end2.d_op)
    dd = CompositeSum([(1, end2.d_op, end2.d_op)])
    for w in id_words(sp, 3):
        assert dict(dd2(w)) == {k: 2 * c for k, c in dd(w)}
    mixed = anticommutator(end2.d_op, end2.delta_op)
    for w in id_words(sp, 4):
        assert dict(mixed(w)) == {}
    # composite sums fill their own table once per word, like their parts
    for op, n in ((dd2, 3), (dd, 3), (mixed, 4)):
        assert set(op._cache) == set(words_up_to(sp, n))
        images = {w: op._cache[w] for w in op._cache}
        for w in id_words(sp, n):
            op(w)
        assert all(op._cache[w] is image for w, image in images.items())
    assert end2.d_op._cache and end2.delta_op._cache


def test_operators_reject_elements_of_another_space():
    # dual-numbers' operators applied to e11 (x) e12 of full-matrix-2: an
    # error, and no operator's table reads the foreign words
    dual = validate_dga(builtin("dual-numbers"))
    full = validate_dga(builtin("full-matrix-2"))
    x = TElement.word(full.space, ("e11", "e12"))
    lift = dual.delta_op
    composite = CompositeSum([(1, lift, lift)])
    total = CompositeSum([(1, lift, dual.d_op), (2, dual.d_op, lift)])
    for op in (lift, composite, total):
        op(TElement.word(dual.space, ("one", "eps")))
    ops = (lift, dual.d_op, composite, total)
    before = [dict(op._cache) for op in ops]
    for op in (lift, composite, total):
        with pytest.raises(InvalidInputError, match="different space"):
            op(x)
        assert [dict(op._cache) for op in ops] == before


def test_image_table_fills_each_word_once(end2, monkeypatch):
    calls = []
    fill = LiftedCoderivation._apply_word

    def counted(self, w):
        calls.append(w)
        return fill(self, w)

    monkeypatch.setattr(LiftedCoderivation, "_apply_word", counted)
    op = lift_coderivation(end2.mu)
    dd = CompositeSum([(1, op, op)])
    ws = words_up_to(end2.space, 3)
    for _ in range(2):
        for w in ws:
            assert op(end2.space.decode(w)).terms is op._cache[w]
            dd(end2.space.decode(w))
    assert sorted(calls) == sorted(op._cache) and len(calls) == len(set(calls))
    assert set(ws) <= set(calls)


def test_an_operator_and_its_tables_form_no_cycle(end2):
    gc.collect()
    gc.disable()
    try:
        op = lift_coderivation(end2.mu)
        op(TElement.word(end2.space, ("b", "c")))
        assert op._cache
        ref = weakref.ref(op)
        del op
        assert ref() is None  # freed by reference counting alone
    finally:
        gc.enable()


# -- coderivation defect --------------------------------------------------------


def test_lifts_have_zero_coderivation_defect(end2):
    for op in (end2.d_op, end2.delta_op):
        for w in id_words(end2.space, 4):
            assert coderivation_defect(op, w) == {}


def test_reverse_operator_is_not_a_coderivation():
    sp = GradedSpace("two", [BasisLetter("a", 0), BasisLetter("b", 0)])

    class Reverse(Operator):
        def _apply_word(self, w):
            return {w[::-1]: 1}

    rev = Reverse(sp, 0)
    assert any(coderivation_defect(rev, w) for w in id_words(sp, 3))


# -- associator property --------------------------------------------------------


def associator_vanishes_on_words(spec_ops, max_len=5):
    sp = GradedSpace("ut", [BasisLetter("e11", 0), BasisLetter("e12", 0), BasisLetter("e22", 0)])
    mu = MultilinearMap(sp, 2, 0, spec_ops)
    sq = CompositeSum([(1, lift_coderivation(mu), lift_coderivation(mu))])
    return sp, mu, all(not sq(w) for w in id_words(sp, max_len))


UT_TABLE = {
    ("e11", "e11"): {"e11": 1},
    ("e11", "e12"): {"e12": 1},
    ("e12", "e22"): {"e12": 1},
    ("e22", "e22"): {"e22": 1},
}


def test_associator_property_both_directions():
    sp, mu, vanished = associator_vanishes_on_words(UT_TABLE)
    assert vanished
    # associative on all basis triples
    for a, b, c in itertools.product(sp.ids, repeat=3):
        assert apply(UT_TABLE, UT_TABLE.get((a, b), {}), {c: 1}) == apply(
            UT_TABLE, {a: 1}, UT_TABLE.get((b, c), {}))

    bad_table = dict(UT_TABLE)
    bad_table[("e12", "e11")] = {"e12": 1}
    sp2, mu2, vanished2 = associator_vanishes_on_words(bad_table)
    assert not vanished2
    broken = [
        (a, b, c)
        for a, b, c in itertools.product(sp2.ids, repeat=3)
        if apply(bad_table, bad_table.get((a, b), {}), {c: 1})
        != apply(bad_table, {a: 1}, bad_table.get((b, c), {}))
    ]
    assert broken  # non-associative on some basis triple


# -- induced morphisms -----------------------------------------------------------


def test_induced_morphism_basics(end2):
    sp = end2.space
    ident = MultilinearMap(sp, 1, 0, {(a,): {a: 1} for a in sp.ids})
    F = induced_morphism(ident)
    for w in id_words(sp, 3):
        assert dict(F(TElement.word(sp, w))) == {w: 1}
    assert F(TElement.unit(sp)) == TElement.unit(sp)

    zero = induced_morphism(MultilinearMap(sp, 1, 0, {}))
    assert zero(TElement.word(sp, ("a",))).is_zero()
    assert zero(TElement.unit(sp)) == TElement.unit(sp)

    with pytest.raises(InvalidInputError):
        induced_morphism(end2.d)  # degree 1, not 0


def test_induced_morphism_expands_multilinearly():
    sp = GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 0)])
    f = MultilinearMap(sp, 1, 0, {("a",): {"a": 1, "b": 1}, ("b",): {"b": 2}})
    F = induced_morphism(f)
    got = F(TElement.word(sp, ("a", "b")))
    assert dict(got) == {("a", "b"): 2, ("b", "b"): 2}

    # the image table against letter-by-letter products: f(a) = x + y,
    # f(b) = x - y, f(d) = -x, and c has no image
    src = GradedSpace("src", [BasisLetter(a, 0) for a in "abcd"])
    tgt = GradedSpace("tgt", [BasisLetter("x", 0), BasisLetter("y", 0)])
    f = MultilinearMap(src, 1, 0, {("a",): {"x": 1, "y": 1}, ("b",): {"x": 1, "y": -1},
                                   ("d",): {"x": -1}}, target=tgt)
    F = induced_morphism(f)

    def letter_by_letter(word):
        # F(word), multiplied out one letter at a time, on letter ids
        image = {(): 1}
        for a in word:
            image = {w + (b,): c * cb for w, c in image.items()
                     for b, cb in f.table.get((a,), {}).items()}
        return image

    long_word = ("d",) * 1998 + ("a", "b")
    for word in [*id_words(src, 3), long_word]:
        got = F._cache[src.encode(word)]
        assert {tgt.decode(w): c for w, c in got.items()} == letter_by_letter(word), word
    assert F._cache[""] == {"": 1}
    assert F._cache[src.encode(("a", "c"))] == {}
    assert len(F._cache[src.encode(long_word)]) == 4
    # the xx and yy terms cancel across the two source words
    commutator = TElement(src, {("a", "b"): 1, ("b", "a"): -1})
    assert dict(F(commutator)) == {("x", "y"): -2, ("y", "x"): 2}
    assert F(TElement(src, {("a", "c"): 1, ("c",): 5})).is_zero()


def test_induced_map_is_an_operator_into_its_target():
    # F is an operator on the source space, enrolled with it like every
    # lift, whose images are elements of the target space; like every
    # operator it takes one word given by its letter ids
    from shufflebv.algebra_io import validate_morphism
    from shufflebv.operators import InducedMap

    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    src, tgt = morph.source, morph.target
    F = induced_morphism(morph.fmap)
    assert isinstance(F, InducedMap) and issubclass(InducedMap, Operator)
    assert F in src.space._operators and F not in tgt.space._operators
    assert (F.space, F.target, F.degree) == (src.space, tgt.space, 0)
    assert F(("d11",)) == TElement.word(tgt.space, ("e11",))
    assert F(TElement.word(src.space, ("d11", "d22"))) == TElement.word(tgt.space, ("e11", "e22"))
    with pytest.raises(InvalidInputError):
        F(TElement.word(tgt.space, ("e11",)))
    # a composite with F maps the source into the target; F o F does not exist
    commutator = CompositeSum([(1, F, src.d_op), (-1, tgt.d_op, F)])
    assert (commutator.space, commutator.target) == (src.space, tgt.space)
    assert commutator(TElement.word(src.space, ("d11", "d22"))) == TElement.zero(tgt.space)
    assert CompositeSum([(1, tgt.delta_op, F)])(("d11", "d11")) == TElement.word(tgt.space, ("e11",))
    with pytest.raises(InvalidInputError, match="different spaces"):
        CompositeSum([(1, F, F)])
