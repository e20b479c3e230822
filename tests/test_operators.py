"""Coderivation lifts, operator algebra, induced morphisms."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from shufflebv.algebra_io import builtin, validate_dga
from shufflebv.graded import AElement, BasisLetter, GradedSpace, InvalidInputError
from shufflebv.operators import (
    IdentityOperator,
    MultilinearMap,
    Operator,
    ZeroOperator,
    coderivation_defect,
    compose,
    graded_anticommutator,
    induced_morphism,
    lift_coderivation,
)
from shufflebv.words import TElement, words_up_to


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
    assert m.apply_ids(("a",)).terms == {"b": 1}
    assert not m.apply_ids(("b",))
    with pytest.raises(InvalidInputError):
        MultilinearMap(sp, 2, 0, {("a",): {"a": 1}})  # key length != arity


def test_multilinear_apply_is_multilinear():
    sp = GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 0)])
    m = MultilinearMap(sp, 2, 0, {("a", "b"): {"a": 1}, ("b", "b"): {"b": 2}})
    x = AElement(sp, {"a": 2, "b": 3})
    y = AElement(sp, {"b": 5})
    assert m.apply(x, y).terms == {"a": 10, "b": 30}


# -- lifts --------------------------------------------------------------------


def test_lift_d_on_pair(end2):
    # d(a (x) b) = d(a) (x) b + (-1)^(|a|+1) a (x) d(b)
    sp = end2.space
    got = end2.d_op(TElement.word(sp, ("a", "b")))
    assert got.terms == {("c", "b"): 1, ("a", "a"): -1, ("a", "e"): -1}


def test_lift_mu_on_pair(end2):
    # the product lift on a two-letter word is (-1)^|first| mu(first, second)
    sp = end2.space
    assert end2.delta_op(TElement.word(sp, ("a", "b"))).terms == {("b",): 1}
    # |b| = -1 is odd, so (b, c) picks up a sign
    assert end2.delta_op(TElement.word(sp, ("b", "c"))).terms == {("a",): -1}


def test_lift_arity2_on_single_letter(end2):
    for a in end2.space.ids:
        assert end2.delta_op.apply_word((a,)) == {}
    assert end2.delta_op.apply_word(()) == {}


def test_lift_matches_printed_formulas(end2):
    sp = end2.space
    for w in words_up_to(sp, 4):
        assert end2.d_op.apply_word(w) == d_lift_oracle(sp, end2.d, w), w
        assert end2.delta_op.apply_word(w) == delta_lift_oracle(sp, end2.mu, w), w


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
    assert dop.apply_word(w) == d_lift_oracle(sp, dmap, w)
    assert muop.apply_word(w) == delta_lift_oracle(sp, mu, w)


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
    for w in words_up_to(sp, 3):
        lhs = op2.apply_word(w)
        rhs = {k: 2 * c for k, c in end2.d_op.apply_word(w).items()}
        assert lhs == rhs
    # corestriction: on arity-length words, length-1 output terms give the
    # twisted component; for the product that twist is (-1)^|first|
    for a, b in itertools.product(sp.ids, repeat=2):
        length1 = {
            w[0]: c for w, c in end2.delta_op.apply_word((a, b)).items() if len(w) == 1
        }
        twist = -1 if sp.degree(a) & 1 else 1
        expected = {k: twist * c for k, c in end2.mu.table.get((a, b), {}).items()}
        assert length1 == expected


# -- operator algebra ---------------------------------------------------------


def test_compose_identity_and_degrees(end2):
    sp = end2.space
    ident = IdentityOperator(sp)
    for w in words_up_to(sp, 3):
        assert compose(ident, end2.d_op).apply_word(w) == end2.d_op.apply_word(w)
        assert compose(end2.d_op, ident).apply_word(w) == end2.d_op.apply_word(w)
    assert compose(end2.d_op, end2.delta_op).degree == 0
    assert compose(end2.d_op, end2.d_op).degree == 2


def test_compose_d_squared_vanishes(end2):
    dd = compose(end2.d_op, end2.d_op)
    for w in words_up_to(end2.space, 4):
        assert dd.apply_word(w) == {}


def test_anticommutator(end2):
    sp = end2.space
    dd2 = graded_anticommutator(end2.d_op, end2.d_op)
    dd = compose(end2.d_op, end2.d_op)
    for w in words_up_to(sp, 3):
        assert dd2.apply_word(w) == {k: 2 * c for k, c in dd.apply_word(w).items()}
    mixed = graded_anticommutator(end2.d_op, end2.delta_op)
    for w in words_up_to(sp, 4):
        assert mixed.apply_word(w) == {}
    zero = ZeroOperator(sp, 1)
    anti = graded_anticommutator(end2.d_op, zero)
    for w in words_up_to(sp, 3):
        assert anti.apply_word(w) == {}
    # composites and sums store nothing; their parts cache their own results
    assert not (dd2._cache or dd._cache or mixed._cache or mixed.parts[0][1]._cache)


# -- coderivation defect --------------------------------------------------------


def test_lifts_have_zero_coderivation_defect(end2):
    for op in (end2.d_op, end2.delta_op):
        for w in words_up_to(end2.space, 4):
            assert coderivation_defect(op, w) == {}


def test_reverse_operator_is_not_a_coderivation():
    sp = GradedSpace("two", [BasisLetter("a", 0), BasisLetter("b", 0)])

    class Reverse(Operator):
        def _apply_word(self, w):
            return {tuple(reversed(w)): 1}

    rev = Reverse(sp, 0)
    assert any(coderivation_defect(rev, w) for w in words_up_to(sp, 3))


def test_zero_operator_defect(end2):
    zero = ZeroOperator(end2.space, -1)
    for w in words_up_to(end2.space, 3):
        assert coderivation_defect(zero, w) == {}


# -- associator property --------------------------------------------------------


def associator_vanishes_on_words(spec_ops, max_len=5):
    sp = GradedSpace("ut", [BasisLetter("e11", 0), BasisLetter("e12", 0), BasisLetter("e22", 0)])
    mu = MultilinearMap(sp, 2, 0, spec_ops)
    sq = compose(lift_coderivation(mu), lift_coderivation(mu))
    return sp, mu, all(not sq.apply_word(w) for w in words_up_to(sp, max_len))


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
        lhs = mu.apply(mu.apply_ids((a, b)), AElement.letter(sp, c))
        rhs = mu.apply(AElement.letter(sp, a), mu.apply_ids((b, c)))
        assert lhs == rhs

    bad_table = dict(UT_TABLE)
    bad_table[("e12", "e11")] = {"e12": 1}
    sp2, mu2, vanished2 = associator_vanishes_on_words(bad_table)
    assert not vanished2
    broken = [
        (a, b, c)
        for a, b, c in itertools.product(sp2.ids, repeat=3)
        if mu2.apply(mu2.apply_ids((a, b)), AElement.letter(sp2, c))
        != mu2.apply(AElement.letter(sp2, a), mu2.apply_ids((b, c)))
    ]
    assert broken  # non-associative on some basis triple


# -- induced morphisms -----------------------------------------------------------


def test_induced_morphism_basics(end2):
    sp = end2.space
    ident = MultilinearMap(sp, 1, 0, {(a,): {a: 1} for a in sp.ids})
    F = induced_morphism(ident)
    for w in words_up_to(sp, 3):
        assert F(TElement.word(sp, w)).terms == {w: 1}
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
    assert got.terms == {("a", "b"): 2, ("b", "b"): 2}
