"""Bracket, operator order, C-sets, axiom suites, sign regressions."""

import itertools
import pickle
from fractions import Fraction

import pytest
from defect_reference import bracket_reference, order_defect_reference

import shufflebv.bv
from shufflebv.algebra_io import DGAlgebra, builtin, validate_ainf, validate_dga, validate_morphism
from shufflebv.bv import (
    Bounds,
    bracket,
    bracket_support_check,
    c_set,
    check_bvinf,
    check_dbv,
    check_functoriality,
    order_defect,
    run_axiom,
)
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError
from shufflebv.operators import MultilinearMap, compose, graded_anticommutator, lift_coderivation
from shufflebv.words import (
    TElement,
    enumerate_shuffles,
    shuffle,
    word_degree,
    word_tuples_with_total,
    words_up_to,
)


@pytest.fixture(scope="module")
def end2():
    return validate_dga(builtin("end-two-term-complex"))


@pytest.fixture(scope="module")
def full2():
    return validate_dga(builtin("full-matrix-2"))


def el(alg, w):
    return TElement.word(alg.space, w)


def corrupted_end2(entry=("b", "c"), out="a", coeff=-1):
    """end-two-term-complex with one structure constant modified; not valid."""
    spec = builtin("end-two-term-complex")
    spec.operations["mu2"][entry] = {out: coeff}
    space = spec.space()
    return DGAlgebra(space, spec.multilinear("d", space), spec.multilinear("mu2", space))


# -- bracket -------------------------------------------------------------------


def test_bracket_of_degree_zero_letters(full2):
    # {(a), (b)} = mu(b, a) - mu(a, b) for degree-0 letters
    got = bracket(el(full2, ("e12",)), el(full2, ("e21",)), full2.delta_op)
    assert got.terms == {("e22",): 1, ("e11",): -1}


def test_bracket_with_unit_vanishes(end2):
    one = TElement.unit(end2.space)
    for w in words_up_to(end2.space, 3):
        assert bracket(one, el(end2, w), end2.delta_op).is_zero()
        assert bracket(el(end2, w), one, end2.delta_op).is_zero()


@pytest.mark.parametrize("name", ["dual-numbers", "dual-numbers-odd"])
def test_bracket_vanishes_for_commutative_product(name):
    alg = validate_dga(builtin(name))
    words = words_up_to(alg.space, 3)
    for u, v in itertools.product(words, repeat=2):
        assert bracket(el(alg, u), el(alg, v), alg.delta_op).is_zero(), (u, v)


def test_bracket_is_signed_order_one_defect(end2):
    # {x, y} = (-1)^|x| * (order-1 expression of delta at (x, y)), the right
    # side by the subset-sum definition, not by the memo the bracket reads
    words = words_up_to(end2.space, 2)
    for u, v in itertools.product(words, repeat=2):
        x, y = el(end2, u), el(end2, v)
        sign = -1 if word_degree(end2.space, u) & 1 else 1
        lhs = bracket(x, y, end2.delta_op)
        rhs = sign * order_defect_reference(end2.delta_op, 1, [x, y])
        assert lhs == rhs, (u, v)


def test_bracket_extends_bilinearly(end2):
    sp = end2.space
    x = TElement(sp, {("a",): 1, ("a", "b"): 2})  # mixed degrees
    y = el(end2, ("c",))
    got = bracket(x, y, end2.delta_op)
    parts = x.homogeneous_parts()
    expected = TElement.zero(sp)
    for part in parts.values():
        expected = expected + bracket(part, y, end2.delta_op)
    assert got == expected


# -- the memoised defects against the reference definitions ----------------------


def end2_operators(alg):
    d, delta = alg.d_op, alg.delta_op
    return {
        "d": d,
        "delta": delta,
        "delta.d": compose(delta, d),
        "delta.delta": compose(delta, delta),
        "[d,delta]": graded_anticommutator(d, delta),
    }


def test_memo_matches_reference_on_end2_operators(end2):
    # degrees 1, -1, 0, -2 and 0: every sign branch of the recursion
    pairs = list(itertools.product(words_up_to(end2.space, 2), repeat=2))
    triples = list(itertools.product(words_up_to(end2.space, 1), repeat=3))
    nonzero = 0
    for name, op in end2_operators(end2).items():
        for u, v in pairs:
            x, y = el(end2, u), el(end2, v)
            got = bracket(x, y, op)
            assert got.terms == bracket_reference(x, y, op).terms, (name, u, v)
            got = order_defect(op, 1, [x, y])
            assert got.terms == order_defect_reference(op, 1, [x, y]).terms, (name, u, v)
            nonzero += not got.is_zero()
        for t in triples:
            xs = [el(end2, w) for w in t]
            got = order_defect(op, 2, xs)
            assert got.terms == order_defect_reference(op, 2, xs).terms, (name, t)
    assert nonzero  # the comparison is not only between zeros


def test_memo_matches_reference_on_ainf_lifts():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    for k in (1, 2, 3):
        op = ainf.delta_op(k)
        for t in word_tuples_with_total(ainf.space, k + 1, k + 3):
            xs = [TElement.word(ainf.space, w) for w in t]
            got = order_defect(op, k, xs)
            assert got.terms == order_defect_reference(op, k, xs).terms, (k, t)


def test_memo_matches_reference_on_mixed_coefficients(end2):
    sp = end2.space
    half = Fraction(1, 2)
    # several words of one degree each, with rational coefficients
    x = TElement(sp, {("a",): half, ("b", "e"): -3, ("e",): 1})
    y = TElement(sp, {("b",): 2, ("b", "b"): Fraction(-2, 3)})
    z = TElement(sp, {("c",): 1, ("a", "e"): half})
    for op in end2_operators(end2).values():
        assert order_defect(op, 1, [x, y]).terms == order_defect_reference(op, 1, [x, y]).terms
        got = order_defect(op, 2, [x, y, z])
        assert got.terms == order_defect_reference(op, 2, [x, y, z]).terms
    # the bracket also takes sums of words of different degrees
    mixed = TElement(sp, {("a",): half, ("a", "b"): 2, ("c",): -1, (): 3})
    for op in end2_operators(end2).values():
        for p, q in ((mixed, y), (x, mixed), (mixed, mixed)):
            assert bracket(p, q, op).terms == bracket_reference(p, q, op).terms
    assert not bracket(mixed, y, end2.delta_op).is_zero()


# -- the defect memo's lifetime ---------------------------------------------------


def test_defect_memo_lives_for_one_sweep(monkeypatch):
    dga = validate_dga(builtin("end-two-term-complex"))
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    ops = [dga.d_op, dga.delta_op] + [ainf.delta_op(k) for k in (1, 2, 3)]
    held = []
    run_axiom_orig = shufflebv.bv.run_axiom

    def watched(*args, **kwargs):
        assert all(not op._defects for op in ops)
        report = run_axiom_orig(*args, **kwargs)
        held.append(sum(len(op._defects) for op in ops))
        return report

    monkeypatch.setattr(shufflebv.bv, "run_axiom", watched)
    check_dbv(dga, Bounds(unary=2, binary=1, ternary=1))
    check_bvinf(ainf, 3, Bounds(unary=2, order_slack=1))
    assert any(held)  # the sweeps do fill the memo
    assert all(not op._defects for op in ops)


def test_pickled_operator_drops_its_memos(end2):
    op = lift_coderivation(end2.mu)
    bracket(el(end2, ("b", "c")), el(end2, ("c",)), op)
    assert op._defects and op._cache
    clone = pickle.loads(pickle.dumps(op))
    assert clone._defects == {} and clone._cache == {}
    got = bracket(el(end2, ("b", "c")), el(end2, ("c",)), clone)
    assert got == bracket(el(end2, ("b", "c")), el(end2, ("c",)), op)


# -- C-sets and bracket support ---------------------------------------------------


def test_c_set_definition():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for sh in enumerate_shuffles(n, m):
            inv = sh.inverse
            cs = c_set(sh)
            for j in range(n + m - 1):
                crosses = (inv[j] < n) != (inv[j + 1] < n)
                assert (j in cs.positions) == crosses


def test_c_set_identity_shuffle():
    # blocks meet only at the seam
    sh = enumerate_shuffles(2, 2)[0]
    assert sh.sigma == (0, 1, 2, 3)
    assert c_set(sh).positions == {1}


def test_bracket_support_single_letters(full2):
    report = bracket_support_check(("e12",), ("e21",), full2.mu)
    assert report.passed and report.cases == 2


def test_bracket_support_longer_words():
    ut = validate_dga(builtin("upper-triangular-2"))
    for u in itertools.product(ut.space.ids, repeat=2):
        for v in itertools.product(ut.space.ids, repeat=1):
            report = bracket_support_check(u, v, ut.mu)
            assert report.passed, (u, v, report.failures)
    # and on the nonzero-d algebra with negative/positive degrees
    alg = validate_dga(builtin("end-two-term-complex"))
    words2 = list(itertools.product(alg.space.ids, repeat=2))
    for u in words2[:8]:
        for v in words2[:8]:
            assert bracket_support_check(u, v, alg.mu).passed


def test_bracket_support_empty_word(full2):
    report = bracket_support_check((), ("e11",), full2.mu)
    assert report.passed and report.cases == 0


def test_bracket_support_requires_arity_2(end2):
    with pytest.raises(InvalidInputError):
        bracket_support_check(("a",), ("b",), end2.d)


# -- operator order ----------------------------------------------------------------


def test_order_one_for_lifted_differential(end2):
    words = words_up_to(end2.space, 3)
    for u, v in itertools.product(words, repeat=2):
        assert order_defect(end2.d_op, 1, [el(end2, u), el(end2, v)]).is_zero()


def test_order_two_for_lifted_product(end2):
    words = words_up_to(end2.space, 2)
    for t in itertools.product(words, repeat=3):
        assert order_defect(end2.delta_op, 2, [el(end2, w) for w in t]).is_zero()


def test_order_three_for_arity_three_lift():
    sp = GradedSpace("s", [BasisLetter("p", 1), BasisLetter("q", 2), BasisLetter("r", 3)])
    mu3 = MultilinearMap(sp, 3, -1, {("p", "p", "p"): {"q": 1}, ("p", "p", "q"): {"r": -1}})
    op = lift_coderivation(mu3)
    singles = [(a,) for a in sp.ids]
    for t in itertools.product(singles, repeat=4):
        assert order_defect(op, 3, [TElement.word(sp, w) for w in t]).is_zero()


def test_order_hierarchy(end2):
    # order n implies order n+1, on lifted d and the product lift
    words = words_up_to(end2.space, 1)
    for t in itertools.product(words, repeat=3):
        assert order_defect(end2.d_op, 2, [el(end2, w) for w in t]).is_zero()
    for t in itertools.product(words, repeat=4):
        assert order_defect(end2.delta_op, 3, [el(end2, w) for w in t]).is_zero()


def test_order_defect_errors(end2):
    x = el(end2, ("a",))
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 2, [x, x])  # needs 3 inputs
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 0, [x])
    mixed = TElement(end2.space, {("a",): 1, ("a", "a"): 1})
    with pytest.raises(Exception):
        order_defect(end2.delta_op, 1, [mixed, x])


def test_bracket_and_order_defect_reject_foreign_elements(end2, full2):
    x, other = el(end2, ("a",)), el(full2, ("e11",))
    with pytest.raises(InvalidInputError):
        bracket(x, other, end2.delta_op)
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 1, [x, other])


def test_order_defect_zero_input_gives_zero(end2):
    z = TElement.zero(end2.space)
    assert order_defect(end2.delta_op, 1, [z, el(end2, ("a",))]).is_zero()


# -- sign regressions (term-level coefficient equalities) ---------------------------


def _case_blocks(n, m, degs_u, degs_v, pair, out_degree):
    letters = [BasisLetter(f"u{t + 1}", degs_u[t]) for t in range(n)]
    letters += [BasisLetter(f"v{t + 1}", degs_v[t]) for t in range(m)]
    letters.append(BasisLetter("w", out_degree))
    sp = GradedSpace("reg", letters)
    mu = MultilinearMap(sp, 2, 0, {pair: {"w": 1}})
    u = tuple(f"u{t + 1}" for t in range(n))
    v = tuple(f"v{t + 1}" for t in range(m))
    return sp, mu, u, v


def shuffle_then_delta_agrees(n, m, i, j, degs_u, degs_v):
    """Moving the first j letters of v just before u_i and then multiplying
    the pair (u_i, u_(i+1)) gives the same signed term as multiplying first
    and shuffling afterwards."""
    sp, mu, u, v = _case_blocks(
        n, m, degs_u, degs_v, (f"u{i}", f"u{i + 1}"), degs_u[i - 1] + degs_u[i]
    )
    delta = lift_coderivation(mu)
    W = u[: i - 1] + v[:j] + u[i - 1 :] + v[j:]
    T = u[: i - 1] + v[:j] + ("w",) + u[i + 1 :] + v[j:]
    c_route_a = shuffle(sp, u, v).terms.get(W, 0) * delta(
        TElement.word(sp, W)
    ).terms.get(T, 0)
    uprime = u[: i - 1] + ("w",) + u[i + 1 :]
    c_route_b = delta(TElement.word(sp, u)).terms.get(uprime, 0) * shuffle(
        sp, uprime, v
    ).terms.get(T, 0)
    assert c_route_a != 0 and c_route_b != 0
    return c_route_a == c_route_b


def delta_first_discrepancy(n, m, i, j, degs_u, degs_v):
    """Moving the tail of u past v_(j+1) and multiplying (v_j, v_(j+1))
    differs from multiplying first by exactly (-1)^(|a_1|+...+|a_n|+n)."""
    sp, mu, u, v = _case_blocks(
        n, m, degs_u, degs_v, (f"v{j}", f"v{j + 1}"), degs_v[j - 1] + degs_v[j]
    )
    delta = lift_coderivation(mu)
    W = u[:i] + v[: j + 1] + u[i:] + v[j + 1 :]
    T = u[:i] + v[: j - 1] + ("w",) + u[i:] + v[j + 1 :]
    c_route_a = shuffle(sp, u, v).terms.get(W, 0) * delta(
        TElement.word(sp, W)
    ).terms.get(T, 0)
    vprime = v[: j - 1] + ("w",) + v[j + 1 :]
    c_route_b = delta(TElement.word(sp, v)).terms.get(vprime, 0) * shuffle(
        sp, u, vprime
    ).terms.get(T, 0)
    assert c_route_a != 0 and c_route_b != 0
    expected = (-1) ** ((sum(degs_u) + n) % 2)
    return c_route_a == expected * c_route_b


def test_sign_regression_shuffle_then_delta_agrees():
    for n, m in [(2, 1), (2, 2), (3, 2)]:
        for i in range(1, n):
            for j in range(1, m + 1):
                for degs_u in itertools.product((0, 1), repeat=n):
                    for degs_v in itertools.product((0, 1), repeat=m):
                        assert shuffle_then_delta_agrees(
                            n, m, i, j, list(degs_u), list(degs_v)
                        ), (n, m, i, j, degs_u, degs_v)


def test_sign_regression_delta_first_discrepancy():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for i in range(1, n):
            for j in range(1, m):
                for degs_u in itertools.product((0, 1), repeat=n):
                    for degs_v in itertools.product((0, 1), repeat=m):
                        assert delta_first_discrepancy(
                            n, m, i, j, list(degs_u), list(degs_v)
                        ), (n, m, i, j, degs_u, degs_v)


# -- suites -------------------------------------------------------------------------


def test_check_dbv_passes_on_end2(end2):
    reports = check_dbv(end2, Bounds(unary=4, binary=2, ternary=1))
    assert [r.name for r in reports] == [
        "d_squared",
        "delta_squared",
        "d_delta_anticommutator",
        "d_derivation",
        "bracket_antisymmetry",
        "bracket_leibniz",
        "bracket_jacobi",
        "delta_order_2",
    ]
    assert all(r.passed for r in reports)
    assert all(r.failure_count == 0 and not r.failures for r in reports)


def test_check_dbv_commutative_case():
    alg = validate_dga(builtin("dual-numbers"))
    reports = check_dbv(alg, Bounds(unary=3, binary=2, ternary=1))
    assert all(r.passed for r in reports)


def test_check_dbv_reports_corruption_with_witness():
    bad = corrupted_end2()
    reports = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1))
    failing = [r for r in reports if not r.passed]
    assert failing
    witness = failing[0].failures[0]
    assert witness.inputs and not witness.defect.is_zero()


def test_check_dbv_fail_cap():
    bad = corrupted_end2()
    reports = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, fail_cap=2))
    failing = [r for r in reports if not r.passed]
    assert failing
    assert any(r.failure_count > 2 for r in failing)
    assert all(len(r.failures) <= 2 for r in failing)


def test_check_dbv_parallel_matches_sequential(end2):
    seq = check_dbv(end2, Bounds(unary=3, binary=1, ternary=1, jobs=1))
    par = check_dbv(end2, Bounds(unary=3, binary=1, ternary=1, jobs=2))
    assert [(r.name, r.cases, r.failure_count) for r in seq] == [
        (r.name, r.cases, r.failure_count) for r in par
    ]


def test_check_dbv_parallel_reports_failures_deterministically():
    bad = corrupted_end2()
    seq = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, jobs=1))
    par = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, jobs=2))
    for a, b in zip(seq, par):
        assert a.failure_count == b.failure_count
        assert [(f.inputs, f.defect.terms) for f in a.failures] == [
            (f.inputs, f.defect.terms) for f in b.failures
        ]


def test_check_bvinf_on_dga_viewed_as_ainf(end2):
    spec = builtin("end-two-term-complex")
    spec.kind = "ainf"
    ainf = validate_ainf(spec, 3)
    reports = check_bvinf(ainf, 3, Bounds(unary=4, order_slack=1))
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    # the arity-3 lift is the zero operator here
    assert ainf.delta_op(3).is_zero_operator()


def test_check_bvinf_on_mu3_fixture():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    reports = check_bvinf(ainf, 3, Bounds(unary=5))
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "order_3_delta_-3" in names and "sum_relation_n_-6" in names
    # the arity-3 lift is genuinely nonzero
    assert not ainf.delta_op(3).is_zero_operator()


def test_check_bvinf_requires_arity_2():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    with pytest.raises(InvalidInputError):
        check_bvinf(ainf, 1)


def test_check_bvinf_above_top_arity():
    # K larger than any stored table: the extra lifts are zero operators,
    # their order and relation checks pass vacuously
    ainf = validate_ainf(builtin("ainf-mu3"), 4)
    reports = check_bvinf(ainf, 4, Bounds(unary=3, order_slack=0))
    assert all(r.passed for r in reports)
    assert any(r.name == "order_4_delta_-5" for r in reports)


def test_check_dbv_on_full_matrix_algebra(full2):
    reports = check_dbv(full2, Bounds(unary=3, binary=2, ternary=1))
    assert all(r.passed for r in reports)


def test_check_functoriality_builtin_morphism():
    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    reports = check_functoriality(morph, Bounds(unary=3, binary=3))
    assert all(r.passed for r in reports)


def test_check_functoriality_identity(end2):
    from shufflebv.algebra_io import DGMorphism

    sp = end2.space
    ident = MultilinearMap(sp, 1, 0, {(a,): {a: 1} for a in sp.ids})
    morph = DGMorphism(end2, end2, ident)
    assert all(r.passed for r in check_functoriality(morph, Bounds(unary=3, binary=2)))


def test_induced_morphism_commutes_with_bracket():
    from shufflebv.operators import induced_morphism

    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    F = induced_morphism(morph.fmap)
    src, tgt = morph.source, morph.target
    words = words_up_to(src.space, 2)
    for u, v in itertools.product(words, repeat=2):
        lhs = F(bracket(el(src, u), el(src, v), src.delta_op))
        rhs = bracket(F(el(src, u)), F(el(src, v)), tgt.delta_op)
        assert lhs == rhs, (u, v)


def test_run_axiom_counts():
    sp = GradedSpace("s", [BasisLetter("a", 0)])
    cases = [(("a",) * i,) for i in range(3)]
    report = run_axiom(
        "demo", "n/a", cases, lambda c: TElement.word(sp, c[0]), fail_cap=1
    )
    assert report.cases == 3 and report.failure_count == 3 and len(report.failures) == 1
    assert not report.passed
