"""Acceptance suite: one test per criterion, exact equality throughout,
plus cross-checks of the memoised defects against their reference
definitions on the criteria's inputs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import json
import random
from contextlib import contextmanager

import pytest
from defect_reference import bracket_reference, order_defect_reference

from shufflebv.algebra_io import (
    DGAlgebra,
    builtin,
    render_document,
    validate_ainf,
    validate_dga,
    validate_morphism,
)
from shufflebv.bv import Bounds, bracket, check_bvinf, check_dbv, check_functoriality, order_defect
from shufflebv.cli import main
from shufflebv.graded import BasisLetter, GradedSpace
from shufflebv.operators import MultilinearMap, compose, lift_coderivation
from shufflebv.words import (
    TElement,
    shuffle,
    shuffle_elements,
    word_degree,
    word_tuples_with_total,
    words_up_to,
)


@contextmanager
def criterion(number, description):
    import time

    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(
        f"ACCEPTANCE {number} PASS: {description} ({time.monotonic() - start:.1f}s)"
    )


@pytest.fixture(scope="module")
def end2():
    return validate_dga(builtin("end-two-term-complex"))


@pytest.fixture(scope="module")
def dbv_reports(end2):
    # criterion 2's run, shared with criterion 8
    return check_dbv(end2, Bounds(unary=5, binary=3, ternary=2))


def test_criterion_1_shuffle_algebra_laws():
    with criterion(1, "shuffle algebra laws on a 3-letter space of degrees 0,1,2"):
        sp = GradedSpace(
            "three", [BasisLetter("x", 0), BasisLetter("y", 1), BasisLetter("z", 2)]
        )
        pairs = list(itertools.product(words_up_to(sp, 3), repeat=2))
        for u, v in pairs:
            sign = (-1) ** (word_degree(sp, u) * word_degree(sp, v) % 2)
            assert shuffle(sp, u, v) == sign * shuffle(sp, v, u), (u, v)
        triples = list(itertools.product(words_up_to(sp, 2), repeat=3))
        for u, v, w in triples:
            eu, ev, ew = (TElement.word(sp, t) for t in (u, v, w))
            assert shuffle_elements(shuffle_elements(eu, ev), ew) == shuffle_elements(
                eu, shuffle_elements(ev, ew)
            ), (u, v, w)
        print(
            f"  commutativity: {len(pairs)} pairs; associativity: {len(triples)} triples",
            end=" ",
        )


def test_criterion_2_dbv_suite_on_end_two_term(dbv_reports):
    with criterion(2, "full dBV axiom suite on end-two-term-complex"):
        expected_cases = {
            "d_squared": 1365,
            "delta_squared": 1365,
            "d_delta_anticommutator": 1365,
            "d_derivation": 7225,
            "bracket_antisymmetry": 7225,
            "bracket_leibniz": 9261,
            "bracket_jacobi": 9261,
            "delta_order_2": 9261,
        }
        got = {r.name: r.cases for r in dbv_reports}
        assert got == expected_cases
        assert all(r.passed for r in dbv_reports), [
            r.name for r in dbv_reports if not r.passed
        ]


def test_criterion_3_commutative_degeneration():
    with criterion(3, "bracket vanishes identically on dual-numbers"):
        alg = validate_dga(builtin("dual-numbers"))
        words = words_up_to(alg.space, 3)
        count = 0
        for u, v in itertools.product(words, repeat=2):
            b = bracket(
                TElement.word(alg.space, u), TElement.word(alg.space, v), alg.delta_op
            )
            assert b.is_zero(), (u, v)
            count += 1
        print(f"  {count} pairs", end=" ")


def _random_lifts(sp):
    """Criterion 4's maps: (arity, degree, lift) for 7, 7 and 6 random
    maps of arity 1, 2 and 3, with small integral structure constants."""
    rng = random.Random(7)

    def random_map(arity, degree):
        table = {}
        for ids in itertools.product(sp.ids, repeat=arity):
            want = sum(sp.degree(a) for a in ids) + degree
            outs = {
                a: rng.choice([-1, 0, 1, 2])
                for a in sp.ids
                if sp.degree(a) == want
            }
            outs = {a: c for a, c in outs.items() if c}
            if outs:
                table[ids] = outs
        return MultilinearMap(sp, arity, degree, table)

    for arity, n_maps in ((1, 7), (2, 7), (3, 6)):
        for _ in range(n_maps):
            degree = rng.choice([-1, 0, 1, 2 - arity])
            yield arity, degree, lift_coderivation(random_map(arity, degree))


def test_criterion_4_order_lemma_random_maps():
    with criterion(4, "lifts of random arity-k maps have operator order k"):
        sp = GradedSpace("rand2", [BasisLetter("x", 0), BasisLetter("y", 1)])
        checked = 0
        for arity, degree, D in _random_lifts(sp):
            tuples = word_tuples_with_total(sp, arity + 1, 6)
            singles = [t for t in tuples if all(len(w) == 1 for w in t)]
            assert singles  # single-letter tuples are part of the sweep
            for t in tuples:
                defect = order_defect(D, arity, [TElement.word(sp, w) for w in t])
                assert defect.is_zero(), (arity, degree, t)
            for t in word_tuples_with_total(sp, arity + 2, 6):
                defect = order_defect(D, arity + 1, [TElement.word(sp, w) for w in t])
                assert defect.is_zero(), ("hierarchy", arity, degree, t)
            checked += 1
        assert checked == 20
        print(f"  {checked} maps", end=" ")


def test_order_defect_matches_reference_on_random_lifts():
    # below the lift's arity the defects are nonzero, so signs are compared
    sp = GradedSpace("rand2", [BasisLetter("x", 0), BasisLetter("y", 1)])
    nonzero = 0
    for arity, degree, D in _random_lifts(sp):
        for n in range(1, arity + 1):
            for t in word_tuples_with_total(sp, n + 1, n + 3):
                xs = [TElement.word(sp, w) for w in t]
                got = order_defect(D, n, xs)
                assert got.terms == order_defect_reference(D, n, xs).terms, (arity, degree, n, t)
                nonzero += not got.is_zero()
    assert nonzero


def test_criterion_5_bvinf_suite_on_mu3_fixture():
    with criterion(5, "commutative BV-infinity suite on ainf-mu3 with K=3"):
        ainf = validate_ainf(builtin("ainf-mu3"), 3)
        reports = check_bvinf(ainf, 3, Bounds(unary=5))
        by_name = {r.name: r for r in reports}
        assert by_name["delta_1_is_d"].passed
        for k in (1, 2, 3):
            g = 3 - 2 * k
            assert ainf.delta_op(k).degree == g
            assert by_name[f"degree_delta_{g}"].passed
            assert by_name[f"order_{k}_delta_{g}"].passed
        relation_reports = [r for r in reports if r.name.startswith("sum_relation_n_")]
        assert {r.name for r in relation_reports} == {
            "sum_relation_n_2",
            "sum_relation_n_0",
            "sum_relation_n_-2",
            "sum_relation_n_-4",
            "sum_relation_n_-6",
        }
        assert all(r.passed for r in relation_reports)
        assert all(r.cases == 364 for r in relation_reports)  # words of length <= 5


def test_criterion_6_associator_property():
    with criterion(6, "square of the product lift detects associativity"):
        ut = validate_dga(builtin("upper-triangular-2"))
        sq = compose(ut.delta_op, ut.delta_op)
        for w in words_up_to(ut.space, 5):
            assert not sq.apply_word(w), w

        spec = builtin("upper-triangular-2")
        spec.operations["mu2"][("e12", "e11")] = {"e12": 1}  # breaks associativity
        space = spec.space()
        bad = DGAlgebra(space, spec.multilinear("d", space), spec.multilinear("mu2", space))
        reports = check_dbv(bad, Bounds(unary=3, binary=1, ternary=1))
        delta_sq = next(r for r in reports if r.name == "delta_squared")
        assert not delta_sq.passed
        witnesses = [f.inputs[0] for f in delta_sq.failures]
        assert any(len(w) == 3 for w in witnesses), witnesses


def test_criterion_7_functoriality():
    with criterion(7, "induced map of the diagonal inclusion preserves structure"):
        morph = validate_morphism(builtin("diag-into-upper-triangular"))
        reports = check_functoriality(morph, Bounds(unary=3, binary=3))
        assert {r.name for r in reports} == {
            "morphism_commutes_d",
            "morphism_commutes_delta",
            "morphism_commutes_shuffle",
        }
        assert all(r.passed for r in reports)


class _NoPrefixSignLift:
    """The product lift with its position-dependent sign dropped: no longer
    a coderivation, so both the Leibniz and the order-2 sweeps must fail."""

    def __init__(self, mu):
        self.space = mu.space
        self.mu = mu
        self.degree = -1
        self._cache = {}

    def apply_word(self, w):
        hit = self._cache.get(w)
        if hit is None:
            out = {}
            for i in range(len(w) - 1):
                entry = self.mu.table.get((w[i], w[i + 1]))
                if entry:
                    tw = -1 if self.space.degree(w[i]) & 1 else 1
                    for b, c in entry.items():
                        w2 = w[:i] + (b,) + w[i + 2 :]
                        out[w2] = out.get(w2, 0) + tw * c
            hit = {k: v for k, v in out.items() if v}
            self._cache[w] = hit
        return hit

    def __call__(self, x):
        acc = TElement.zero(self.space)
        for w, c in x.terms.items():
            acc = acc + c * TElement(self.space, self.apply_word(w))
        return acc


def test_memo_matches_reference_on_unsigned_lift(end2):
    # an operator-like object that is not an Operator gets a memo too
    lift = _NoPrefixSignLift(end2.mu)
    el = lambda w: TElement.word(end2.space, w)
    for u, v in itertools.product(words_up_to(end2.space, 2), repeat=2):
        x, y = el(u), el(v)
        assert bracket(x, y, lift).terms == bracket_reference(x, y, lift).terms, (u, v)
        assert order_defect(lift, 1, [x, y]).terms == order_defect_reference(lift, 1, [x, y]).terms
    nonzero = 0
    for t in itertools.product(words_up_to(end2.space, 1), repeat=3):
        xs = [el(w) for w in t]
        got = order_defect(lift, 2, xs)
        assert got.terms == order_defect_reference(lift, 2, xs).terms, t
        nonzero += not got.is_zero()
    assert nonzero


def test_criterion_8_deviation_order_consistency(end2, dbv_reports):
    with criterion(8, "order-2 defect agrees case-by-case with the Leibniz sweep"):
        by_name = {r.name: r for r in dbv_reports}
        leibniz, order2 = by_name["bracket_leibniz"], by_name["delta_order_2"]
        assert leibniz.cases == order2.cases == 9261
        assert leibniz.passed and order2.passed
        assert leibniz.failure_count == order2.failure_count == 0

        # an injected sign bug in the lift must fail both sweeps, on the
        # same cases (structure-constant changes cannot falsify these two
        # axioms: any lift has order 2 regardless of associativity)
        from types import SimpleNamespace

        buggy = SimpleNamespace(
            space=end2.space, d_op=end2.d_op, delta_op=_NoPrefixSignLift(end2.mu)
        )
        reports = check_dbv(buggy, Bounds(unary=2, binary=2, ternary=2, fail_cap=30))
        bad_by_name = {r.name: r for r in reports}
        bad_leibniz = bad_by_name["bracket_leibniz"]
        bad_order2 = bad_by_name["delta_order_2"]
        assert not bad_leibniz.passed and not bad_order2.passed
        assert bad_leibniz.failure_count == bad_order2.failure_count
        assert [f.inputs for f in bad_leibniz.failures] == [
            f.inputs for f in bad_order2.failures
        ]


def _degree_consistent_perturbations(spec):
    """All single-structure-constant modifications that keep degrees intact."""
    space = spec.space()
    out = []
    arity_degree = {"d": (1, 1), "mu2": (2, 0)}
    for label, (arity, opdeg) in arity_degree.items():
        table = spec.operations.get(label, {})
        for key, outputs in table.items():
            for b, c in outputs.items():
                out.append((label, key, b, c + 1))
                out.append((label, key, b, -c))
                out.append((label, key, b, 0))
        for key in itertools.product(space.ids, repeat=arity):
            want = sum(space.degree(a) for a in key) + opdeg
            for b in space.ids:
                if space.degree(b) == want and b not in table.get(key, {}):
                    out.append((label, key, b, 1))
    return out


def test_criterion_9_negative_controls(tmp_path, capsys):
    with criterion(9, "single-constant perturbations are always caught"):
        rng = random.Random(2026)
        base = builtin("end-two-term-complex")
        candidates = _degree_consistent_perturbations(base)
        sample = rng.sample(candidates, 10)
        for label, key, b, coeff in sample:
            spec = builtin("end-two-term-complex")
            entry = dict(spec.operations[label].get(key, {}))
            if coeff:
                entry[b] = coeff
            else:
                entry.pop(b, None)
            if entry:
                spec.operations[label][key] = entry
            else:
                spec.operations[label].pop(key, None)
            path = tmp_path / "perturbed.json"
            path.write_text(json.dumps(render_document(spec)))

            code = main(["validate", str(path)])
            out = capsys.readouterr().out
            if code == 0:
                # validation passed: the axiom suite itself must then fail
                code = main(
                    [
                        "check",
                        str(path),
                        "--max-len",
                        "3",
                        "--pair-len",
                        "2",
                        "--triple-len",
                        "1",
                    ]
                )
                out = capsys.readouterr().out
                assert code == 1, (label, key, b, coeff)
                assert "FAIL" in out and "defect" in out
            else:
                assert code == 2, (label, key, b, coeff)
                assert "INVALID" in out and "!=" in out  # concrete witness shown
