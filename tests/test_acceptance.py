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
    AinfAlgebra,
    DGAlgebra,
    DGMorphism,
    builtin,
    render_document,
    validate_ainf,
    validate_dga,
    validate_morphism,
)
from shufflebv.bv import Bounds, bracket, check_bvinf, check_dbv, check_functoriality, order_defect
from shufflebv.cli import main
from shufflebv.graded import BasisLetter, GradedSpace
from shufflebv.operators import (
    CompositeSum,
    InducedMap,
    MultilinearMap,
    Operator,
    lift_coderivation,
)
from shufflebv.words import (
    TElement,
    merge_scaled,
    shuffle,
    shuffle_elements,
    word_degree,
)
from case_reference import word_tuples_with_total
from test_words import id_words


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
        pairs = list(itertools.product(id_words(sp, 3), repeat=2))
        for u, v in pairs:
            sign = (-1) ** (word_degree(sp, sp.encode(u)) * word_degree(sp, sp.encode(v)) % 2)
            assert shuffle(sp, u, v) == sign * shuffle(sp, v, u), (u, v)
        triples = list(itertools.product(id_words(sp, 2), repeat=3))
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
        words = id_words(alg.space, 3)
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
                defect = order_defect(D, arity, [TElement.word(sp, sp.decode(w)) for w in t])
                assert defect.is_zero(), (arity, degree, t)
            for t in word_tuples_with_total(sp, arity + 2, 6):
                defect = order_defect(D, arity + 1, [TElement.word(sp, sp.decode(w)) for w in t])
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
                xs = [TElement.word(sp, sp.decode(w)) for w in t]
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
        sq = CompositeSum([(1, ut.delta_op, ut.delta_op)])
        for w in id_words(ut.space, 5):
            assert not sq(w), w

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


class _NoPrefixSignLift(Operator):
    """The lift of the differential or of the product with its
    position-dependent sign dropped (the product keeps its twist
    (-1)^|a_1|): no longer a coderivation.  For the product, both the
    Leibniz and the order-2 sweeps must fail."""

    def __init__(self, mu):
        super().__init__(mu.space, mu.degree + 1 - mu.arity)
        self.mu = mu

    def _apply_word(self, w):
        w = self.space.decode(w)
        out = {}
        k = self.mu.arity
        for i in range(len(w) - k + 1):
            entry = self.mu.table.get(w[i : i + k])
            if entry:
                tw = -1 if k == 2 and self.space.degree(w[i]) & 1 else 1
                for b, c in entry.items():
                    w2 = w[:i] + (b,) + w[i + k :]
                    out[w2] = out.get(w2, 0) + tw * c
        return {self.space.encode(k): v for k, v in out.items() if v}


class _RepeatFirstLetter(Operator):
    """w -> op(w) + w[0] (x) w, with op's degree: on nonempty words the
    added term raises a word's degree by |w[0]| + 1, whatever op's is."""

    def __init__(self, op):
        super().__init__(op.space, op.degree)
        self.op = op

    def _apply_word(self, w):
        return merge_scaled(dict(self.op._cache[w]), {w[:1] + w: 1} if w else {}, 1)


def test_memo_matches_reference_on_unsigned_lift(end2):
    # a subclass of Operator gets its image table and defect memo too
    lift = _NoPrefixSignLift(end2.mu)
    el = lambda w: TElement.word(end2.space, w)
    for u, v in itertools.product(id_words(end2.space, 2), repeat=2):
        x, y = el(u), el(v)
        assert bracket(x, y, lift).terms == bracket_reference(x, y, lift).terms, (u, v)
        assert order_defect(lift, 1, [x, y]).terms == order_defect_reference(lift, 1, [x, y]).terms
    nonzero = 0
    for t in itertools.product(id_words(end2.space, 1), repeat=3):
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


def test_leibniz_sweep_is_signed_order_2_sweep(end2, monkeypatch):
    # For any odd D the Leibniz defect of its bracket at (x, y, z) is
    # (-1)^(|x|+|y|) F_3(x, y, z), the order-2 defect: on the sign-dropped
    # product lift the two sweeps fail on the same cases, witness for
    # witness, whether they run here or in a fork pool's workers.
    import shufflebv.bv
    from types import SimpleNamespace

    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    buggy = SimpleNamespace(
        space=end2.space, d_op=end2.d_op, delta_op=_NoPrefixSignLift(end2.mu)
    )
    degree = lambda ids: word_degree(end2.space, end2.space.encode(ids))
    sign = lambda x, y: (-1) ** (degree(x) + degree(y))
    for jobs in (1, 2):
        bounds = Bounds(unary=1, binary=1, ternary=2, fail_cap=10_000, jobs=jobs)
        by_name = {r.name: r for r in check_dbv(buggy, bounds)}
        leibniz, order2 = by_name["bracket_leibniz"], by_name["delta_order_2"]
        assert leibniz.failure_count == order2.failure_count == 6252
        assert len(leibniz.failures) == len(order2.failures) == 6252
        for fl, fo in zip(leibniz.failures, order2.failures):
            assert fl.inputs == fo.inputs
            s = sign(*fl.inputs[:2])
            assert fl.defect.terms == {w: s * c for w, c in fo.defect.terms.items()}, fl.inputs


def test_leibniz_defect_is_signed_order_2_defect_on_random_odd_lifts():
    # The same identity on criterion 4's random arity-3 lifts of odd degree,
    # none of them BV: at every triple of words of length <= 2 the Leibniz
    # sweep's defect is (-1)^(|x|+|y|) times the order-2 sweep's F_3.  The
    # two sweeps share no code but the defect memo, so a sign slip in the
    # bracket or in Koszul's recursion shows as a mismatch.
    from types import SimpleNamespace

    sp = GradedSpace("rand2", [BasisLetter("x", 0), BasisLetter("y", 1)])
    degree = lambda ids: word_degree(sp, sp.encode(ids))
    sign = lambda x, y: (-1) ** (degree(x) + degree(y))
    bounds = Bounds(unary=0, binary=0, ternary=2, fail_cap=10_000)
    lifts = [D for arity, _, D in _random_lifts(sp) if arity == 3 and D.degree & 1]
    assert len(lifts) == 6
    nonzero = []
    for D in lifts:
        by_name = {r.name: r for r in check_dbv(SimpleNamespace(space=sp, d_op=D, delta_op=D), bounds)}
        leibniz, order2 = by_name["bracket_leibniz"], by_name["delta_order_2"]
        assert leibniz.cases == order2.cases == 7 ** 3
        assert [f.inputs for f in leibniz.failures] == [f.inputs for f in order2.failures]
        for fl, fo in zip(leibniz.failures, order2.failures):
            s = sign(*fl.inputs[:2])
            assert fl.defect.terms == {w: s * c for w, c in fo.defect.terms.items()}, fl.inputs
        nonzero.append(order2.failure_count)
    # F_3 is nonzero on 114 triples for half of the lifts: the check is not vacuous
    assert sorted(nonzero) == [0, 0, 0, 114, 114, 114]


def test_jacobi_sweep_is_signed_order_2_sweep_of_delta_squared(monkeypatch):
    # The Jacobi analogue of the test above: for the lift delta of any
    # degree-0 product, J(x, y, z) = (-1)^|y| F_3(x, y, z) of delta o delta.
    # With mu(b, c) = -a, not associative, the Jacobi sweep of delta fails on
    # exactly the triples where the order-2 sweep of delta o delta does,
    # witness for witness, whether they run here or in a fork pool's workers.
    import shufflebv.bv
    from types import SimpleNamespace
    from test_bv import corrupted_end2

    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    bad = corrupted_end2()
    squared = SimpleNamespace(space=bad.space, d_op=bad.d_op,
                              delta_op=CompositeSum([(1, bad.delta_op, bad.delta_op)]))
    degree = lambda ids: word_degree(bad.space, bad.space.encode(ids))
    for jobs in (1, 2):
        bounds = Bounds(unary=1, binary=1, ternary=2, fail_cap=10_000, jobs=jobs)
        jacobi = {r.name: r for r in check_dbv(bad, bounds)}["bracket_jacobi"]
        order2 = {r.name: r for r in check_dbv(squared, bounds)}["delta_order_2"]
        assert jacobi.failure_count == order2.failure_count == len(jacobi.failures) == 1752
        assert [f.inputs for f in jacobi.failures] == [f.inputs for f in order2.failures]
        for fj, fo in zip(jacobi.failures, order2.failures):
            s = -1 if degree(fj.inputs[1]) & 1 else 1
            assert fj.defect.terms == {w: s * c for w, c in fo.defect.terms.items()}, fj.inputs


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


def _perturbed_end2(label, key, b, coeff):
    """end-two-term-complex with one structure constant set to ``coeff``,
    built without validation."""
    spec = builtin("end-two-term-complex")
    spec.operations[label][key] = {**spec.operations[label].get(key, {}), b: coeff}
    return DGAlgebra.from_spec_unchecked(spec)


def test_every_dbv_axiom_has_a_negative_control(end2, monkeypatch):
    # bracket_antisymmetry holds for every odd operator, coderivation or
    # not, because the shuffle product is graded commutative: no perturbed
    # constant and no sign-dropped lift fails it.  Only an operator of even
    # degree does, here the composite delta o d in place of delta.
    import shufflebv.bv
    from types import SimpleNamespace

    def control(d_op=end2.d_op, delta_op=end2.delta_op):
        return SimpleNamespace(space=end2.space, d_op=d_op, delta_op=delta_op)

    controls = {
        "d(a) = -c": (_perturbed_end2("d", ("a",), "c", -1),
                      {"d_squared", "d_delta_anticommutator"}),
        "mu2(b, c) = -a": (_perturbed_end2("mu2", ("b", "c"), "a", -1),
                           {"delta_squared", "d_delta_anticommutator", "bracket_jacobi"}),
        "d lift without prefix sign": (
            control(d_op=_NoPrefixSignLift(end2.d)),
            {"d_squared", "d_delta_anticommutator", "d_derivation"}),
        "product lift without prefix sign": (
            control(delta_op=_NoPrefixSignLift(end2.mu)),
            {"delta_squared", "d_delta_anticommutator", "bracket_leibniz", "delta_order_2"}),
        "delta o d in place of delta": (
            control(delta_op=CompositeSum([(1, end2.delta_op, end2.d_op)])),
            {"bracket_antisymmetry", "bracket_leibniz", "delta_order_2"}),
    }
    # a pool of two workers whatever the host has, so --jobs 2 forks
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    caught = set()
    for label, (alg, expected) in controls.items():
        runs = []
        for jobs in (1, 2):
            reports = check_dbv(alg, Bounds(unary=3, binary=2, ternary=1, jobs=jobs))
            runs.append([
                (r.name, r.cases, r.failure_count,
                 [(f.inputs, f.defect.terms) for f in r.failures])
                for r in reports
            ])
        assert runs[0] == runs[1], label
        failed = {name for name, _, count, _ in runs[0] if count}
        assert failed == expected, label
        caught |= failed
    assert caught == {r.name for r in check_dbv(end2, Bounds(unary=1, binary=1, ternary=1))}


# (failure count, sha256 of the report's sorted-key JSON) of each sweep of
# check_dbv with delta o d in place of delta, at ternary 2 with every witness
# kept; pinned before the defect memo's fill kernel or the hoisted bracket
# rows changed, so a change to an even operator's defects fails here
EVEN_CONTROL_PINS = {
    "d_squared": (0, "bc95aa72c4decc87925174f1f32e63df5f62518cf79f1a813fbdd646ebbc98bc"),
    "delta_squared": (0, "dde465069fc27190ff928ee39659b2ec21fff4921f304b5c37bf611c2898360e"),
    "d_delta_anticommutator":
        (0, "21cd5261fe8668a4df02bb585034e7625e10ed17c8ea42786a85e4a6b5a9ab1e"),
    "d_derivation": (0, "3e437d7763260c8cc11d50bcf6ff54e745a27ec2861fed04396d2a93c981b59c"),
    "bracket_antisymmetry":
        (116, "9e4cbb628e6527cee7ed8c3169b3777d5c42cfb91ecca745b1258e89065e0245"),
    "bracket_leibniz":
        (5374, "5dead028895808ca9581637174e8738541f8aa4962c4148f8b82f08356ecfeea"),
    "bracket_jacobi":
        (3378, "c25cfb9d933da758ad33051be0b0948bc04c32dbe095b0bba85c35e7a36d63ab"),
    "delta_order_2":
        (4952, "ce1c15653dd8546271a9fc0f65dd48ff19169865e8021414b41ac5bb26dc1636"),
}


def test_even_operator_control_is_pinned(end2, monkeypatch):
    # the even operator delta o d takes the even-degree correction of the
    # bracket on every odd word; its failure counts and full reports are the
    # same at --jobs 1 and through a pool of two workers
    import hashlib
    import shufflebv.bv
    from types import SimpleNamespace

    even = SimpleNamespace(
        space=end2.space, d_op=end2.d_op,
        delta_op=CompositeSum([(1, end2.delta_op, end2.d_op)]),
    )
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    for jobs in (1, 2):
        reports = check_dbv(even, Bounds(unary=3, binary=2, ternary=2, fail_cap=10**6, jobs=jobs))
        got = {
            r.name: (r.failure_count, hashlib.sha256(
                json.dumps(r.to_json(), sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest())
            for r in reports
        }
        assert got == EVEN_CONTROL_PINS, jobs


def _reports_at_jobs_1_and_2(monkeypatch, check):
    """(name, cases, failure count) of each report of ``check(jobs)``, which
    must be the same, witnesses included, at --jobs 1 and through a pool of
    two workers."""
    import shufflebv.bv

    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    runs = []
    for jobs in (1, 2):
        runs.append([
            (r.name, r.cases, r.failure_count, [(f.inputs, f.defect.terms) for f in r.failures])
            for r in check(jobs)
        ])
    assert runs[0] == runs[1]
    return [(name, cases, count) for name, cases, count, _ in runs[0]]


def _bvinf_failures(monkeypatch, ainf, **bounds):
    """{name: failure count} of the failing axioms of check_bvinf at the
    default bounds, or at ``bounds``, the same at --jobs 1 and 2."""
    check = lambda jobs: check_bvinf(ainf, 3, Bounds(**bounds, jobs=jobs))
    rows = _reports_at_jobs_1_and_2(monkeypatch, check)
    return {name: count for name, _, count in rows if count}


def test_bvinf_negative_control_sign_dropped_product(monkeypatch):
    # the product lift with its prefix sign dropped, in place of delta_2 on
    # ainf-mu3: its order-2 sweep fails, and so do the composition relations
    # where it meets itself (n = -2) or delta_3 (n = -4); its degree, and the
    # relation n = 0 with d, still hold
    from types import SimpleNamespace

    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    lift = _NoPrefixSignLift(ainf.maps[2])
    bad = SimpleNamespace(
        space=ainf.space,
        maps=ainf.maps,
        delta_op=lambda k: lift if k == 2 else ainf.delta_op(k),
    )
    assert _bvinf_failures(monkeypatch, bad) == {
        "order_2_delta_-1": 384, "sum_relation_n_-2": 8, "sum_relation_n_-4": 1,
    }


def test_bvinf_negative_control_degree(monkeypatch):
    # delta_2 plus w -> w[0] (x) w in place of delta_2 on ainf-mu3: the new
    # term has the wrong degree on every nonempty word, is not of order 2,
    # and breaks the relations where delta_2 meets itself or delta_3
    from types import SimpleNamespace

    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    delta2 = ainf.delta_op(2)
    bad_op = _RepeatFirstLetter(delta2)
    bad = SimpleNamespace(
        space=ainf.space,
        maps=ainf.maps,
        delta_op=lambda k: bad_op if k == 2 else ainf.delta_op(k),
    )
    assert _bvinf_failures(monkeypatch, bad) == {
        "degree_delta_-1": 363,
        "order_2_delta_-1": 1645,
        "sum_relation_n_-2": 363,
        "sum_relation_n_-4": 48,
    }


class _SignFlippedOnLength(Operator):
    """An operator with its images negated on the words of one length."""

    def __init__(self, op, length):
        super().__init__(op.space, op.degree)
        self.op = op
        self.length = length

    def _apply_word(self, w):
        image = self.op._cache[w]
        return {w2: -c for w2, c in image.items()} if len(w) == self.length else image


def test_bvinf_negative_control_delta_1_flipped(end2, monkeypatch):
    # ainf-mu3 has no mu1, so its delta_1 is zero and a sign flip changes
    # nothing.  end-two-term-complex, read as an A-infinity algebra with
    # no higher products, passes every sweep; with delta_1 = d negated on
    # words of length 2, d is no longer a derivation of the shuffle
    # product, and d o delta_2 + delta_2 o d no longer vanishes
    from types import SimpleNamespace

    ainf = AinfAlgebra(end2.space, {1: end2.d, 2: end2.mu})
    assert _bvinf_failures(monkeypatch, ainf, unary=4, order_slack=1) == {}
    flipped = _SignFlippedOnLength(ainf.delta_op(1), 2)
    bad = SimpleNamespace(
        space=ainf.space,
        maps=ainf.maps,
        delta_op=lambda k: flipped if k == 1 else ainf.delta_op(k),
    )
    assert _bvinf_failures(monkeypatch, bad, unary=4, order_slack=1) == {
        "order_1_delta_1": 133, "sum_relation_n_0": 40,
    }


def _delta_3_flipped():
    """ainf-mu3 with delta_3 negated on words of length 4."""
    from types import SimpleNamespace

    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    flipped = _SignFlippedOnLength(ainf.delta_op(3), 4)
    return SimpleNamespace(
        space=ainf.space,
        maps=ainf.maps,
        delta_op=lambda k: flipped if k == 3 else ainf.delta_op(k),
    )


def test_bvinf_negative_control_delta_3_flipped(monkeypatch):
    # delta_3 of ainf-mu3 negated on words of length 4: no longer of order
    # 3.  Only its order sweep fails: every composite of two lifts that
    # involves it vanishes term by term, whatever its sign
    assert _bvinf_failures(monkeypatch, _delta_3_flipped()) == {"order_3_delta_-3": 1237}


# sha256 of the sorted-key JSON of the first fail_cap (10) witnesses of
# order_3_delta_-3 with delta_3 flipped, at the default bounds.  Every
# builtin passes its order sweeps, so these witnesses are the one pinned
# nonzero order-3 defect: they are read from the defect memo's fills
DELTA_3_FLIPPED_WITNESSES = "98963d4a271f21beef89f85be632afbb5df49bf4b5e5538c4d7a110ee437ed96"


def test_bvinf_delta_3_flipped_witnesses_are_pinned(monkeypatch):
    # the same witnesses at --jobs 1 and through a pool of two workers
    import hashlib
    import shufflebv.bv

    bad = _delta_3_flipped()
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    for jobs in (1, 2):
        (report,) = [r for r in check_bvinf(bad, 3, Bounds(jobs=jobs)) if r.name == "order_3_delta_-3"]
        assert (report.failure_count, len(report.failures)) == (1237, 10), jobs
        witnesses = json.dumps([f.to_json() for f in report.failures], sort_keys=True,
                               separators=(",", ":"))
        assert hashlib.sha256(witnesses.encode()).hexdigest() == DELTA_3_FLIPPED_WITNESSES, jobs


def test_bvinf_negative_control_outer_relations(monkeypatch, tmp_path, capsys):
    # ainf-mu3 with a structure map added, unchecked.  With d(p) = q and
    # d(q) = r, d squares to nonzero and is no derivation of mu2, so the
    # relations n = 2 (d d), 0 (d, delta_2) and -2 (d, delta_3) fail, while
    # delta_1 = d keeps its degree and order.  With mu3(q, p, p) = r, delta_3
    # breaks the relations where it meets delta_2 (n = -4) and itself
    # (n = -6).  validate rejects both.
    variants = {
        "d(p) = q, d(q) = r": (
            lambda ops: ops.update(d={("p",): {"q": 1}, ("q",): {"r": 1}}),
            {"sum_relation_n_2": 301, "sum_relation_n_0": 106, "sum_relation_n_-2": 27}),
        "mu3(q, p, p) = r": (
            lambda ops: ops["mu3"].update({("q", "p", "p"): {"r": 1}}),
            {"sum_relation_n_-4": 6, "sum_relation_n_-6": 1}),
    }
    for name, (mutate, failures) in variants.items():
        spec = builtin("ainf-mu3")
        mutate(spec.operations)
        assert _bvinf_failures(monkeypatch, AinfAlgebra.from_spec_unchecked(spec)) == failures, name
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(render_document(spec)))
        assert main(["validate", str(path)]) == 2, name
        assert capsys.readouterr().out.startswith("INVALID"), name


def test_functoriality_negative_control_swap(end2, monkeypatch):
    # the a <-> e swap on end-two-term-complex, unchecked: it commutes with
    # neither d nor the product, but, like every degree-0 letterwise map,
    # with the shuffle product
    swap = MultilinearMap(
        end2.space, 1, 0,
        {("a",): {"e": 1}, ("b",): {"b": 1}, ("c",): {"c": 1}, ("e",): {"a": 1}},
    )
    morph = DGMorphism(end2, end2, swap)
    check = lambda jobs: check_functoriality(morph, Bounds(unary=3, binary=2, jobs=jobs))
    assert _reports_at_jobs_1_and_2(monkeypatch, check) == [
        ("morphism_commutes_d", 85, 70),
        ("morphism_commutes_delta", 85, 60),
        ("morphism_commutes_shuffle", 441, 0),
    ]


def test_functoriality_negative_control_corrupted_images(end2, monkeypatch):
    # the identity of end-two-term-complex, through an induced map whose
    # image table negates every image of a word of length 2: F(x * y) then
    # differs from F(x) * F(y) for letters x, y with x * y nonzero, and F no
    # longer commutes with delta, which joins letters; d keeps word lengths,
    # so F still commutes with it
    import shufflebv.bv

    def corrupted(f):
        F = InducedMap(f)
        fill = F._cache.fill
        F._cache.fill = lambda w: {v: -c for v, c in fill(w).items()} if len(w) == 2 else fill(w)
        return F

    ident = MultilinearMap(end2.space, 1, 0, {(a,): {a: 1} for a in end2.space.ids})
    morph = DGMorphism(end2, end2, ident)
    check = lambda jobs: check_functoriality(morph, Bounds(unary=3, binary=2, jobs=jobs))
    honest = _reports_at_jobs_1_and_2(monkeypatch, check)
    assert [count for _, _, count in honest] == [0, 0, 0]
    monkeypatch.setattr(shufflebv.bv, "induced_morphism", corrupted)
    assert _reports_at_jobs_1_and_2(monkeypatch, check) == [
        ("morphism_commutes_d", 85, 0),
        ("morphism_commutes_delta", 85, 48),
        ("morphism_commutes_shuffle", 441, 142),
    ]


def test_functoriality_witnesses_are_in_the_target_letters(monkeypatch):
    # d11 -> e11, d22 -> e12 from diagonal-2 into upper-triangular-2 is not
    # multiplicative.  A witness's inputs are words of the source and its
    # defect an element of the target: decoded with the source's letters,
    # e12 would read as d22.
    src = validate_dga(builtin("diagonal-2"))
    tgt = validate_dga(builtin("upper-triangular-2"))
    f = MultilinearMap(src.space, 1, 0, {("d11",): {"e11": 1}, ("d22",): {"e12": 1}},
                       target=tgt.space)
    morph = DGMorphism(src, tgt, f)
    bounds = lambda jobs: Bounds(unary=2, binary=1, fail_cap=2, jobs=jobs)
    check = lambda jobs: check_functoriality(morph, bounds(jobs))
    assert [(name, count) for name, _, count in _reports_at_jobs_1_and_2(monkeypatch, check)] == [
        ("morphism_commutes_d", 0),
        ("morphism_commutes_delta", 2),
        ("morphism_commutes_shuffle", 0),
    ]
    for jobs in (1, 2):
        first = check(jobs)[1].failures[0]
        assert first.inputs == (("d11", "d22"),)
        assert first.defect.space is tgt.space and list(first.defect) == [(("e12",), -1)]
        assert first.to_json()["defect"]["pretty"] == "-e12"
