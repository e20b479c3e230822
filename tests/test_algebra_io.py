"""Parsing, validation, fixtures, and the fixture search."""

import copy
import itertools
import json
import random
from fractions import Fraction

import pytest

from shufflebv.algebra_io import (
    AinfAlgebra,
    AlgebraSpec,
    MorphismSpec,
    ValidationFailure,
    builtin,
    builtin_names,
    load_document,
    parse_document,
    render_document,
    validate_ainf,
    validate_dga,
    validate_morphism,
)
from shufflebv.graded import InvalidInputError
from shufflebv.operators import CompositeSum, composition_relations
from shufflebv.words import words_up_to
from generated_dgas import end_of_complex
from test_operators import anticommutator
from test_words import id_words
from validate_reference import dga_violations, morphism_violations


ALGEBRA_FIXTURES = [
    "dual-numbers",
    "dual-numbers-odd",
    "upper-triangular-2",
    "full-matrix-2",
    "diagonal-2",
    "end-two-term-complex",
    "ainf-mu3",
]


def test_builtin_names_complete():
    assert builtin_names() == sorted(ALGEBRA_FIXTURES + ["diag-into-upper-triangular"])
    with pytest.raises(InvalidInputError):
        builtin("no-such-fixture")


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_every_fixture_validates(name):
    spec = builtin(name)
    if spec.kind == "dga":
        validate_dga(spec)
    else:
        validate_ainf(spec)


def test_morphism_fixture_validates():
    validate_morphism(builtin("diag-into-upper-triangular"))


def test_end_two_term_properties():
    alg = validate_dga(builtin("end-two-term-complex"))
    assert len(alg.space.letters) == 4
    assert alg.d.table
    # noncommutative: composing in the two orders differs somewhere
    assert any(
        alg.mu.table.get((a, b)) != alg.mu.table.get((b, a))
        for a, b in itertools.product(alg.space.ids, repeat=2)
    )


def test_upper_triangular_associative_by_brute_force():
    # the reference evaluates (ab)c and a(bc) on all 27 basis triples
    spec = builtin("upper-triangular-2")
    validate_dga(spec)
    assert len(spec.basis) == 3 and dga_violations(spec) == []


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", ALGEBRA_FIXTURES + ["diag-into-upper-triangular"])
def test_render_parse_roundtrip(name):
    spec = builtin(name)
    data = render_document(spec)
    again = parse_document(json.loads(json.dumps(data)))
    assert again == spec


def test_load_document(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(render_document(builtin("dual-numbers"))))
    spec = load_document(str(path))
    assert spec == builtin("dual-numbers")


# -- strict parsing -----------------------------------------------------------------


def base_doc():
    return json.loads(json.dumps(render_document(builtin("dual-numbers"))))


def test_parse_rejects_unknown_keys():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_requires_format():
    doc = base_doc()
    del doc["format"]
    with pytest.raises(InvalidInputError):
        parse_document(doc)
    doc["format"] = 2
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_numeric_coefficients():
    doc = base_doc()
    doc["operations"]["mu2"][0]["output"][0][1] = 1
    with pytest.raises(InvalidInputError):
        parse_document(doc)
    doc["operations"]["mu2"][0]["output"][0][1] = "1.5"
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_bad_basis():
    doc = base_doc()
    doc["basis"][0][1] = 0.5
    with pytest.raises(InvalidInputError):
        parse_document(doc)
    doc = base_doc()
    doc["basis"] = []
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_unknown_operation_labels():
    doc = base_doc()
    doc["operations"]["mu0"] = []
    with pytest.raises(InvalidInputError):
        parse_document(doc)
    doc = base_doc()
    doc["operations"]["mu3"] = []  # arity 3 table on a dga
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_duplicate_entries():
    doc = base_doc()
    doc["operations"]["mu2"].append(doc["operations"]["mu2"][0])
    with pytest.raises(InvalidInputError):
        parse_document(doc)


def test_parse_rejects_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_document(str(path))


# -- dga validation -----------------------------------------------------------------


def test_validate_dga_rejects_nonassociative_with_witness():
    spec = builtin("upper-triangular-2")
    spec.operations["mu2"][("e12", "e11")] = {"e12": 1}
    with pytest.raises(ValidationFailure) as exc:
        validate_dga(spec)
    rules = {v.rule for v in exc.value.violations}
    assert rules == {"associativity"}
    assert all(len(v.inputs) == 3 for v in exc.value.violations)


def test_validate_dga_rejects_broken_leibniz():
    spec = builtin("end-two-term-complex")
    spec.operations["d"][("a",)] = {"c": -1}  # flip one d constant
    with pytest.raises(ValidationFailure) as exc:
        validate_dga(spec)
    assert any(v.rule == "leibniz" for v in exc.value.violations)


def test_validate_dga_rejects_degree_inconsistency():
    spec = builtin("end-two-term-complex")
    spec.operations["d"][("c",)] = {"a": 1}  # d must raise degree by one
    with pytest.raises(InvalidInputError):
        validate_dga(spec)


def test_validation_completeness_at_basis_level():
    """Basis-level validity is equivalent to the lifted identities holding
    on words (cross-checked up to length 4)."""

    def lifted_identities_hold(spec):
        space = spec.space()
        d = spec.multilinear("d", space)
        mu = spec.multilinear("mu2", space)
        from shufflebv.operators import lift_coderivation

        dop, muop = lift_coderivation(d), lift_coderivation(mu)
        checks = [
            CompositeSum([(1, dop, dop)]), CompositeSum([(1, muop, muop)]), anticommutator(dop, muop)
        ]
        return all(
            not op(w)
            for op in checks
            for w in id_words(space, 4)
        )

    good = builtin("end-two-term-complex")
    validate_dga(good)
    assert lifted_identities_hold(good)

    perturbations = [
        ("mu2", ("b", "c"), {"a": -1}),
        ("mu2", ("a", "a"), {"a": 2}),
        ("d", ("a",), {"c": 2}),
        ("mu2", ("a", "c"), {"c": 1}),
    ]
    for label, key, out in perturbations:
        spec = builtin("end-two-term-complex")
        spec.operations[label][key] = out
        with pytest.raises(ValidationFailure):
            validate_dga(spec)
        assert not lifted_identities_hold(spec), (label, key, out)


# -- ainf validation -----------------------------------------------------------------


def test_dga_retagged_as_ainf_is_valid():
    spec = builtin("end-two-term-complex")
    spec.kind = "ainf"
    validate_ainf(spec, 3)


def test_ainf_fixture_search_confirms_committed_instance():
    """Bounded exhaustive search over the (p,q,r) degree pattern with
    mu2(p,p)=q and mu3(p,p,p)=q pinned: the committed fixture's remaining
    constants (all zero) must be valid, and flipping constants must be able
    to break the relations."""

    def make(c, e, h, i, j):
        ops = {"mu2": {("p", "p"): {"q": 1}}, "mu3": {("p", "p", "p"): {"q": 1}}}
        if c:
            ops["mu2"][("p", "q")] = {"r": c}
        if e:
            ops["mu2"][("q", "p")] = {"r": e}
        if h:
            ops["mu3"][("p", "p", "q")] = {"r": h}
        if i:
            ops["mu3"][("p", "q", "p")] = {"r": i}
        if j:
            ops["mu3"][("q", "p", "p")] = {"r": j}
        return AlgebraSpec("search", "ainf", [("p", 1), ("q", 2), ("r", 3)], ops)

    valid = set()
    invalid = 0
    for coeffs in itertools.product((-1, 0, 1), repeat=5):
        try:
            validate_ainf(make(*coeffs), 3)
            valid.add(coeffs)
        except ValidationFailure:
            invalid += 1
    assert (0, 0, 0, 0, 0) in valid  # the committed instance
    assert invalid > 0
    assert (0, 0, 1, 0, 0) not in valid  # the documented breaking perturbation


def test_ainf_rejects_relation_breaking_mu3():
    spec = builtin("ainf-mu3")
    spec.operations["mu3"][("p", "p", "q")] = {"r": 1}
    with pytest.raises(ValidationFailure) as exc:
        validate_ainf(spec, 3)
    assert all(v.rule.startswith("sum_relation_n_") for v in exc.value.violations)
    # defect words are reported
    assert all(v.inputs for v in exc.value.violations)


def test_ainf_rejects_degree_inconsistency_before_relations():
    spec = builtin("ainf-mu3")
    spec.operations["mu3"][("p", "p", "p")] = {"r": 1}  # wrong output degree
    with pytest.raises(InvalidInputError):
        validate_ainf(spec, 3)


def test_validate_ainf_zero_arity_is_not_a_default():
    # K=0 is a bound, not "no bound", with or without tables above it
    spec = builtin("ainf-mu3")
    with pytest.raises(InvalidInputError):
        validate_ainf(spec, 0)
    spec.operations.clear()
    with pytest.raises(InvalidInputError, match="max arity must be >= 1"):
        validate_ainf(spec, 0)


# -- morphism validation ---------------------------------------------------------------


def test_identity_morphism_valid():
    spec = MorphismSpec(
        name="id",
        source="upper-triangular-2",
        target="upper-triangular-2",
        mapping={(a,): {a: 1} for a in ("e11", "e12", "e22")},
    )
    validate_morphism(spec)


def test_transpose_is_rejected():
    transpose = MorphismSpec(
        name="transpose",
        source="full-matrix-2",
        target="full-matrix-2",
        mapping={
            ("e11",): {"e11": 1},
            ("e12",): {"e21": 1},
            ("e21",): {"e12": 1},
            ("e22",): {"e22": 1},
        },
    )
    with pytest.raises(ValidationFailure) as exc:
        validate_morphism(transpose)
    assert any(v.rule == "multiplicative" for v in exc.value.violations)


def test_non_multiplicative_map_rejected():
    bad = MorphismSpec(
        name="bad",
        source="diagonal-2",
        target="upper-triangular-2",
        mapping={("d11",): {"e12": 1}},
    )
    with pytest.raises(ValidationFailure):
        validate_morphism(bad)


def test_morphism_resolver_hook():
    # the endpoints are resolved by name in the builtin gallery
    spec = builtin("diag-into-upper-triangular")
    morph = validate_morphism(spec)
    assert morph.fmap.table[("d11",)] == {"e11": 1}


# -- the tuple reference --------------------------------------------------------------


def found(validate, spec):
    """(rule, inputs) of each violation ``validate`` reports for ``spec``, in order."""
    try:
        validate(spec)
    except ValidationFailure as exc:
        return [(v.rule, v.inputs) for v in exc.violations]
    return []


def perturbed(specs, count, seed):
    """``count`` dga specs, each one of ``specs`` with one entry of d or mu2
    set to a seeded random multiple of a letter of the right degree, or to
    zero if there is none."""
    rng = random.Random(seed)
    for _ in range(count):
        spec = copy.deepcopy(rng.choice(specs))
        degree = dict(spec.basis)
        label, arity = rng.choice((("d", 1), ("mu2", 2)))
        ids = tuple(rng.choice(list(degree)) for _ in range(arity))
        outs = [b for b, g in spec.basis if g == sum(map(degree.get, ids)) + 2 - arity]
        coeff = rng.choice((-1, 1, 2, Fraction(1, 2)))
        spec.operations.setdefault(label, {})[ids] = {rng.choice(outs): coeff} if outs else {}
        yield spec


def seeded_maps(source, target, count, seed):
    """``count`` degree-0 maps of seeded random coefficients in {-1, 0, 1, 2}."""
    rng = random.Random(seed)
    tgt = builtin(target).basis
    for i in range(count):
        mapping = {}
        for a, g in builtin(source).basis:
            image = {b: c for b, h in tgt if h == g and (c := rng.choice((-1, 0, 1, 2)))}
            if image:
                mapping[(a,)] = image
        yield MorphismSpec(f"map-{i}", source, target, mapping)


def test_validators_match_the_tuple_reference():
    # the word-space relations report the failed identities of the printed
    # formulas on basis tuples, at the same inputs, in the same order
    dgas = [builtin(name) for name in ALGEBRA_FIXTURES if name != "ainf-mu3"]
    dgas += [end_of_complex((0, 1, 2), {(2, 1): 1}),
             end_of_complex((-1, 0, 0, 1), {(2, 1): 1, (4, 3): 1})]
    specs = dgas + list(perturbed(dgas, 220, seed=24))
    reports = [found(validate_dga, spec) for spec in specs]
    assert reports == [dga_violations(spec) for spec in specs]
    assert sum(map(bool, reports)) >= 120 and {r for v in reports for r, _ in v} == {
        "d_squared", "leibniz", "associativity"}
    maps = [builtin("diag-into-upper-triangular")]
    maps += seeded_maps("diagonal-2", "upper-triangular-2", 150, seed=24)
    maps += seeded_maps("end-two-term-complex", "end-two-term-complex", 50, seed=24)
    reports = [found(validate_morphism, spec) for spec in maps]
    assert reports == [morphism_violations(spec) for spec in maps]
    assert sum(map(bool, reports)) >= 100 and {r for v in reports for r, _ in v} == {
        "commutes_with_d", "multiplicative"}


def test_ainf_violations_come_relation_by_relation_in_word_order():
    # the relation loop makes each word once for every relation, and still
    # reports relation by relation, each over the words of words_up_to
    for ids in (("q", "p", "p"), ("p", "p", "q"), ("p", "q", "p")):
        spec = builtin("ainf-mu3")
        spec.operations["mu3"][ids] = {"r": 1}
        alg = AinfAlgebra.from_spec_unchecked(spec)
        relations = composition_relations([alg.delta_op(k) for k in (1, 2, 3)])
        expected = [(f"sum_relation_n_{n}", alg.space.decode(w))
                    for n, relation in relations for w in words_up_to(alg.space, 5) if relation(w)]
        assert found(validate_ainf, spec) == expected
        assert len({rule for rule, _ in expected}) == 2, ids


# -- rational structure constants ------------------------------------------------------


def test_fractional_constants_end_to_end():
    from shufflebv.bv import Bounds, bracket, check_dbv
    from shufflebv.words import TElement

    spec = AlgebraSpec(
        name="half-idempotent",
        kind="dga",
        basis=[("u", 0), ("n", 0)],
        operations={
            "mu2": {
                ("u", "u"): {"u": Fraction(1, 2)},
                ("u", "n"): {"n": Fraction(1, 2)},
                ("n", "u"): {"n": Fraction(1, 2)},
            }
        },
    )
    alg = validate_dga(spec)
    assert all(r.passed for r in check_dbv(alg, Bounds(unary=3, binary=2, ternary=1)))
    b = bracket(
        TElement.word(alg.space, ("u",)),
        TElement.word(alg.space, ("n",)),
        alg.delta_op,
    )
    assert b.is_zero()  # still commutative

    # coefficients survive the file format as exact strings
    data = render_document(spec)
    assert data["operations"]["mu2"][0]["output"][0][1] == "1/2"
    assert parse_document(json.loads(json.dumps(data))) == spec
