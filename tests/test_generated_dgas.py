"""End(C) of small complexes: DGAs valid by construction, checked by
validation and by the dBV sweeps, with negative controls."""

import multiprocessing

import pytest

import shufflebv.bv
from shufflebv.algebra_io import (
    DGAlgebra,
    ValidationFailure,
    builtin,
    validate_dga,
)
from shufflebv.bv import Bounds, check_dbv
from generated_dgas import end_of_complex
from test_bv import InProcessContext


def violated_rules(spec):
    with pytest.raises(ValidationFailure) as caught:
        validate_dga(spec)
    return {v.rule for v in caught.value.violations}


def failing_sweeps(spec, bounds):
    reports = check_dbv(DGAlgebra.from_spec_unchecked(spec), bounds)
    return {r.name: r.failure_count for r in reports if r.failure_count}


def test_end_of_two_term_complex_is_the_builtin():
    # C = (v_1 in degree 0 -> v_2 in degree 1), bd = E_21, under
    # a = E_11, b = E_12, c = E_21, e = E_22
    spec = end_of_complex((0, 1), {(2, 1): 1})
    builtin_spec = builtin("end-two-term-complex")
    name = {"E11": "a", "E12": "b", "E21": "c", "E22": "e"}

    def renamed(table):
        return {
            tuple(map(name.get, ids)): {name[b]: c for b, c in out.items()}
            for ids, out in table.items()
        }

    assert sorted((name[i], deg) for i, deg in spec.basis) == sorted(builtin_spec.basis)
    assert {label: renamed(t) for label, t in spec.operations.items()} == builtin_spec.operations


@pytest.mark.parametrize("degrees, boundary", [
    ((0, 1, 2), {(2, 1): 1}),
    ((-1, 0, 0, 1), {(2, 1): 1, (4, 3): 1}),
])
def test_end_of_complex_passes_every_sweep(degrees, boundary, monkeypatch):
    # the same reports, witnesses included, serially and through a pool of
    # two in-process workers
    alg = validate_dga(end_of_complex(degrees, boundary))
    monkeypatch.setattr(multiprocessing, "get_context", InProcessContext())
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    runs = [check_dbv(alg, Bounds(2, 1, 1, jobs=jobs)) for jobs in (1, 2)]
    assert all(r.passed for r in runs[0])
    assert [r.to_json() for r in runs[0]] == [r.to_json() for r in runs[1]]


def test_boundary_that_does_not_square_to_zero_is_rejected():
    assert violated_rules(end_of_complex((0, 1, 2), {(2, 1): 1, (3, 2): 1})) == {"d_squared"}


def test_sign_flipped_product_fails_delta_squared():
    # E_12 E_21 = -E_11 breaks associativity (and with it the Leibniz rule);
    # the check itself catches it in delta o delta
    spec = end_of_complex((0, 1, 2), {(2, 1): 1})
    spec.operations["mu2"][("E12", "E21")] = {"E11": -1}
    assert violated_rules(spec) == {"associativity", "leibniz"}
    assert failing_sweeps(spec, Bounds(3, 1, 1))["delta_squared"] == 6


def test_sign_flipped_differential_fails_d_squared():
    # -d(E_11) breaks d^2 = 0 and the Leibniz rule; the check catches it in
    # d o d and in d o delta + delta o d
    spec = end_of_complex((0, 1, 2), {(2, 1): 1})
    d = spec.operations["d"]
    d[("E11",)] = {w: -c for w, c in d[("E11",)].items()}
    assert violated_rules(spec) == {"d_squared", "leibniz"}
    assert set(failing_sweeps(spec, Bounds(3, 1, 1))) == {"d_squared", "d_delta_anticommutator"}
