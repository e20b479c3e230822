"""What a process imports to start, and the plain record classes that keep
that small.

The package imports neither ``dataclasses`` nor ``typing``, and imports
``fractions`` only for a scalar that is not an int, so a check of an
integer-only algebra loads none of them.  The records are namedtuples or
classes with an ``__init__``; they must still pickle, compare and refuse
bad values as they did.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import shufflebv
from shufflebv.algebra_io import AlgebraSpec, MorphismSpec, Violation, builtin, render_document
from shufflebv.bv import AxiomReport, Bounds, Failure
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError
from shufflebv.words import TElement

# modules that no import of the package, and no check of an integer-only
# algebra, may load: dataclasses pulls in inspect (and ast, dis, tokenize),
# and fractions pulls in decimal
GUARDED = ("dataclasses", "inspect", "typing", "fractions", "decimal")

# Run in a child started with ``python -S``: this process already holds every
# guarded module (pytest imports them).  Prints one line per step: its name
# and exit code, then the guarded modules loaded so far.
CHILD = """
import io, sys
from contextlib import redirect_stdout

guarded = sys.argv[1].split(",")
loaded = lambda: [m for m in guarded if m in sys.modules]
from shufflebv import cli
print("import", 0, *loaded())
for line in sys.argv[2:]:
    argv = line.split()
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    print(argv[0], code, *loaded())
    if argv[0] == "eval":
        print("eval-output", out.getvalue().strip())
"""

SMALL = "--max-len 2 --pair-len 1 --triple-len 1"


def half_idempotent() -> AlgebraSpec:
    """A valid dga whose products have the coefficient 1/2."""
    half = Fraction(1, 2)
    return AlgebraSpec(
        name="half-idempotent",
        kind="dga",
        basis=[("u", 0), ("n", 0)],
        operations={"mu2": {("u", "u"): {"u": half}, ("u", "n"): {"n": half}, ("n", "u"): {"n": half}}},
    )


def run_child(tmp_path, *lines):
    """[(step, exit code, guarded modules loaded)] of CHILD on ``lines``, and
    the output of its eval steps."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, ",".join(GUARDED), *lines],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps, evals = [], []
    for out in proc.stdout.splitlines():
        step, rest = out.split(" ", 1)
        if step == "eval-output":
            evals.append(rest)
        else:
            code, *modules = rest.split()
            steps.append((step, int(code), modules))
    return steps, evals


def write(tmp_path, spec) -> str:
    path = tmp_path / f"{spec.name}.json"
    path.write_text(json.dumps(render_document(spec)))
    return str(path)


def test_integer_checks_load_no_guarded_module(tmp_path):
    # the import, and a check of each kind of input: a dga, an A-infinity
    # algebra and a morphism, all with integer structure constants
    paths = [write(tmp_path, builtin(name))
             for name in ("end-two-term-complex", "ainf-mu3", "diag-into-upper-triangular")]
    steps, _ = run_child(tmp_path, *(f"check {path} {SMALL}" for path in paths))
    assert steps == [("import", 0, [])] + [("check", 0, [])] * 3


def test_fractional_constants_load_fractions_on_demand(tmp_path):
    # half-idempotent still validates and checks, exactly: its scalars are
    # parsed as Fractions, which loads fractions (and decimal) then, not before
    integral, path = write(tmp_path, builtin("dual-numbers")), write(tmp_path, half_idempotent())
    steps, evals = run_child(
        tmp_path, f"check {integral} {SMALL}", f"validate {path}",
        f"check {path} {SMALL}", f"eval {path} --op delta --x u,u",
    )
    assert steps == [
        ("import", 0, []),
        ("check", 0, []),
        ("validate", 0, ["fractions", "decimal"]),
        ("check", 0, ["fractions", "decimal"]),
        ("eval", 0, ["fractions", "decimal"]),
    ]
    assert evals == ["1/2 u"]


# -- the records -----------------------------------------------------------------


def roundtrip(obj):
    """``obj`` pickled and unpickled at once: a record that cannot be
    unpickled fails here, not inside a pool worker, where it would hang."""
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


@pytest.fixture
def space():
    return GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 1)])


def test_basis_letter_compares_hashes_and_pickles_as_a_value(space):
    a = BasisLetter("a", 0)
    assert a == BasisLetter("a", 0) and a != BasisLetter("a", 1) and a != BasisLetter("b", 0)
    assert hash(a) == hash(BasisLetter("a", 0)) == hash(("a", 0))
    assert (a.id, a.degree) == ("a", 0)
    assert repr(a) == "BasisLetter(id='a', degree=0)"
    again = roundtrip(a)
    assert type(again) is BasisLetter and again == a
    # GradedSpace hashes its name and letters: an equal space hashes equally
    twin = GradedSpace("s", [BasisLetter("a", 0), BasisLetter("b", 1)])
    assert twin == space and hash(twin) == hash(space)
    assert roundtrip(space) == space and hash(roundtrip(space)) == hash(space)


def test_records_are_immutable_where_they_were_frozen():
    for record, field in ((BasisLetter("a", 0), "degree"), (Bounds(), "jobs")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_bounds_by_keyword_and_by_position():
    assert Bounds() == Bounds(5, 3, 2, 2, 10, 1)
    assert Bounds(4, 2, 1) == Bounds(unary=4, binary=2, ternary=1)
    assert Bounds(4, 2, jobs=3).jobs == 3
    b = Bounds(unary=4, order_slack=1, fail_cap=7)
    assert (b.unary, b.binary, b.ternary, b.order_slack, b.fail_cap, b.jobs) == (4, 3, 2, 1, 7, 1)
    assert repr(Bounds()) == (
        "Bounds(unary=5, binary=3, ternary=2, order_slack=2, fail_cap=10, jobs=1)"
    )
    again = roundtrip(b)
    assert type(again) is Bounds and again == b
    for bad in (dict(unary=-1), dict(ternary=-1), dict(order_slack=-1), dict(fail_cap=0), dict(jobs=0)):
        with pytest.raises(InvalidInputError):
            Bounds(**bad)
    with pytest.raises(InvalidInputError):
        Bounds(3, -1)
    with pytest.raises(TypeError):
        Bounds(nope=1)


def test_reports_pickle_with_their_failures(space):
    defect = TElement(space, {("a", "b"): Fraction(1, 2), ("b",): -3})
    again = roundtrip(defect)
    assert again == defect and again.space == space
    failure = Failure((("a",), ("a", "b")), defect)
    assert roundtrip(failure).to_json() == failure.to_json()
    report = AxiomReport("bracket_leibniz", "triples <= 2", 27, [failure, failure], failure_count=5)
    again = roundtrip(report)
    assert again.to_json() == report.to_json() and repr(again) == repr(report)
    assert not again.passed and again.failure_count == 5
    fresh = AxiomReport("d_squared", "words <= 1", 3)
    assert fresh.passed and fresh.failures == [] and fresh.failures is not AxiomReport("x", "", 0).failures


def test_violation_pickles_and_renders(space):
    v = Violation("leibniz", ("a", "b"), TElement(space, {("a",): -2, ("a", "b"): Fraction(1, 2)}))
    again = roundtrip(v)
    assert str(again) == str(v) == "leibniz at (a, b): -2 a + 1/2 a(x)b != 0"
    assert again.defect == v.defect
    assert (again.rule, again.inputs) == ("leibniz", ("a", "b"))


def test_specs_compare_by_their_fields():
    assert builtin("end-two-term-complex") == builtin("end-two-term-complex")
    assert builtin("dual-numbers") != builtin("dual-numbers-odd")
    spec = half_idempotent()
    assert spec == half_idempotent()
    assert spec != AlgebraSpec(spec.name, spec.kind, spec.basis)  # no operations
    assert AlgebraSpec("x", "dga", [("a", 0)]).operations == {}
    assert spec != "half-idempotent" and spec != MorphismSpec("half-idempotent", "a", "b")
    morph = builtin("diag-into-upper-triangular")
    assert morph == builtin("diag-into-upper-triangular")
    assert morph != MorphismSpec(morph.name, morph.source, morph.target)
    assert roundtrip(spec) == spec and roundtrip(morph) == morph
