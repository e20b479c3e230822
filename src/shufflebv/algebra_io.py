"""Parse, validate, and generate algebra and morphism descriptions.

File format (JSON, strict): a mandatory ``"format": 1`` field, a ``kind``
of ``"dga"``, ``"ainf"`` or ``"morphism"``, a basis of (id, degree) pairs,
and structure-constant tables keyed by arity label ("d", "mu2", "mu3",
...).  Coefficients are strings "p" or "p/q" in base 10; floats are never
accepted.  Unknown top-level keys are rejected.

The arity-k operation has intrinsic degree 2-k (so "d" has degree +1 and
"mu2" degree 0); its lift then has operator degree 3-2k.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping

from .graded import (
    AElement,
    BasisLetter,
    GradedSpace,
    InvalidInputError,
    Scalar,
    parse_scalar,
    render_scalar,
)
from .operators import MultilinearMap, Operator, composition_relations, lift_coderivation
from .words import TElement, render_telement, words_up_to

Table = dict[tuple[str, ...], dict[str, Scalar]]

_MU_LABEL = re.compile(r"^mu([2-9]|[1-9][0-9])$")


def _label_arity(label: str) -> int:
    if label == "d":
        return 1
    m = _MU_LABEL.match(label)
    if not m:
        raise InvalidInputError(f"unknown operation label {label!r}")
    return int(m.group(1))


def _label_for_arity(k: int) -> str:
    return "d" if k == 1 else f"mu{k}"


@dataclass
class AlgebraSpec:
    """A plain, unvalidated description of a DG or A-infinity algebra."""

    name: str
    kind: str  # "dga" | "ainf"
    basis: list[tuple[str, int]]
    operations: dict[str, Table] = field(default_factory=dict)

    def space(self) -> GradedSpace:
        return GradedSpace(self.name, [BasisLetter(i, d) for i, d in self.basis])

    def multilinear(self, label: str, space: GradedSpace | None = None) -> MultilinearMap:
        """The named table as a degree-checked multilinear map (absent = zero)."""
        k = _label_arity(label)
        return MultilinearMap(
            space or self.space(), k, 2 - k, self.operations.get(label, {})
        )


@dataclass
class MorphismSpec:
    """A degree-0 linear map between two named algebras."""

    name: str
    source: str
    target: str
    mapping: Table = field(default_factory=dict)


# --------------------------------------------------------------------------
# strict JSON (de)serialization
# --------------------------------------------------------------------------


def _parse_table(raw, label: str, arity: int) -> Table:
    if not isinstance(raw, list):
        raise InvalidInputError(f"operation {label!r} must be a list of entries")
    table: Table = {}
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"inputs", "output"}:
            raise InvalidInputError(
                f"operation {label!r}: each entry needs exactly "
                f"'inputs' and 'output'"
            )
        inputs = entry["inputs"]
        if (
            not isinstance(inputs, list)
            or len(inputs) != arity
            or not all(isinstance(a, str) for a in inputs)
        ):
            raise InvalidInputError(
                f"operation {label!r}: 'inputs' must be {arity} letter ids"
            )
        key = tuple(inputs)
        if key in table:
            raise InvalidInputError(f"operation {label!r}: duplicate entry {key}")
        if not isinstance(entry["output"], list):
            raise InvalidInputError(
                f"operation {label!r}: 'output' must be a list of "
                f"[id, coefficient-string] pairs, got {entry['output']!r}"
            )
        out: dict[str, Scalar] = {}
        for pair in entry["output"]:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not isinstance(pair[1], str)
            ):
                raise InvalidInputError(
                    f"operation {label!r}: outputs are [id, coefficient-string] "
                    f"pairs, got {pair!r}"
                )
            b, c = pair
            if b in out:
                raise InvalidInputError(f"operation {label!r}: duplicate output {b!r}")
            out[b] = parse_scalar(c)
        table[key] = out
    return table


def _parse_basis(raw) -> list[tuple[str, int]]:
    if not isinstance(raw, list) or not raw:
        raise InvalidInputError("'basis' must be a nonempty list")
    basis = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], int)
            or isinstance(item[1], bool)
        ):
            raise InvalidInputError(f"basis entries are [id, integer-degree]: {item!r}")
        # the CLI reads a word as letter ids split at commas and stripped
        if not item[0] or "," in item[0] or item[0] != item[0].strip():
            raise InvalidInputError(
                f"letter id {item[0]!r} cannot be written in a word: it must be "
                "nonempty, without commas or surrounding whitespace"
            )
        basis.append((item[0], item[1]))
    return basis


def parse_algebra(data: Mapping) -> AlgebraSpec:
    allowed = {"format", "kind", "name", "basis", "operations"}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidInputError(f"unknown top-level keys {sorted(unknown)}")
    if data.get("format") != 1:
        raise InvalidInputError("missing or unsupported 'format' (must be 1)")
    kind = data.get("kind")
    if kind not in ("dga", "ainf"):
        raise InvalidInputError(f"kind must be 'dga' or 'ainf', got {kind!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidInputError("'name' must be a nonempty string")
    basis = _parse_basis(data.get("basis"))
    raw_ops = data.get("operations", {})
    if not isinstance(raw_ops, dict):
        raise InvalidInputError("'operations' must be an object")
    operations: dict[str, Table] = {}
    for label, raw in raw_ops.items():
        arity = _label_arity(label)
        if kind == "dga" and label not in ("d", "mu2"):
            raise InvalidInputError(f"a dga only carries 'd' and 'mu2', got {label!r}")
        operations[label] = _parse_table(raw, label, arity)
    return AlgebraSpec(name=name, kind=kind, basis=basis, operations=operations)


def parse_morphism(data: Mapping) -> MorphismSpec:
    allowed = {"format", "kind", "name", "source", "target", "map"}
    unknown = set(data) - allowed
    if unknown:
        raise InvalidInputError(f"unknown top-level keys {sorted(unknown)}")
    if data.get("format") != 1:
        raise InvalidInputError("missing or unsupported 'format' (must be 1)")
    if data.get("kind") != "morphism":
        raise InvalidInputError("kind must be 'morphism'")
    name = data.get("name")
    source, target = data.get("source"), data.get("target")
    if not all(isinstance(x, str) and x for x in (name, source, target)):
        raise InvalidInputError("'name', 'source', 'target' must be nonempty strings")
    mapping = _parse_table(data.get("map", []), "map", 1)
    return MorphismSpec(name=name, source=source, target=target, mapping=mapping)


def parse_document(data: Mapping) -> AlgebraSpec | MorphismSpec:
    if not isinstance(data, Mapping):
        raise InvalidInputError("document must be a JSON object")
    if data.get("kind") == "morphism":
        return parse_morphism(data)
    return parse_algebra(data)


def load_document(path: str) -> AlgebraSpec | MorphismSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text ({exc})") from None
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None
    return parse_document(data)


def _render_table(table: Table) -> list:
    return [
        {
            "inputs": list(ids),
            "output": [[b, render_scalar(c)] for b, c in sorted(out.items())],
        }
        for ids, out in sorted(table.items())
    ]


def render_algebra(spec: AlgebraSpec) -> dict:
    return {
        "format": 1,
        "kind": spec.kind,
        "name": spec.name,
        "basis": [[i, d] for i, d in spec.basis],
        "operations": {
            label: _render_table(spec.operations[label])
            for label in sorted(spec.operations)
        },
    }


def render_morphism(spec: MorphismSpec) -> dict:
    return {
        "format": 1,
        "kind": "morphism",
        "name": spec.name,
        "source": spec.source,
        "target": spec.target,
        "map": _render_table(spec.mapping),
    }


def render_document(spec: AlgebraSpec | MorphismSpec) -> dict:
    if isinstance(spec, MorphismSpec):
        return render_morphism(spec)
    return render_algebra(spec)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


@dataclass
class Violation:
    rule: str
    inputs: tuple
    lhs: object
    rhs: object

    def __str__(self):
        def show(x):
            if isinstance(x, AElement):
                return repr(x)
            if isinstance(x, TElement):
                return render_telement(x)
            return str(x)

        ins = ", ".join(str(i) for i in self.inputs)
        return f"{self.rule} at ({ins}): {show(self.lhs)} != {show(self.rhs)}"


class ValidationFailure(Exception):
    """Raised with the complete list of violations found."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        preview = "; ".join(str(v) for v in violations[:3])
        more = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
        super().__init__(f"{len(violations)} violation(s): {preview}{more}")


class DGAlgebra:
    """A differential graded algebra with cached coderivation lifts.

    Construction does not validate; use ``validate_dga`` to build one from
    an untrusted description.
    """

    def __init__(self, space: GradedSpace, d: MultilinearMap, mu: MultilinearMap):
        self.space = space
        self.d = d
        self.mu = mu
        self.d_op: Operator = lift_coderivation(d)
        self.delta_op: Operator = lift_coderivation(mu)

    @classmethod
    def from_spec_unchecked(cls, spec: AlgebraSpec) -> "DGAlgebra":
        """Build without validating; the caller asserts the identities hold."""
        space = spec.space()
        return cls(space, spec.multilinear("d", space), spec.multilinear("mu2", space))


class AinfAlgebra:
    """An A-infinity algebra: one structure map per arity (absent = zero)."""

    def __init__(self, space: GradedSpace, maps: dict[int, MultilinearMap]):
        self.space = space
        self.maps = dict(maps)
        self._lifts: dict[int, Operator] = {}

    @classmethod
    def from_spec_unchecked(cls, spec: AlgebraSpec) -> "AinfAlgebra":
        """Build without validating; the caller asserts the relations hold."""
        space = spec.space()
        maps = {
            _label_arity(label): spec.multilinear(label, space)
            for label in spec.operations
        }
        return cls(space, maps)

    def delta_op(self, k: int) -> Operator:
        op = self._lifts.get(k)
        if op is None:
            c = self.maps.get(k) or MultilinearMap(self.space, k, 2 - k, {})
            op = lift_coderivation(c)
            self._lifts[k] = op
        return op


class DGMorphism:
    def __init__(self, source: DGAlgebra, target: DGAlgebra, fmap: MultilinearMap):
        self.source = source
        self.target = target
        self.fmap = fmap


def validate_dga(spec: AlgebraSpec) -> DGAlgebra:
    """Check d^2 = 0, the Leibniz rule, and associativity on all basis tuples.

    Returns the validated algebra or raises ``ValidationFailure`` carrying
    every violation, each with the offending tuple and both sides.
    """
    if spec.kind != "dga":
        raise InvalidInputError(f"expected kind 'dga', got {spec.kind!r}")
    extra = set(spec.operations) - {"d", "mu2"}
    if extra:
        raise InvalidInputError(f"a dga only carries 'd' and 'mu2', got {sorted(extra)}")
    space = spec.space()
    d = spec.multilinear("d", space)
    mu = spec.multilinear("mu2", space)
    violations: list[Violation] = []
    letters = space.ids

    for a in letters:
        lhs = d.apply(d.apply_ids((a,)))
        if lhs:
            violations.append(Violation("d_squared", (a,), lhs, AElement.zero(space)))
    for a in letters:
        sa = -1 if space.degree(a) & 1 else 1
        for b in letters:
            lhs = d.apply(mu.apply_ids((a, b)))
            rhs = mu.apply(d.apply_ids((a,)), AElement.letter(space, b)) + sa * mu.apply(
                AElement.letter(space, a), d.apply_ids((b,))
            )
            if lhs != rhs:
                violations.append(Violation("leibniz", (a, b), lhs, rhs))
    for a in letters:
        ea = AElement.letter(space, a)
        for b in letters:
            eb = AElement.letter(space, b)
            for c in letters:
                ec = AElement.letter(space, c)
                lhs = mu.apply(mu.apply(ea, eb), ec)
                rhs = mu.apply(ea, mu.apply(eb, ec))
                if lhs != rhs:
                    violations.append(Violation("associativity", (a, b, c), lhs, rhs))
    if violations:
        raise ValidationFailure(violations)
    return DGAlgebra(space, d, mu)


def validate_ainf(spec: AlgebraSpec, K: int | None = None) -> AinfAlgebra:
    """Lift each structure map and check the composition relations.

    For every total degree n, the sum of the composites of two lifts with
    degrees adding to n must vanish; this is checked on all words up to
    length K+2.  Degree-inconsistent tables are rejected before any
    relation is evaluated.
    """
    if spec.kind != "ainf":
        raise InvalidInputError(f"expected kind 'ainf', got {spec.kind!r}")
    space = spec.space()
    arities = sorted(_label_arity(label) for label in spec.operations)
    if K is None:
        K = max(arities, default=2)
    if K < 1:
        raise InvalidInputError("max arity must be >= 1")
    if any(k > K for k in arities):
        raise InvalidInputError(f"table of arity > K={K} present")
    maps = {
        k: spec.multilinear(_label_for_arity(k), space)
        for k in range(1, K + 1)
    }
    alg = AinfAlgebra(space, maps)
    words = words_up_to(space, K + 2)
    violations: list[Violation] = []
    for n, relation in composition_relations([alg.delta_op(k) for k in maps]):
        for w in words:
            terms = relation(w)
            if terms:
                violations.append(Violation(
                    f"sum_relation_n_{n}", (space.decode(w),), TElement._make(space, terms),
                    TElement.zero(space),
                ))
    if violations:
        raise ValidationFailure(violations)
    return alg


def validate_morphism(
    spec: MorphismSpec,
    resolve=None,
) -> DGMorphism:
    """Check that a degree-0 map commutes with d and mu on all basis inputs.

    ``resolve`` maps an algebra name to its AlgebraSpec; the builtin
    gallery is used by default.  Both endpoint algebras are validated.
    """
    resolve = resolve or builtin
    src = validate_dga(_as_dga_spec(resolve(spec.source)))
    tgt = validate_dga(_as_dga_spec(resolve(spec.target)))
    fmap = MultilinearMap(src.space, 1, 0, spec.mapping, target=tgt.space)
    violations: list[Violation] = []
    for a in src.space.ids:
        lhs = fmap.apply(src.d.apply_ids((a,)))
        rhs = tgt.d.apply(fmap.apply_ids((a,)))
        if lhs != rhs:
            violations.append(Violation("commutes_with_d", (a,), lhs, rhs))
    for a in src.space.ids:
        fa = fmap.apply_ids((a,))
        for b in src.space.ids:
            lhs = fmap.apply(src.mu.apply_ids((a, b)))
            rhs = tgt.mu.apply(fa, fmap.apply_ids((b,)))
            if lhs != rhs:
                violations.append(Violation("multiplicative", (a, b), lhs, rhs))
    if violations:
        raise ValidationFailure(violations)
    return DGMorphism(src, tgt, fmap)


def _as_dga_spec(spec) -> AlgebraSpec:
    if isinstance(spec, AlgebraSpec) and spec.kind == "dga":
        return spec
    raise InvalidInputError("morphism endpoints must be dga specs")


# --------------------------------------------------------------------------
# builtin gallery
# --------------------------------------------------------------------------


def _one(b: str) -> dict[str, Scalar]:
    return {b: 1}


def _dual_numbers(name: str, eps_degree: int) -> AlgebraSpec:
    return AlgebraSpec(
        name=name,
        kind="dga",
        basis=[("one", 0), ("eps", eps_degree)],
        operations={
            "mu2": {
                ("one", "one"): _one("one"),
                ("one", "eps"): _one("eps"),
                ("eps", "one"): _one("eps"),
            }
        },
    )


def _upper_triangular_2() -> AlgebraSpec:
    return AlgebraSpec(
        name="upper-triangular-2",
        kind="dga",
        basis=[("e11", 0), ("e12", 0), ("e22", 0)],
        operations={
            "mu2": {
                ("e11", "e11"): _one("e11"),
                ("e11", "e12"): _one("e12"),
                ("e12", "e22"): _one("e12"),
                ("e22", "e22"): _one("e22"),
            }
        },
    )


def _full_matrix_2() -> AlgebraSpec:
    units = ("e11", "e12", "e21", "e22")
    table: Table = {}
    for i in "12":
        for j in "12":
            for k in "12":
                for l in "12":
                    if j == k:
                        table[(f"e{i}{j}", f"e{k}{l}")] = _one(f"e{i}{l}")
    return AlgebraSpec(
        name="full-matrix-2",
        kind="dga",
        basis=[(u, 0) for u in units],
        operations={"mu2": table},
    )


def _diagonal_2() -> AlgebraSpec:
    return AlgebraSpec(
        name="diagonal-2",
        kind="dga",
        basis=[("d11", 0), ("d22", 0)],
        operations={
            "mu2": {("d11", "d11"): _one("d11"), ("d22", "d22"): _one("d22")}
        },
    )


def _end_two_term_complex() -> AlgebraSpec:
    # endomorphisms of the complex k -> k: a, e the two projections,
    # c the degree +1 map, b the degree -1 map; d(f) is the commutator
    # with the degree +1 map c.
    return AlgebraSpec(
        name="end-two-term-complex",
        kind="dga",
        basis=[("a", 0), ("b", -1), ("c", 1), ("e", 0)],
        operations={
            "d": {
                ("a",): _one("c"),
                ("b",): {"a": 1, "e": 1},
                ("e",): {"c": -1},
            },
            "mu2": {
                ("a", "a"): _one("a"),
                ("a", "b"): _one("b"),
                ("b", "c"): _one("a"),
                ("b", "e"): _one("b"),
                ("c", "a"): _one("c"),
                ("c", "b"): _one("e"),
                ("e", "c"): _one("c"),
                ("e", "e"): _one("e"),
            },
        },
    )


def _ainf_mu3() -> AlgebraSpec:
    # found by exhaustive search over structure constants in {-1, 0, 1} on
    # the degree pattern (1, 2, 3); see tests/test_algebra_io.py, which
    # re-runs the search and confirms this instance.
    return AlgebraSpec(
        name="ainf-mu3",
        kind="ainf",
        basis=[("p", 1), ("q", 2), ("r", 3)],
        operations={
            "mu2": {("p", "p"): _one("q")},
            "mu3": {("p", "p", "p"): _one("q")},
        },
    )


def _diag_into_upper_triangular() -> MorphismSpec:
    return MorphismSpec(
        name="diag-into-upper-triangular",
        source="diagonal-2",
        target="upper-triangular-2",
        mapping={("d11",): _one("e11"), ("d22",): _one("e22")},
    )


_BUILTINS = {
    "dual-numbers": lambda: _dual_numbers("dual-numbers", 0),
    "dual-numbers-odd": lambda: _dual_numbers("dual-numbers-odd", 1),
    "upper-triangular-2": _upper_triangular_2,
    "full-matrix-2": _full_matrix_2,
    "diagonal-2": _diagonal_2,
    "end-two-term-complex": _end_two_term_complex,
    "ainf-mu3": _ainf_mu3,
    "diag-into-upper-triangular": _diag_into_upper_triangular,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> AlgebraSpec | MorphismSpec:
    """One of the built-in example algebras or morphisms, by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown fixture {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return factory()
