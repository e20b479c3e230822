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

import itertools
import json
import re
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence

from .graded import (
    BasisLetter,
    GradedSpace,
    InvalidInputError,
    Scalar,
    parse_scalar,
    render_scalar,
)
from .operators import (
    MultilinearMap,
    Operator,
    composite_sum,
    composition_relations,
    induced_morphism,
    lift_coderivation,
)
from .words import TElement, Word, capped, owned_table, render_telement, word_count

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


def default_arity(arities: Iterable[int], check: bool = False) -> int:
    """The max arity of an A-infinity validation, or check, given none: the
    highest of ``arities`` with a table, or 2 if none; at least 2 for a check."""
    top = max(arities, default=2)
    return max(top, 2) if check else top


class AlgebraSpec:
    """A plain, unvalidated description of a DG or A-infinity algebra."""

    def __init__(self, name: str, kind: str, basis: list[tuple[str, int]],
                 operations: dict[str, Table] | None = None):
        self.name = name
        self.kind = kind  # "dga" | "ainf"
        self.basis = basis
        self.operations = {} if operations is None else operations

    def __eq__(self, other):
        return type(other) is AlgebraSpec and vars(self) == vars(other)

    def space(self) -> GradedSpace:
        return GradedSpace(self.name, [BasisLetter(i, d) for i, d in self.basis])

    def top_arity(self, check: bool = False) -> int:
        """The ``default_arity`` of a validation, or check, of this algebra."""
        return default_arity(map(_label_arity, self.operations), check)

    def multilinear(self, label: str, space: GradedSpace | None = None) -> MultilinearMap:
        """The named table as a degree-checked multilinear map (absent = zero)."""
        k = _label_arity(label)
        return MultilinearMap(
            space or self.space(), k, 2 - k, self.operations.get(label, {})
        )


class MorphismSpec:
    """A degree-0 linear map between two named algebras."""

    def __init__(self, name: str, source: str, target: str, mapping: Table | None = None):
        self.name = name
        self.source = source
        self.target = target
        self.mapping = {} if mapping is None else mapping

    def __eq__(self, other):
        return type(other) is MorphismSpec and vars(self) == vars(other)


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


class Violation:
    """A relation of a validation that fails at one basis word: its rule,
    the word as its letter ids, and the relation's nonzero value there, an
    element of the space the relation's values live in."""

    def __init__(self, rule: str, inputs: tuple[str, ...], defect: TElement):
        self.rule = rule
        self.inputs = inputs
        self.defect = defect

    def __str__(self):
        return f"{self.rule} at ({', '.join(self.inputs)}): {render_telement(self.defect)} != 0"


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
        self._lifts = owned_table(self, lambda alg, k: lift_coderivation(
            alg.maps.get(k) or MultilinearMap(alg.space, k, 2 - k, {})))

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
        return self._lifts[k]


class DGMorphism:
    def __init__(self, source: DGAlgebra, target: DGAlgebra, fmap: MultilinearMap):
        self.source = source
        self.target = target
        self.fmap = fmap

    @classmethod
    def from_spec_unchecked(cls, spec: MorphismSpec) -> "DGMorphism":
        """Build between the builtin endpoints without validating either
        endpoint or the map; the caller asserts they are valid."""
        src, tgt = (DGAlgebra.from_spec_unchecked(_as_dga_spec(builtin(name)))
                    for name in (spec.source, spec.target))
        return cls(src, tgt, MultilinearMap(src.space, 1, 0, spec.mapping, target=tgt.space))


def check_relations(
    space: GradedSpace,
    relations: Sequence[tuple[str, Collection[int], Callable[[Word], dict[Word, Scalar]]]],
    target: GradedSpace | None = None,
) -> None:
    """Evaluate each (rule, word lengths, relation) of ``relations``, the
    relation a map from a basis word of ``space`` to the terms of its value
    (see ``operators.composite_sum``), on every basis word of each of the
    lengths.  Raise ``ValidationFailure`` with a ``Violation`` for each
    nonzero value, relation by relation, each relation's words in the order
    of ``words.words_up_to``; the values are elements of ``target``, by
    default ``space``.  Each word is made once, for every relation at its
    length, so no list of words is held.
    """
    intern = space._word_table.setdefault
    codes = space.encode(space.ids)
    found: list[list[Violation]] = [[] for _ in relations]
    for n in sorted({n for _, lengths, _ in relations for n in lengths}):
        active = [(rule, relation, out) for (rule, lengths, relation), out in zip(relations, found)
                  if n in lengths]
        for letters in itertools.product(codes, repeat=n):
            w = "".join(letters)
            w = intern(w, w)
            for rule, relation, out in active:
                terms = relation(w)
                if terms:
                    out.append(Violation(rule, space.decode(w),
                                         TElement._make(target or space, terms)))
    if any(found):
        raise ValidationFailure([v for out in found for v in out])


def validate_dga(spec: AlgebraSpec) -> DGAlgebra:
    """Check d^2 = 0, the Leibniz rule and associativity as relations of the
    lifts D of d and Delta of mu on words (``check_relations``): D o D on
    words of length 1, D o Delta + Delta o D on length 2 and Delta o Delta
    on length 3, the arity <= 2 A-infinity relations of (d, mu).

    Returns the validated algebra or raises ``ValidationFailure`` carrying
    every violation, each with the offending word and the relation's value.
    """
    if spec.kind != "dga":
        raise InvalidInputError(f"expected kind 'dga', got {spec.kind!r}")
    extra = set(spec.operations) - {"d", "mu2"}
    if extra:
        raise InvalidInputError(f"a dga only carries 'd' and 'mu2', got {sorted(extra)}")
    space = spec.space()
    alg = DGAlgebra(space, spec.multilinear("d", space), spec.multilinear("mu2", space))
    d, delta = alg.d_op, alg.delta_op
    check_relations(space, [
        ("d_squared", (1,), composite_sum([(1, d, d)])),
        ("leibniz", (2,), composite_sum([(1, d, delta), (1, delta, d)])),
        ("associativity", (3,), composite_sum([(1, delta, delta)])),
    ])
    return alg


def ainf_validation_cases(space: GradedSpace, K: int) -> int:
    """How many relation evaluations ``validate_ainf`` makes up to arity K:
    its 2K - 1 composition relations on every word of length <= K + 2,
    capped (see ``words.capped``)."""
    return capped((2 * K - 1) * word_count(space, K + 2))


def validate_ainf(spec: AlgebraSpec, K: int | None = None) -> AinfAlgebra:
    """Lift each structure map and check the composition relations.

    For every total degree n, the sum of the composites of two lifts with
    degrees adding to n must vanish; this is checked on all words up to
    length K+2 (``check_relations``).  Degree-inconsistent tables are
    rejected before any relation is evaluated.
    """
    if spec.kind != "ainf":
        raise InvalidInputError(f"expected kind 'ainf', got {spec.kind!r}")
    space = spec.space()
    if K is None:
        K = spec.top_arity()
    if K < 1:
        raise InvalidInputError("max arity must be >= 1")
    if any(_label_arity(label) > K for label in spec.operations):
        raise InvalidInputError(f"table of arity > K={K} present")
    maps = {
        k: spec.multilinear(_label_for_arity(k), space)
        for k in range(1, K + 1)
    }
    alg = AinfAlgebra(space, maps)
    relations = composition_relations([alg.delta_op(k) for k in maps])
    check_relations(space, [(f"sum_relation_n_{n}", range(K + 3), relation)
                            for n, relation in relations])
    return alg


def validate_morphism(spec: MorphismSpec) -> DGMorphism:
    """Check that a degree-0 map f commutes with d and mu, as relations of
    its induced map F on words (``check_relations``): F o D - D' o F on
    words of length 1 and F o Delta - Delta' o F on length 2, with values
    in the target.

    Both endpoints name builtin algebras, and both are validated.
    """
    src = validate_dga(_as_dga_spec(builtin(spec.source)))
    tgt = validate_dga(_as_dga_spec(builtin(spec.target)))
    fmap = MultilinearMap(src.space, 1, 0, spec.mapping, target=tgt.space)
    F = induced_morphism(fmap)
    check_relations(src.space, [
        ("commutes_with_d", (1,), composite_sum([(1, F, src.d_op), (-1, tgt.d_op, F)])),
        ("multiplicative", (2,), composite_sum([(1, F, src.delta_op), (-1, tgt.delta_op, F)])),
    ], target=tgt.space)
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
    table: Table = {
        (f"e{i}{j}", f"e{j}{l}"): _one(f"e{i}{l}") for i, j, l in itertools.product("12", repeat=3)
    }
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
