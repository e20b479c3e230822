"""Structure maps on the base space and their coderivation lifts.

Lift convention.  An arity-k map c of intrinsic degree g0 (output degree =
sum of input degrees + g0) lifts to the operator

    D(a_1 (x) ... (x) a_n)
        = sum_i (-1)^(g*(s_1+...+s_(i-1))) a_1 (x) ... (x) cbar(a_i,...,a_(i+k-1)) (x) ... (x) a_n

of degree g = g0 + 1 - k on words, where s_j = |a_j| + 1 and the twisted
component is

    cbar(a_1, ..., a_k) = (-1)^(sum_j (k-j)|a_j|) c(a_1, ..., a_k).

For k = 1 the twist is trivial and for k = 2 it is (-1)^|a_1|, so the lifts
of a differential and of a product come out as

    D(a (x) b) = da (x) b + (-1)^(|a|+1) a (x) db,
    D(a (x) b) = (-1)^|a| m(a, b);

for k >= 3 the twist has no extra k-dependent constant (the relation
checker in algebra_io pins the convention; see the README).
"""

from __future__ import annotations

from typing import Mapping

from .graded import (
    AElement,
    GradedSpace,
    InvalidInputError,
    Scalar,
    normalize_scalar,
)
from .kernel import merge_scaled
from .words import TElement, Word, deconcatenations, word_parity


class MultilinearMap:
    """A map A^(x)k -> B given by structure constants on basis tuples.

    Absent tuples mean zero.  Every stored output must be homogeneous of
    degree (sum of input degrees) + degree.
    """

    def __init__(
        self,
        space: GradedSpace,
        arity: int,
        degree: int,
        table: Mapping[tuple, Mapping[str, Scalar] | AElement],
        target: GradedSpace | None = None,
    ):
        if arity < 1:
            raise InvalidInputError(f"arity must be >= 1, got {arity}")
        target = target or space
        clean: dict[tuple[str, ...], dict[str, Scalar]] = {}
        for ids, out in table.items():
            ids = tuple(ids)
            if len(ids) != arity:
                raise InvalidInputError(f"table key {ids} has length != {arity}")
            in_deg = sum(space.degree(a) for a in ids)
            out_terms = out.terms if isinstance(out, AElement) else out
            entry: dict[str, Scalar] = {}
            for b, c in out_terms.items():
                c = normalize_scalar(c)
                if not c:
                    continue
                if target.degree(b) != in_deg + degree:
                    raise InvalidInputError(
                        f"entry {ids} -> {b}: degree {target.degree(b)} != "
                        f"{in_deg} + {degree}"
                    )
                entry[b] = c
            if entry:
                clean[ids] = entry
        self.space = space
        self.target = target
        self.arity = arity
        self.degree = degree
        self.table = clean

    def is_zero(self) -> bool:
        return not self.table

    def apply_ids(self, ids: tuple[str, ...]) -> AElement:
        return AElement(self.target, self.table.get(tuple(ids), {}))

    def apply(self, *args: AElement) -> AElement:
        """Multilinear extension to general elements."""
        if len(args) != self.arity:
            raise InvalidInputError(
                f"expected {self.arity} arguments, got {len(args)}"
            )
        acc: dict[str, Scalar] = {}
        stack = [((), 1)]
        for x in args:
            stack = [
                (ids + (a,), c * ca)
                for ids, c in stack
                for a, ca in x.terms.items()
            ]
        for ids, c in stack:
            for b, cb in self.table.get(ids, {}).items():
                acc[b] = acc.get(b, 0) + c * cb
        return AElement(self.target, acc)

    def __repr__(self):
        return (
            f"MultilinearMap(arity={self.arity}, degree={self.degree}, "
            f"{len(self.table)} entries)"
        )


class Operator:
    """A degree-homogeneous endomorphism of the word space, given by a rule.

    Subclasses implement ``_apply_word``; results are memoised per word and
    must be treated as immutable by callers.  ``_defects`` is the memo of
    defect expressions on word tuples that ``bv`` keeps for this operator.
    """

    def __init__(self, space: GradedSpace, degree: int):
        self.space = space
        self.degree = degree
        self._cache: dict[Word, dict[Word, Scalar]] = {}
        self._defects: dict[tuple[Word, ...], dict[Word, Scalar]] = {}

    def apply_word(self, w: Word) -> dict[Word, Scalar]:
        w = tuple(w)
        hit = self._cache.get(w)
        if hit is None:
            hit = self._apply_word(w)
            self._cache[w] = hit
        return hit

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        raise NotImplementedError

    def __call__(self, x: TElement | Word) -> TElement:
        if not isinstance(x, TElement):
            return TElement._make(self.space, self.apply_word(x))
        acc: dict[Word, Scalar] = {}
        for w, c in x.terms.items():
            merge_scaled(acc, self.apply_word(w), c)
        return TElement._make(x.space, acc)

    def is_zero_operator(self) -> bool:
        return False

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}
        state["_defects"] = {}
        return state


class ZeroOperator(Operator):
    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        return {}

    def is_zero_operator(self) -> bool:
        return True


class IdentityOperator(Operator):
    def __init__(self, space: GradedSpace):
        super().__init__(space, 0)

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        return {w: 1}


class LiftedCoderivation(Operator):
    """The coderivation lift of a multilinear map (see module docstring)."""

    def __init__(self, c: MultilinearMap):
        if c.target != c.space:
            raise InvalidInputError("only endomorphism-valued maps lift")
        super().__init__(c.space, c.degree + 1 - c.arity)
        self.component = c
        self._gpar = self.degree & 1
        # letters j (0-based) with odd weight k-1-j contribute to the twist
        self._twist_slots = tuple(
            j for j in range(c.arity) if (c.arity - 1 - j) & 1
        )

    def is_zero_operator(self) -> bool:
        return self.component.is_zero()

    def _twist_parity(self, block: tuple[str, ...]) -> int:
        deg = self.space.degree
        p = 0
        for j in self._twist_slots:
            p ^= deg(block[j]) & 1
        return p

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        k = self.component.arity
        n = len(w)
        out: dict[Word, Scalar] = {}
        if n < k:
            return out
        table = self.component.table
        sparity = self.space.shifted_parity
        prefix_par = 0
        for i in range(n - k + 1):
            if i:
                prefix_par ^= sparity(w[i - 1])
            block = w[i : i + k]
            entry = table.get(block)
            if entry:
                sign = -1 if ((self._gpar and prefix_par) ^ self._twist_parity(block)) else 1
                head, tail = w[:i], w[i + k :]
                for b, c in entry.items():
                    w2 = head + (b,) + tail
                    val = out.get(w2, 0) + sign * c
                    if val:
                        out[w2] = val
                    elif w2 in out:
                        del out[w2]
        return out


def lift_coderivation(c: MultilinearMap) -> Operator:
    return LiftedCoderivation(c)


class ComposedOperator(Operator):
    """(P o Q)(w) = P(Q(w)); degrees add.

    Results are not memoised: P and Q cache their own, and the axiom sweeps
    apply a composite once per word.
    """

    def __init__(self, P: Operator, Q: Operator):
        if P.space != Q.space:
            raise InvalidInputError("operators act on different spaces")
        super().__init__(P.space, P.degree + Q.degree)
        self.outer = P
        self.inner = Q

    def apply_word(self, w: Word) -> dict[Word, Scalar]:
        acc: dict[Word, Scalar] = {}
        for w1, c1 in self.inner.apply_word(w).items():
            merge_scaled(acc, self.outer.apply_word(w1), c1)
        return acc


class OperatorSum(Operator):
    """A finite linear combination of operators of one common degree.

    Not memoised, for the same reason as ``ComposedOperator``.
    """

    def __init__(self, parts: list[tuple[Scalar, Operator]]):
        if not parts:
            raise InvalidInputError("empty operator sum")
        degrees = {op.degree for _, op in parts}
        spaces = {op.space for _, op in parts}
        if len(spaces) > 1:
            raise InvalidInputError("operators act on different spaces")
        if len(degrees) > 1:
            raise InvalidInputError(
                f"summands must share a degree, got {sorted(degrees)}"
            )
        _, first = parts[0]
        super().__init__(first.space, first.degree)
        self.parts = [(normalize_scalar(c), op) for c, op in parts]

    def apply_word(self, w: Word) -> dict[Word, Scalar]:
        acc: dict[Word, Scalar] = {}
        for c, op in self.parts:
            if c:
                merge_scaled(acc, op.apply_word(w), c)
        return acc


def compose(P: Operator, Q: Operator) -> Operator:
    return ComposedOperator(P, Q)


def graded_anticommutator(P: Operator, Q: Operator) -> Operator:
    """P o Q + Q o P (the graded commutator for odd-degree operators)."""
    return OperatorSum([(1, ComposedOperator(P, Q)), (1, ComposedOperator(Q, P))])


def coderivation_defect(D: Operator, w: Word) -> dict[tuple[Word, Word], Scalar]:
    """Defect of the coderivation identity at one word.

    Computes (coproduct o D - (D (x) id + id (x) D) o coproduct)(w) as a
    formal sum over split pairs; the id (x) D summand carries the Koszul
    sign (-1)^(deg D * degree of the left part).  Empty result means D is
    a coderivation at w.
    """
    space = D.space
    acc: dict[tuple[Word, Word], Scalar] = {}

    def add(pair, c):
        val = acc.get(pair, 0) + c
        if val:
            acc[pair] = val
        elif pair in acc:
            del acc[pair]

    for w1, c in D.apply_word(w).items():
        for pair in deconcatenations(w1):
            add(pair, c)
    dpar = D.degree & 1
    for left, right in deconcatenations(w):
        for l2, c in D.apply_word(left).items():
            add((l2, right), -c)
        sign = -1 if (dpar and word_parity(space, left)) else 1
        for r2, c in D.apply_word(right).items():
            add((left, r2), -sign * c)
    return acc


class InducedMap:
    """Letterwise application of a degree-0 linear map of graded spaces."""

    def __init__(self, f: MultilinearMap):
        if f.arity != 1 or f.degree != 0:
            raise InvalidInputError("induced maps need an arity-1 degree-0 map")
        self.f = f
        self.source = f.space
        self.target = f.target

    def __call__(self, x: TElement) -> TElement:
        if x.space != self.source:
            raise InvalidInputError("element lives in the wrong space")
        table = self.f.table
        acc: dict[Word, Scalar] = {}
        for w, c in x.terms.items():
            images = [((), c)]
            for a in w:
                entry = table.get((a,))
                if not entry:
                    images = []
                    break
                images = [
                    (ids + (b,), cc * cb)
                    for ids, cc in images
                    for b, cb in entry.items()
                ]
            for w2, c2 in images:
                val = acc.get(w2, 0) + c2
                if val:
                    acc[w2] = val
                elif w2 in acc:
                    del acc[w2]
        return TElement._make(self.target, acc)


def induced_morphism(f: MultilinearMap) -> InducedMap:
    return InducedMap(f)
