"""Structure maps on the base space and the operators on words they give:
coderivation lifts, composite sums and the induced maps of morphisms.

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

for k >= 3 the twist has no extra k-dependent constant.  The A-infinity
relations of the lifts, which ``algebra_io.validate_ainf`` evaluates on
words through ``algebra_io.check_relations``, pin the convention; see the
README.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from .graded import (
    GradedSpace,
    InvalidInputError,
    Scalar,
    normalize_scalar,
)
from .words import (
    Table,
    TElement,
    Word,
    merge_images,
    merge_shuffle_images,
    merge_shuffles,
    owned_table,
    word_parity,
)


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
        table: Mapping[tuple, Mapping[str, Scalar]],
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
            entry: dict[str, Scalar] = {}
            for b, c in out.items():
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

    def __repr__(self):
        return (
            f"MultilinearMap(arity={self.arity}, degree={self.degree}, "
            f"{len(self.table)} entries)"
        )


class Operator:
    """A degree-homogeneous linear map of word spaces, given by a rule: from
    the words of ``space`` to the elements of ``target``, which is ``space``
    unless a subclass sets another (``InducedMap``).

    To define one, subclass and implement ``_apply_word``, which maps a
    stored word (a str, see ``words``) to the terms of its image.  Every
    operator enrols with its space and keeps two tables, keyed by stored
    words: ``_cache``, the image of each basis word, which a check on the
    space trims to the words its remaining sweeps can read (``bv._trim``);
    and ``_defects``, its defect memo (see ``defect_table``), which the
    sweep driver cuts when a sweep starts and empties when a check ends.
    Callers read both by subscript, and are handed the stored images and
    memo entries themselves, not copies: they must only read them.
    """

    def __init__(self, space: GradedSpace, degree: int):
        self.space = space
        self.target = space
        self.degree = degree
        self._cache = owned_table(self, type(self)._apply_word)
        self._defects = defect_table(self)
        space._operators.add(self)

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        raise NotImplementedError

    def __call__(self, x: TElement | Sequence[str]) -> TElement:
        """The image, an element of ``target``, of an element of this
        operator's space, or of one word given by its letter ids."""
        if not isinstance(x, TElement):
            return TElement._make(self.target, self._cache[self.space.encode(x)])
        if x.space != self.space:
            raise InvalidInputError("the operator acts on a different space")
        return TElement._make(self.target, merge_images({}, x.terms, self._cache, 1))


def defect_table(D: Operator) -> Table:
    """A new defect memo for the operator ``D``, by prefix:
    ``memo[X][w]`` is F_m(X + (w,)) on m = len(X) + 1 basis words.

    ``memo[()]`` is D's image table (F_1 = D); beyond it each prefix has a
    table filled by Koszul's recursion.  F_(m+1) is the order-m expression
    of ``bv.order_defect``.  Readers get the stored entries by reference
    (the bracket sweeps merge and shuffle F_2 entries straight from here),
    so an entry must never be written once filled.
    """

    def level(D, X):
        if not X:
            return D._cache
        return owned_table(D, lambda D, w: _koszul_step(D, X + (w,), None))

    return owned_table(D, level)


def _koszul_step(
    D: Operator, key: tuple[Word, ...], shuffles: Table | None
) -> dict[Word, Scalar]:
    """F_m(X, b, c) for m = len(key) >= 2, by Koszul's recursion

        F_m(X, b, c) = sum_w [b*c]_w F_(m-1)(X, w) - F_(m-1)(X, b) * c
                       - (-1)^(|b| (|D| + sum_(x in X) |x|)) b * F_(m-1)(X, c),

    with F_1 = D and F_(m-1)(X, -) read from D's defect memo.

    ``shuffles`` is the space's shuffle table, read and filled by a sweep's
    top-level step, whose shuffles recur across cases.  A memo fill passes
    None: it never adds a pair to the table, since the memo already holds
    what is built from it.  There b * c is read from the table if it holds
    the pair; otherwise ``merge_shuffle_images`` merges the lower level's
    rows of its words straight from the pair's shuffle plan, building no
    b * c and interning a word only when the level lacks it, since the
    level then stores its row under that word.  The rows F_(m-1)(X, b) and
    F_(m-1)(X, c) are shuffled by ``merge_shuffles`` straight into the
    entry.  The finished entry is copied into a new dict, which interns
    its words and compacts it after any cancellation.
    """
    space = D.space
    X, b, c = key[:-2], key[-2], key[-1]
    lower = D._defects[X]
    bc = space._shuffle_cache.get((b, c)) if shuffles is None else shuffles[b, c]
    if bc is None:
        acc = merge_shuffle_images({}, space, b, c, lower, 1)
    else:
        acc = merge_images({}, bc, lower, 1)
    row = lower[b]
    if row:
        merge_shuffles(acc, space, c, row, -1, False, shuffles)
    row = lower[c]
    if row:
        par = D.degree
        for x in X:
            par += word_parity(space, x)
        sign = 1 if word_parity(space, b) & par & 1 else -1
        merge_shuffles(acc, space, b, row, sign, True, shuffles)
    if shuffles is not None:
        return acc
    intern = space._word_table.setdefault
    return {intern(w, w): s for w, s in acc.items()}


class LiftedCoderivation(Operator):
    """The coderivation lift of a multilinear map (see module docstring).

    Each image is filled from the image of the word's prefix.  Appending a
    letter a keeps every block of the prefix p, and its sign, so

        D(p (x) a) = sum_(c q in D(p)) c (q (x) a)
                     + (-1)^(g s(h)) h (x) cbar(last k letters of p (x) a),

    where h is p (x) a without its last k letters and s(h) the sum of its
    shifted degrees.  The last block's terms are merged with cancellation:
    one can equal a shifted term, as with a unit-like product.  D(p) is
    read from the image table by subscript.
    """

    def __init__(self, c: MultilinearMap):
        if c.target != c.space:
            raise InvalidInputError("only endomorphism-valued maps lift")
        super().__init__(c.space, c.degree + 1 - c.arity)
        self.component = c
        k = c.arity
        # cbar: each entry of c times (-1)^(sum_j (k-j)|a_j|), keyed by the
        # stored block, with each output letter's code point
        space = c.space
        self._cbar = {}
        for block, entry in c.table.items():
            twist = sum(space.degree(block[j]) for j in range(k) if (k - 1 - j) & 1) & 1
            self._cbar[space.encode(block)] = {
                space.encode((b,)): -v if twist else v for b, v in entry.items()
            }

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        if not w:
            return {}
        table = self._cache
        intern = self.space._word_table.setdefault
        prefix = w[:-1]
        if prefix not in table:
            # fill the missing prefixes shortest first, each through the
            # table, so that no fill recurses
            missing = [prefix]
            while missing[-1] and missing[-1][:-1] not in table:
                missing.append(missing[-1][:-1])
            for p in reversed(missing):
                table[intern(p, p)]
        image = table[prefix]
        last = w[-1:]
        shifted = [q + last for q in image]
        out = dict(zip(map(intern, shifted, shifted), image.values()))
        h = len(w) - self.component.arity
        entry = self._cbar.get(w[h:]) if h >= 0 else None
        if entry:
            head = w[:h]
            sign = -1 if self.degree & 1 and word_parity(self.space, head) else 1
            for b, c in entry.items():
                w2 = head + b
                w2 = intern(w2, w2)
                val = out.get(w2, 0) + sign * c
                if val:
                    out[w2] = val
                else:
                    del out[w2]
        # an image that cancelled to zero still holds its key table; a new
        # empty dict holds none, and many images of a product lift are zero
        return out or {}


def lift_coderivation(c: MultilinearMap) -> Operator:
    return LiftedCoderivation(c)


def composite_sum(terms: Sequence[tuple[Scalar, Operator, Operator]]) -> Callable[[Word], dict[Word, Scalar]]:
    """w -> the terms of the sum of c P(Q(w)) over the (c, P, Q) of ``terms``,
    in order, each c nonzero; images are read from the image tables
    (``_cache``) of the operators P and Q."""

    def relation(w: Word) -> dict[Word, Scalar]:
        acc: dict[Word, Scalar] = {}
        for c, P, Q in terms:
            merge_images(acc, Q._cache[w], P._cache, c)
        return acc

    return relation


class CompositeSum(Operator):
    """The operator form of ``composite_sum(terms)``: w -> the sum of
    c P(Q(w)) over the (c, P, Q) of ``terms``, with its own image table and
    defect memo.  Every P acts on the target of its Q, every P o Q maps one
    space into one target, and every P o Q has one degree,
    P.degree + Q.degree; terms whose c is zero are dropped."""

    def __init__(self, terms: Sequence[tuple[Scalar, Operator, Operator]]):
        if not terms:
            raise InvalidInputError("empty composite sum")
        if (any(P.space != Q.target for _, P, Q in terms)
                or len({(Q.space, P.target) for _, P, Q in terms}) > 1):
            raise InvalidInputError("operators act on different spaces")
        degrees = {P.degree + Q.degree for _, P, Q in terms}
        if len(degrees) > 1:
            raise InvalidInputError(f"composites must share a degree, got {sorted(degrees)}")
        super().__init__(terms[0][2].space, degrees.pop())
        self.target = terms[0][1].target
        terms = [(normalize_scalar(c), P, Q) for c, P, Q in terms]
        self._relation = composite_sum([term for term in terms if term[0]])

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        return self._relation(w)


def composition_relations(
    ops: Iterable[Operator],
) -> Iterator[tuple[int, Callable[[Word], dict[Word, Scalar]]]]:
    """The composition relations of ``ops``, highest total degree first.

    Yields (n, relation), where relation is the ``composite_sum`` of the
    ordered pairs of ``ops`` whose degrees add to n, pairs in decreasing
    degree of P, then of Q.  For the lifts of an A-infinity algebra's
    structure maps these are its A-infinity relations, and every
    relation(w) is zero.
    """
    ops = sorted(ops, key=lambda op: -op.degree)
    for n in sorted({P.degree + Q.degree for P in ops for Q in ops}, reverse=True):
        yield n, composite_sum([(1, P, Q) for P in ops for Q in ops if P.degree + Q.degree == n])


class InducedMap(Operator):
    """Letterwise application of a degree-0 linear map f of graded spaces:
    the operator from the words of f's space to those of its target.

    The image of a source word a_1 ... a_n is f(a_1) ... f(a_n), the sum
    over every choice of one term of f per letter.  Distinct choices give
    distinct words, so an image never cancels inside itself.
    """

    def __init__(self, f: MultilinearMap):
        if f.arity != 1 or f.degree != 0:
            raise InvalidInputError("induced maps need an arity-1 degree-0 map")
        super().__init__(f.space, 0)
        self.target = f.target
        # f's table from the source's code points to the target's
        self._letters = {
            f.space.encode(a): {f.target.encode((b,)): c for b, c in entry.items()}
            for a, entry in f.table.items()
        }

    def _apply_word(self, w: Word) -> dict[Word, Scalar]:
        letters = self._letters
        return {
            "".join(b for b, _ in combo): math.prod(c for _, c in combo)
            for combo in itertools.product(*(letters.get(a, {}).items() for a in w))
        }


def induced_morphism(f: MultilinearMap) -> InducedMap:
    return InducedMap(f)
