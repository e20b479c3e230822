"""Words in the tensor coalgebra, the shuffle product, deconcatenation.

A word a_1 (x) ... (x) a_n is stored as a tuple of letter ids and graded
by |a_1| + ... + |a_n| + n, i.e. by the sum of the shifted letter degrees.
The empty word is the unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

from .graded import (
    GradedSpace,
    InhomogeneousError,
    InvalidInputError,
    Scalar,
    normalize_scalar,
    render_scalar,
)
from .kernel import merge_scaled, shuffle_signed

Word = tuple[str, ...]


def word_degree(space: GradedSpace, w: Word) -> int:
    """Degree of a word: the sum of its shifted letter degrees."""
    return sum(space.degree(a) + 1 for a in w)


def word_parity(space: GradedSpace, w: Word) -> int:
    p = 0
    for a in w:
        p ^= space.shifted_parity(a)
    return p


def deconcatenations(w: Word) -> list[tuple[Word, Word]]:
    """All |w|+1 splittings of w, in order of the cut position."""
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


@dataclass(frozen=True)
class Shuffle:
    """A block-monotone permutation: sigma[i] is the target of position i.

    Positions are 0-based; the first n source positions keep their relative
    order, as do the last m.
    """

    sigma: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self):
        k = self.n + self.m
        if sorted(self.sigma) != list(range(k)):
            raise InvalidInputError(f"not a permutation of 0..{k - 1}")
        first, second = self.sigma[: self.n], self.sigma[self.n :]
        if list(first) != sorted(first) or list(second) != sorted(second):
            raise InvalidInputError("blocks must stay in order")

    @property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.sigma)
        for src, tgt in enumerate(self.sigma):
            inv[tgt] = src
        return tuple(inv)

    def interleave(self, u: Word, v: Word) -> Word:
        """The shuffled word: position p receives letter number inverse[p]."""
        uv = u + v
        return tuple(uv[s] for s in self.inverse)


def enumerate_shuffles(n: int, m: int) -> list[Shuffle]:
    """All C(n+m, n) block shuffles, lexicographic in the first block's slots."""
    if n < 0 or m < 0:
        raise InvalidInputError("block sizes must be nonnegative")
    k = n + m
    out = []
    for slots in combinations(range(k), n):
        rest = [p for p in range(k) if p not in slots]
        out.append(Shuffle(tuple(slots) + tuple(rest), n, m))
    return out


class TElement:
    """A finite rational linear combination of words over one space.

    Instances are treated as immutable; all operations return new elements.
    Term order is canonical: by word length, then lexicographically.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: Mapping[Word, Scalar] | None = None):
        clean: dict[Word, Scalar] = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            for a in w:
                if a not in space:
                    raise InvalidInputError(
                        f"unknown letter {a!r} in space {space.name!r}"
                    )
            c = normalize_scalar(c)
            if c:
                clean[w] = c
        self.space = space
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def _make(cls, space: GradedSpace, terms: dict[Word, Scalar]) -> "TElement":
        """Trusted constructor: terms must already be clean (known letters,
        no zero coefficients).  Used on internal arithmetic paths."""
        self = object.__new__(cls)
        self.space = space
        self.terms = terms
        return self

    @classmethod
    def zero(cls, space: GradedSpace) -> "TElement":
        return cls._make(space, {})

    @classmethod
    def word(cls, space: GradedSpace, w: Word, coeff: Scalar = 1) -> "TElement":
        return cls(space, {tuple(w): coeff})

    @classmethod
    def unit(cls, space: GradedSpace) -> "TElement":
        return cls(space, {(): 1})

    # -- structure ------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TElement)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __iter__(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(sorted_terms(self.terms))

    def __add__(self, other: "TElement") -> "TElement":
        if self.space != other.space:
            raise InvalidInputError("elements live in different spaces")
        return TElement._make(
            self.space, merge_scaled(dict(self.terms), other.terms, 1)
        )

    def __sub__(self, other: "TElement") -> "TElement":
        if self.space != other.space:
            raise InvalidInputError("elements live in different spaces")
        return TElement._make(
            self.space, merge_scaled(dict(self.terms), other.terms, -1)
        )

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c: Scalar) -> "TElement":
        c = normalize_scalar(c)
        if not c:
            return TElement.zero(self.space)
        return TElement._make(self.space, {w: c * v for w, v in self.terms.items()})

    def degree(self) -> int:
        """Common word degree; raises on zero or inhomogeneous elements."""
        if not self.terms:
            raise InhomogeneousError("the zero element has no degree")
        degs = {word_degree(self.space, w) for w in self.terms}
        if len(degs) > 1:
            raise InhomogeneousError(f"mixed word degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_parts(self) -> dict[int, "TElement"]:
        """Split into word-degree-homogeneous summands, keyed by degree."""
        buckets: dict[int, dict[Word, Scalar]] = {}
        for w, c in self.terms.items():
            buckets.setdefault(word_degree(self.space, w), {})[w] = c
        return {d: TElement._make(self.space, t) for d, t in sorted(buckets.items())}

    def __repr__(self):
        return f"TElement({render_telement(self)})"


def sorted_terms(terms: Mapping[Word, Scalar]) -> list[tuple[Word, Scalar]]:
    return sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


def render_word(w: Word, tensor: str = "(x)") -> str:
    if not w:
        return "1"
    return tensor.join(w)


def render_telement(x: "TElement", tensor: str = "(x)") -> str:
    """Canonical plain rendering, e.g. ``a(x)b - b(x)a``."""
    if not x.terms:
        return "0"
    chunks = []
    for w, c in sorted_terms(x.terms):
        c = normalize_scalar(c)
        body = render_word(w, tensor)
        if not w:
            piece = render_scalar(c if c > 0 else -c)
        elif c == 1 or c == -1:
            piece = body
        else:
            piece = f"{render_scalar(c if c > 0 else -c)} {body}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(chunks)


def shuffle_terms(space: GradedSpace, u: Word, v: Word) -> dict[Word, Scalar]:
    """Terms of the shuffle product of two words, computed afresh.

    The uncached product behind ``shuffle``; for callers that keep their own
    memo of what they build from it.
    """
    pu = tuple(space.shifted_parity(a) for a in u)  # also validates letters
    pv = tuple(space.shifted_parity(a) for a in v)
    terms: dict[Word, Scalar] = {}
    for w, s in shuffle_signed(u, v, pu, pv):
        val = terms.get(w, 0) + s
        if val:
            terms[w] = val
        elif w in terms:
            del terms[w]
    return terms


def shuffle(space: GradedSpace, u: Word, v: Word) -> TElement:
    """Shuffle product of two words, with Koszul signs on shifted degrees.

    Results are cached on the space: axiom sweeps hit the same pairs often.
    """
    u, v = tuple(u), tuple(v)
    cache = space._shuffle_cache
    key = (u, v)
    hit = cache.get(key)
    if hit is None:
        hit = TElement._make(space, shuffle_terms(space, u, v))
        cache[key] = hit
    return hit


def shuffle_elements(x: TElement, y: TElement) -> TElement:
    """Bilinear extension of the shuffle product."""
    if x.space != y.space:
        raise InvalidInputError("elements live in different spaces")
    space = x.space
    acc: dict[Word, Scalar] = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            merge_scaled(acc, shuffle(space, u, v).terms, cu * cv)
    return TElement._make(space, acc)


def shuffle_many(space: GradedSpace, factors: list[TElement]) -> TElement:
    """Left fold of the shuffle product; empty input gives the unit."""
    acc = TElement.unit(space)
    for f in factors:
        acc = shuffle_elements(acc, f)
    return acc


def words_up_to(space: GradedSpace, max_len: int, *, include_empty: bool = True) -> list[Word]:
    """All basis words of length <= max_len, by length then lexicographically."""
    out: list[Word] = [()] if include_empty else []
    layer: list[Word] = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in space.ids]
        out.extend(layer)
    return out


def word_tuples_with_total(
    space: GradedSpace, count: int, max_total: int
) -> list[tuple[Word, ...]]:
    """All tuples of ``count`` nonempty basis words with total length <= max_total."""
    nonempty = [w for w in words_up_to(space, max(0, max_total - count + 1)) if w]
    out: list[tuple[Word, ...]] = []

    def rec(prefix: tuple[Word, ...], used: int):
        if len(prefix) == count:
            out.append(prefix)
            return
        remaining = count - len(prefix) - 1
        for w in nonempty:
            total = used + len(w)
            if total + remaining <= max_total:
                rec(prefix + (w,), total)

    if count <= max_total:
        rec((), 0)
    return out
