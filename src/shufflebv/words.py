"""Words in the tensor coalgebra and the shuffle product.

A word a_1 (x) ... (x) a_n is stored as a string with one code point per
letter, by the encoding of its space (``GradedSpace.encode``), and graded by
|a_1| + ... + |a_n| + n, i.e. by the sum of the shifted letter degrees.  The
empty word "" is the unit.  A string caches its hash, so each table key is
hashed once.  Letter ids are encoded and decoded only at the boundary:
``TElement(...)``, ``TElement.word``, ``shuffle``, iterating a ``TElement``,
and rendering.
"""

from __future__ import annotations

import weakref
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from .graded import (
    GradedSpace,
    InhomogeneousError,
    InvalidInputError,
    Scalar,
    normalize_scalar,
    render_scalar,
)

# a stored word: one code point per letter (see ``GradedSpace.encode``)
Word = str


class Table(dict):
    """A memo that fills itself: reading a missing key stores ``fill(key)``
    under it and returns it.

    A hit is one subscript, answered by ``dict`` with no Python frame; ``get``
    and ``in`` read without filling.  Values must be treated as immutable.
    """

    __slots__ = ("fill",)

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def owned_table(owner, fill: Callable) -> Table:
    """A table of ``owner`` filled by ``fill(owner, key)``.

    The fill holds the owner by a weak reference, so an owner and its tables
    form no reference cycle and are freed by reference counting alone.
    """
    ref = weakref.ref(owner)
    return Table(lambda key: fill(ref(), key))


def word_degree(space: GradedSpace, w: Word) -> int:
    """Degree of a word: the sum of its shifted letter degrees."""
    return sum(map(space._degree.__getitem__, w)) + len(w)


def word_parity(space: GradedSpace, w: Word) -> int:
    """Parity of a word's degree."""
    return sum(map(space._sparity.__getitem__, w)) & 1


class TElement:
    """A finite rational linear combination of words over one space.

    Instances are treated as immutable; all operations return new elements.
    ``terms`` maps stored words to coefficients; the constructor takes words
    as sequences of letter ids, and iteration gives them back that way.
    Term order is canonical: by word length, then lexicographically.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: Mapping[Sequence[str], Scalar] | None = None):
        clean: dict[Word, Scalar] = {}
        for ids, c in (terms or {}).items():
            w = space.encode(ids)
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
    def word(cls, space: GradedSpace, ids: Sequence[str], coeff: Scalar = 1) -> "TElement":
        w = space.encode(ids)
        c = normalize_scalar(coeff)
        return cls._make(space, {w: c} if c else {})

    @classmethod
    def unit(cls, space: GradedSpace) -> "TElement":
        return cls._make(space, {"": 1})

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

    def __iter__(self) -> Iterator[tuple[tuple[str, ...], Scalar]]:
        """The terms in canonical order, each word as its letter ids."""
        decode = self.space.decode
        return iter([(decode(w), c) for w, c in sorted_terms(self.terms)])

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

    def __repr__(self):
        return f"TElement({render_telement(self)})"


def sorted_terms(terms: Mapping[Word, Scalar]) -> list[tuple[Word, Scalar]]:
    return sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


def render_word(ids: Sequence[str], tensor: str = "(x)") -> str:
    """A word given by its letter ids, e.g. ``a(x)b``; the empty word is 1."""
    if not ids:
        return "1"
    return tensor.join(ids)


def render_telement(x: "TElement", tensor: str = "(x)") -> str:
    """Canonical plain rendering, e.g. ``a(x)b - b(x)a``."""
    if not x.terms:
        return "0"
    chunks = []
    for w, c in x:
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


def merge_scaled(acc, terms, coeff):
    """acc[w] += coeff * c for every (w, c) in terms, dropping zero entries.

    Mutates and returns ``acc``; ``coeff`` must be nonzero.
    """
    get = acc.get
    pop = acc.pop
    for w, c in terms.items():
        val = get(w, 0) + coeff * c
        if val:
            acc[w] = val
        else:
            pop(w, None)
    return acc


def merge_images(acc, terms, table, coeff):
    """acc += coeff * sum(c * table[w] for w, c in terms), dropping zero entries.

    The fused form of ``merge_scaled(acc, table[w], coeff * c)`` over the
    terms: reads each image by subscript, so a ``Table`` fills its misses.
    Mutates and returns ``acc``; ``coeff`` and the coefficients of ``terms``
    and of the images must be nonzero.
    """
    get = acc.get
    for w, c in terms.items():
        c *= coeff
        for w2, c2 in table[w].items():
            val = get(w2, 0) + c * c2
            if val:
                acc[w2] = val
            else:
                del acc[w2]
    return acc


def shuffle_signed(u, v, pu, pv):
    """All interleavings of the sequences u and v, each with its Koszul sign.

    ``pu`` and ``pv`` are the degree parities of the letters of u and v.
    Returns a list of (word, sign) pairs, word a tuple, sign +1 or -1, in
    the order that takes the next letter from u before taking it from v
    (lexicographic in the positions occupied by u).
    """
    n, m = len(u), len(v)
    if n == 0:
        return [(tuple(v), 1)]
    if m == 0:
        return [(tuple(u), 1)]
    # su[i] = parity of the total degree of u[i:]
    su = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        su[i] = su[i + 1] ^ pu[i]
    out = []
    append = out.append
    word = [None] * (n + m)
    # Depth-first over (i, j, parity, letter): letters u[:i] and v[:j] are
    # placed, and ``letter`` goes to slot i + j - 1.  An explicit stack, not
    # a self-referencing closure, so the output is never part of a cycle and
    # is freed as soon as the caller drops it.
    stack = [(0, 0, 0, None)]
    pop, push = stack.pop, stack.append
    while stack:
        i, j, par, letter = pop()
        k = i + j
        if k:
            word[k - 1] = letter
        if i == n:
            word[k:] = v[j:]
            append((tuple(word), -1 if par else 1))
        elif j == m:
            word[k:] = u[i:]
            append((tuple(word), -1 if par else 1))
        else:
            # v[j] emitted now crosses every remaining letter of u; it is
            # pushed first so that the branch taking u[i] is enumerated first
            push((i, j + 1, par ^ (pv[j] & su[i]), v[j]))
            push((i + 1, j, par, u[i]))
    return out


def _shuffle_plan(parities: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[tuple, tuple[int, ...]]:
    """(getters, signs) of the shuffles of two nonempty words whose letters
    have the parities ``parities`` = (pu, pv); the fill of ``_shuffle_plans``."""
    pu, pv = parities
    n, m = len(pu), len(pv)
    slots = shuffle_signed(tuple(range(n)), tuple(range(n, n + m)), pu, pv)
    getters = _shuffle_getters.get((n, m))
    if getters is None:
        getters = _shuffle_getters[n, m] = tuple(itemgetter(*w) for w, _ in slots)
    return getters, tuple(s for _, s in slots)


# Shuffle plans, filled by ``shuffle_signed`` on the letter positions of u + v
# and kept for the life of the process (they depend on lengths and parities
# only): one itemgetter per shuffle, picking the shuffled word out of u + v,
# per pair of lengths; and per parity pattern of the letters, that getter
# tuple beside the shuffles' Koszul signs in the same order.
_shuffle_getters: dict[tuple[int, int], tuple[itemgetter, ...]] = {}
_shuffle_plans = Table(_shuffle_plan)


def _merge_plan(acc, uv, plan, coeff):
    """acc += coeff * (u * v), dropping zero entries, where u + v = ``uv``
    and ``plan`` is the pair's shuffle plan: each shuffled word is read out
    of ``uv`` by its getter.  Mutates and returns ``acc``; ``coeff`` must be
    nonzero."""
    get = acc.get
    join = "".join
    neg = -coeff
    for g, s in zip(*plan):
        w = join(g(uv))
        val = get(w, 0) + (coeff if s == 1 else neg)
        if val:
            acc[w] = val
        else:
            del acc[w]
    return acc


def shuffle_terms(space: GradedSpace, u: Word, v: Word) -> dict[Word, Scalar]:
    """Terms of the shuffle product of two words, computed afresh and
    interned.

    It fills the space's shuffle table (see ``shuffle``); a defect-memo
    fill calls it for a pair that the table does not hold.
    """
    parity = space._sparity.__getitem__
    intern = space._word_table.setdefault
    uv = u + v
    if not u or not v:
        return {intern(uv, uv): 1}
    terms = _merge_plan({}, uv, _shuffle_plans[tuple(map(parity, u)), tuple(map(parity, v))], 1)
    return {intern(w, w): c for w, c in terms.items()}


def shuffle(space: GradedSpace, u: Sequence[str], v: Sequence[str]) -> TElement:
    """Shuffle product of two words given by their letter ids, with Koszul
    signs on shifted degrees.

    Read from the space's shuffle table: axiom sweeps hit the same pairs
    often.
    """
    return TElement._make(space, space._shuffle_cache[space.encode(u), space.encode(v)])


def merge_shuffles(acc, space, word, row, coeff, word_first, shuffles=None):
    """acc += coeff * sum(c * (w * word) for w, c in row), or of word * w
    when ``word_first``, dropping zero entries.

    Each pair's terms are read from ``shuffles``, the space's shuffle table,
    which fills its misses.  Without it a pair is read from the space's
    table only if the table holds it; any other pair is merged straight from
    its shuffle plan, and nothing is stored or interned.  Mutates and returns
    ``acc``; ``coeff`` and the coefficients of ``row`` must be nonzero.
    """
    lookup = space._shuffle_cache.get if shuffles is None else shuffles.__getitem__
    get = acc.get
    pword = None
    for w, c in row.items():
        c *= coeff
        pair = (word, w) if word_first else (w, word)
        terms = lookup(pair)
        if terms is None:
            uv = pair[0] + pair[1]
            if not word or not w:
                terms = {uv: 1}
            else:
                # only a pair missing from the table needs its plan
                parity = space._sparity.__getitem__
                if pword is None:
                    pword = tuple(map(parity, word))
                pw = tuple(map(parity, w))
                _merge_plan(acc, uv, _shuffle_plans[(pword, pw) if word_first else (pw, pword)], c)
                continue
        for w2, c2 in terms.items():
            val = get(w2, 0) + c * c2
            if val:
                acc[w2] = val
            else:
                del acc[w2]
    return acc


def shuffle_elements(x: TElement, y: TElement) -> TElement:
    """Bilinear extension of the shuffle product."""
    if x.space != y.space:
        raise InvalidInputError("elements live in different spaces")
    space = x.space
    acc: dict[Word, Scalar] = {}
    for u, cu in x.terms.items():
        merge_shuffles(acc, space, u, y.terms, cu, True, space._shuffle_cache)
    return TElement._make(space, acc)


def words_up_to(space: GradedSpace, max_len: int) -> list[Word]:
    """All basis words of length <= max_len, the empty word first, by
    length, then lexicographically in the order of the space's basis."""
    intern = space._word_table.setdefault
    layer: list[Word] = [intern("", "")]
    out: list[Word] = list(layer)
    codes = space.encode(space.ids)
    for _ in range(max_len):
        layer = [w + a for w in layer for a in codes]
        layer = [intern(w, w) for w in layer]
        out.extend(layer)
    return out


def word_tuples_with_total(
    space: GradedSpace, count: int, max_total: int
) -> list[tuple[Word, ...]]:
    """All tuples of ``count`` nonempty basis words with total length <= max_total.

    Ordered lexicographically by the positions of the words in
    ``words_up_to``; built one tuple position at a time, which keeps that
    order.
    """
    if count > max_total:
        return []
    nonempty = [w for w in words_up_to(space, max(0, max_total - count + 1)) if w]
    level: list[tuple[tuple[Word, ...], int]] = [((), 0)]
    for remaining in range(count - 1, -1, -1):
        level = [
            (prefix + (w,), used + len(w))
            for prefix, used in level
            for w in nonempty
            if used + len(w) + remaining <= max_total
        ]
    return [prefix for prefix, _ in level]
