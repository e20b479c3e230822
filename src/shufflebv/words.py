"""Words in the tensor coalgebra and the shuffle product.

A word a_1 (x) ... (x) a_n is stored as a string with one code point per
letter, by the encoding of its space (``GradedSpace.encode``), and graded by
|a_1| + ... + |a_n| + n, i.e. by the sum of the shifted letter degrees.  The
empty word "" is the unit.  A string caches its hash, so each table key is
hashed once.  Letter ids are encoded and decoded only at the boundary:
``TElement(...)``, ``TElement.word``, ``shuffle``, iterating a ``TElement``,
and rendering.  Every shuffle product comes from one step of the recursion
by last letters (see ``shuffle_terms``).
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import xor

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


def _shuffle_step(first, a, negate, second, b, intern):
    """(u' * v) a, negated when ``negate``, plus (u * v') b, from ``first``
    and ``second``, the terms of u' * v and u * v': one step of the shuffle
    recursion by last letters (see ``shuffle_terms``).  Each new word is
    passed through ``intern(w, w)``.  The two branches end in different
    letters, so they merge with cancellation only when a = b."""
    if negate:
        terms = {intern(w := x + a, w): -c for x, c in first.items()}
    else:
        terms = {intern(w := x + a, w): c for x, c in first.items()}
    if a != b:
        for x, c in second.items():
            terms[intern(w := x + b, w)] = c
        return terms
    get = terms.get
    for x, c in second.items():
        w = x + b
        w = intern(w, w)
        val = get(w, 0) + c
        if val:
            terms[w] = val
        else:
            del terms[w]
    return terms


# an intern that keeps each word as it was made: ``_uninterned(w, w)`` is w
_uninterned = {}.get


def shuffle_terms(space: GradedSpace, u: Word, v: Word) -> dict[Word, Scalar]:
    """Terms of the shuffle product of two words, computed afresh and
    interned: the fill of the space's shuffle table (see ``shuffle``).

    With a and b the last letters, u = u' a and v = v' b, the shuffle
    recursion by last letters (Ree 1958) gives

        u * v = (-1)^(|a| |v|) (u' * v) a + (u * v') b,

    with w * "" = w and parities on shifted degrees: a ends a shuffle only
    after crossing all of v.  When the space's table holds both prefix pairs
    (u', v) and (u, v'), an empty prefix counting as held, u * v is one step
    of it from their rows (``_shuffle_step``).  Otherwise it is walked over
    the grid of prefix pairs (``_shuffle_grid``), which stores no pair.
    Terms are listed branch by branch.
    """
    return _shuffle_pair(space, u, v, space._shuffle_cache.get, space._word_table.setdefault)


def unstored_shuffle_terms(space: GradedSpace, u: Word, v: Word, intern) -> dict[Word, Scalar]:
    """Terms of u * v for a pair that is read once and not stored: one step
    of the recursion of ``shuffle_terms`` from the prefix pairs (u', v) and
    (u, v'), read through the space's table by subscript, so those two are
    stored and the next pair of the same row or column finds them.  Each
    new word is passed through ``intern(w, w)``."""
    return _shuffle_pair(space, u, v, space._shuffle_cache.__getitem__, intern)


def _shuffle_pair(space, u, v, read, intern):
    """u * v by one step from its prefix pairs, each read by ``read``, or
    over its grid if ``read`` gives None for either."""
    if not u or not v:
        uv = u + v
        return {intern(uv, uv): 1}
    first = read((u[:-1], v)) if len(u) > 1 else {v: 1}
    second = read((u, v[:-1])) if len(v) > 1 else {u: 1}
    if first is None or second is None:
        return _shuffle_grid(space, u, v)
    a = u[-1]
    return _shuffle_step(first, a, space._sparity[a] and word_parity(space, v), second, v[-1], intern)


def _shuffle_grid(space: GradedSpace, u: Word, v: Word) -> dict[Word, Scalar]:
    """u * v for nonempty words, by the recursion of ``shuffle_terms`` over
    the grid of prefix pairs (u[:i], v[:j]), row by row and in a loop, so a
    long word never recurses.

    A cell the space's table holds is read from it; any other is one step
    from its two neighbours, (u[:i-1], v[:j]) in the row before and
    (u[:i], v[:j-1]) in its own row.  Each row overwrites the one before,
    cell by cell, so a cell is dropped as soon as the next row has read it.
    No pair is stored, and only the words of u * v itself are interned.
    """
    held = space._shuffle_cache.get
    parity = space._sparity
    # odd[j]: the parity of v[:j]
    odd = list(itertools.accumulate(map(parity.__getitem__, v), xor, initial=0))
    row = [{v[:j]: 1} for j in range(len(v) + 1)]  # "" * v[:j] = v[:j]
    for i, a in enumerate(u, 1):
        head = u[:i]
        row[0] = {head: 1}
        for j, b in enumerate(v, 1):
            cell = held((head, v[:j]))
            if cell is None:
                last = i == len(u) and j == len(v)
                cell = _shuffle_step(row[j], a, parity[a] and odd[j], row[j - 1], b,
                                     space._word_table.setdefault if last else _uninterned)
            row[j] = cell
    return row[-1]


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
    table only if the table holds it; any other pair is built by
    ``unstored_shuffle_terms``, which stores its prefix pairs but not the
    pair, and interns none of its words.  Mutates and returns ``acc``;
    ``coeff`` and the coefficients of ``row`` must be nonzero.
    """
    lookup = space._shuffle_cache.get if shuffles is None else shuffles.__getitem__
    get = acc.get
    for w, c in row.items():
        c *= coeff
        pair = (word, w) if word_first else (w, word)
        terms = lookup(pair)
        if terms is None:
            terms = unstored_shuffle_terms(space, *pair, _uninterned)
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
        # each new word is interned as it is made, so a word the table holds
        # is dropped at once instead of living until the layer is done
        layer = [intern(w, w) for w in (p + a for p in layer for a in codes)]
        out.extend(layer)
    return out


# The largest case count held exactly: a larger one reads COUNT_LIMIT + 1.
# No sweep of that size could finish, so no admitted check has one; capping
# keeps every count a small integer, computed in microseconds at any bounds.
COUNT_LIMIT = 10**18


def capped(n: int) -> int:
    """``n``, or COUNT_LIMIT + 1 if it is larger."""
    return min(n, COUNT_LIMIT + 1)


def word_count(space: GradedSpace, max_len: int) -> int:
    """The number of basis words of length <= max_len, the empty word
    included, capped (see ``capped``)."""
    b = len(space.letters)
    if b == 1:
        return capped(max_len + 1)
    # with 64 or more lengths the count passes b^63 > COUNT_LIMIT
    return capped((b ** min(max_len + 1, 64) - 1) // (b - 1))


class Cases:
    """A sweep's case tuples, made one at a time and never stored.

    ``count`` is the number of tuples, capped (see ``capped``), and ``reach``
    the longest total word length a tuple can have; both are known before
    any tuple is made.
    Iterating starts the tuples afresh, in their fixed order.  ``words``
    makes the list whose order gives each word of a tuple its position, by
    which ``share`` deals the tuples out.
    """

    __slots__ = ("count", "reach", "_start", "_words")

    def __init__(self, count: int, reach: int, start: Callable[[], Iterator[tuple[Word, ...]]],
                 words: Callable[[], list[Word]]):
        self.count = count
        self.reach = reach
        self._start = start
        self._words = words

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[Word, ...]]:
        return self._start()

    def share(self, j: int, k: int, dealt: tuple[int, ...]) -> Iterator[tuple[int, tuple[Word, ...]]]:
        """Share j of k: the tuples whose words at the indices ``dealt``
        have positions summing to j mod k, each beside its index in the
        stream, in stream order.  The k shares partition the stream; share 0
        of 1, or of k with no word dealt, is all of it, unfiltered.  Positions
        are read from a table made once per share, so a share dealt by one
        word tests each tuple with one subscript.
        """
        cases = enumerate(self)
        if k == 1 or not dealt:
            return cases if j == 0 else iter(())
        residue = {w: i % k for i, w in enumerate(self._words())}
        if len(dealt) == 1:
            (at,) = dealt
            return ((i, c) for i, c in cases if residue[c[at]] == j)
        return ((i, c) for i, c in cases if sum([residue[c[at]] for at in dealt]) % k == j)


def word_product(space: GradedSpace, max_len: int, repeat: int) -> Cases:
    """The tuples of ``repeat`` basis words of length <= max_len, in the
    order of ``itertools.product`` over ``words_up_to``, which also gives
    the words their positions."""
    return Cases(
        capped(word_count(space, max_len) ** repeat),
        max_len * repeat,
        lambda: itertools.product(words_up_to(space, max_len), repeat=repeat),
        lambda: words_up_to(space, max_len),
    )


def word_tuples(space: GradedSpace, count: int, max_total: int) -> Cases:
    """The tuples of ``count`` >= 1 nonempty basis words with total length
    <= max_total, ordered lexicographically by the positions of the words
    in ``words_up_to``.

    With b letters, the c words of a tuple of total t are a composition of
    t into c parts, with b^t letterings, so the count, capped (see
    ``capped``), is N = sum over t = c..max_total of b^t C(t - 1, c - 1).
    With b = 1 that is C(max_total, c).  Each term is at least twice the
    last for b >= 2, so the sum passes COUNT_LIMIT within 64 terms.
    """
    b = len(space.letters)
    if b == 1:
        n = binomial(max_total, count)
    else:
        n, term = 0, b ** min(count, 64)  # b^c C(c - 1, c - 1)
        for t in range(count, max_total + 1):
            n += term
            if n > COUNT_LIMIT:
                break
            term = term * b * t // (t - count + 1)  # b^(t + 1) C(t, c - 1)
    return Cases(capped(n), max_total, lambda: _word_tuples(space, count, max_total),
                 lambda: words_up_to(space, max_total - count + 1))


def binomial(n: int, k: int) -> int:
    """C(n, k), capped (see ``capped``); each partial product C(n - k + i, i)
    is at least 2^i, so the loop passes COUNT_LIMIT within 64 steps."""
    k = min(k, n - k)
    if k < 0:
        return 0
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > COUNT_LIMIT:
            break
    return capped(value)


def _word_tuples(space: GradedSpace, count: int, max_total: int) -> Iterator[tuple[Word, ...]]:
    """The tuples of ``word_tuples``."""
    longest = max_total - count + 1
    if longest < 1:
        return iter(())
    # ends[m]: how many nonempty words have length <= m
    ends = [word_count(space, m) - 1 for m in range(longest + 1)]
    return _extend(words_up_to(space, longest)[1:], ends, (), count, max_total)


def _extend(nonempty, ends, prefix, left, budget):
    """``prefix`` followed by each tuple of ``left`` nonempty words with total
    length <= budget.  The words that fit one position are a prefix of
    ``nonempty``, which lists them by length; a module-level generator, not
    a closure that calls itself, so it forms no reference cycle."""
    words = itertools.islice(nonempty, ends[budget - left + 1])
    if left == 1:
        for w in words:
            yield prefix + (w,)
    else:
        for w in words:
            yield from _extend(nonempty, ends, prefix + (w,), left - 1, budget - len(w))
