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

import itertools
import weakref
from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import itemgetter, xor

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
    (lexicographic in the positions occupied by u).  A shuffle is the choice
    of the slots that u's letters take: u[i] in slot k crosses the k - i
    letters of v placed before it.
    """
    # sv[j] = parity of the total degree of v[:j]
    sv = list(itertools.accumulate(pv, xor, initial=0))
    out = []
    for slots in itertools.combinations(range(len(u) + len(v)), len(u)):
        word, par = list(v), 0
        for i, k in enumerate(slots):
            word.insert(k, u[i])
            par ^= pu[i] & sv[k - i]
        out.append((tuple(word), -1 if par else 1))
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


def merge_shuffle_images(acc, space, b, c, table, coeff):
    """acc += coeff * sum(c' * table[w] for w, c' in b * c), dropping zero
    entries.

    The fused form of ``merge_images(acc, shuffle_terms(space, b, c), table,
    coeff)``: walks the pair's shuffle plan and merges each shuffled word's
    image with the shuffle's sign, so no b * c dict is built and no pair is
    stored.  Only a word the table lacks is interned, and then read by
    subscript, so a ``Table`` fills the miss under the interned word.
    Terms of b * c that cancel merge their images with opposite signs.
    Mutates and returns ``acc``; ``coeff`` and the coefficients of the
    images must be nonzero.
    """
    intern = space._word_table.setdefault
    bc = b + c
    if not b or not c:
        return merge_images(acc, {intern(bc, bc): 1}, table, coeff)
    lookup = table.get
    parity = space._sparity.__getitem__
    get = acc.get
    join = "".join
    neg = -coeff
    for g, s in zip(*_shuffle_plans[tuple(map(parity, b)), tuple(map(parity, c))]):
        w = join(g(bc))
        sc = coeff if s == 1 else neg
        row = lookup(w)
        if row is None:
            row = table[intern(w, w)]
        for w2, c2 in row.items():
            val = get(w2, 0) + sc * c2
            if val:
                acc[w2] = val
            else:
                del acc[w2]
    return acc


def shuffle_terms(space: GradedSpace, u: Word, v: Word) -> dict[Word, Scalar]:
    """Terms of the shuffle product of two words, computed afresh and
    interned: the fill of the space's shuffle table (see ``shuffle``).
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
        n = _comb(max_total, count)
    else:
        n, term = 0, b ** min(count, 64)  # b^c C(c - 1, c - 1)
        for t in range(count, max_total + 1):
            n += term
            if n > COUNT_LIMIT:
                break
            term = term * b * t // (t - count + 1)  # b^(t + 1) C(t, c - 1)
    return Cases(capped(n), max_total, lambda: _word_tuples(space, count, max_total),
                 lambda: words_up_to(space, max_total - count + 1))


def _comb(n: int, k: int) -> int:
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
