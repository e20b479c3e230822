"""Exact scalars, graded bases, Koszul signs.

Every sign in this package is computed on *shifted* degrees s = |a| + 1:
two homogeneous letters moving past one another contribute the factor
(-1)^((|a|+1)(|b|+1)).  Scalars are exact rationals over the integers;
integer inputs stay integers throughout.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from collections.abc import Iterable

# an exact rational: ``fractions`` is imported only where a scalar is not an
# int, so integer-only inputs never load it (nor ``decimal``, which it imports)
Scalar = "int | Fraction"


class InvalidInputError(ValueError):
    """Malformed argument: unknown letter, bad permutation, bad arity, ..."""


class InhomogeneousError(ValueError):
    """An element mixes several degrees where a homogeneous one is required."""


def normalize_scalar(c) -> Scalar:
    """Coerce to an exact rational (int when the denominator is 1)."""
    t = type(c)
    if t is int:
        return c
    from fractions import Fraction

    if t is Fraction:
        return int(c) if c.denominator == 1 else c
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise InvalidInputError(f"not an exact rational: {c!r}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def parse_scalar(text: str) -> Scalar:
    """Parse "p" or "p/q" in ASCII base-10 digits.  Floats are rejected, and
    so are "_" separators and non-ASCII digits, which ``int`` takes."""
    if not isinstance(text, str):
        raise InvalidInputError(f"scalar must be a string, got {text!r}")
    s = text.strip()
    try:
        if "_" in text or not text.isascii():
            raise ValueError("not ASCII base-10 digits")
        if "/" in s:
            from fractions import Fraction

            num, den = s.split("/")
            return normalize_scalar(Fraction(int(num), int(den)))
        return int(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad scalar {text!r}: {exc}") from None


def render_scalar(c: Scalar) -> str:
    c = normalize_scalar(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


class BasisLetter(namedtuple("BasisLetter", "id degree")):
    """A homogeneous basis element: symbolic id plus integer degree."""

    __slots__ = ()


def shifted_degree(letter: BasisLetter) -> int:
    """The suspended degree s = |a| + 1 governing all Koszul signs."""
    return letter.degree + 1


class GradedSpace:
    """A finite graded basis.  Immutable after construction.

    Words over the space are stored as strings with one code point per
    letter (see ``words``): the letter ids, in sorted order, take
    consecutive code points, so comparing two encoded words of one length
    compares their letter ids.  ``encode`` and ``decode`` translate between
    the two at the package's boundary.
    """

    def __init__(self, name: str, letters: Iterable[BasisLetter]):
        letters = tuple(letters)
        if not letters:
            raise InvalidInputError("a graded space needs at least one letter")
        ids = [l.id for l in letters]
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate letter ids in {name!r}")
        self.name = name
        self.letters = letters
        self._code = {a: chr(_FIRST_CODE + i) for i, a in enumerate(sorted(ids))}
        self._letter = {c: a for a, c in self._code.items()}
        # by code point: the degree, and the parity of the shifted degree,
        # the only part signs ever need
        self._degree = {self._code[l.id]: l.degree for l in letters}
        self._sparity = {self._code[l.id]: (l.degree + 1) & 1 for l in letters}
        from . import words  # words builds on this module

        # (u, v) -> the terms of u * v (``words.shuffle``); a check trims it to
        # the pairs its remaining sweeps can read (``bv._trim``)
        self._shuffle_cache = words.owned_table(self, lambda sp, uv: words.shuffle_terms(sp, *uv))
        # one str object per word, shared by every table: words are interned
        # where they are made, by ``setdefault(w, w)``; neither is pickled
        self._word_table: dict = {}
        # the live operators on the space, held weakly: each enrols itself, and
        # a check trims and empties their tables (``bv._trim``, ``bv._forget_memos``)
        self._operators = weakref.WeakSet()

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, GradedSpace)
            and self.name == other.name
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.name, self.letters))

    def __repr__(self):
        return f"GradedSpace({self.name!r}, {len(self.letters)} letters)"

    def __contains__(self, letter_id: str) -> bool:
        return letter_id in self._code

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.letters)

    def unknown(self, letter_id) -> InvalidInputError:
        """The error for a letter id that is not in this space."""
        return InvalidInputError(f"unknown letter {letter_id!r} in space {self.name!r}")

    def degree(self, letter_id: str) -> int:
        try:
            return self._degree[self._code[letter_id]]
        except KeyError:
            raise self.unknown(letter_id) from None

    def encode(self, ids: Iterable[str]) -> str:
        """The stored word of a sequence of letter ids.

        An unknown letter raises ``InvalidInputError``, and so does a bare
        string: it would otherwise be read as a word of one-character ids.
        """
        if isinstance(ids, str):
            raise InvalidInputError(
                f"a word is a sequence of letter ids, not the string {ids!r}"
            )
        try:
            return "".join(map(self._code.__getitem__, ids))
        except KeyError as exc:
            raise self.unknown(exc.args[0]) from None

    def decode(self, w: str) -> tuple[str, ...]:
        """The letter ids of a stored word."""
        return tuple(map(self._letter.__getitem__, w))

    def __getstate__(self):
        return (self.name, self.letters)

    def __setstate__(self, state):
        self.__init__(*state)


# The code point of a space's first letter id: the first 191 letters take
# one byte each in a string, and print as "A", "B", ... when debugging.
_FIRST_CODE = 0x41


def koszul_parity(perm, parities):
    """Parity of the Koszul exponent of a permutation.

    ``perm`` maps source position i to target position perm[i] (0-based);
    ``parities`` holds the degree parities of the objects in source order.
    The exponent is the sum of parities[i]*parities[j] over all inversions
    i < j with perm[i] > perm[j].
    """
    n = len(perm)
    acc = 0
    for i in range(n):
        if parities[i]:
            pi = perm[i]
            for j in range(i + 1, n):
                if parities[j] and pi > perm[j]:
                    acc ^= 1
    return acc


def koszul_sign(permutation, degrees) -> int:
    """(-1)^kappa for a permutation of graded objects.

    ``permutation`` is a bijection of {1, ..., n} given as the sequence
    (sigma(1), ..., sigma(n)); ``degrees`` are the (already shifted, if
    applicable) degrees of the objects in source order.  kappa sums
    degrees[i]*degrees[j] over the inversions of sigma.
    """
    perm = tuple(permutation)
    n = len(perm)
    if len(degrees) != n:
        raise InvalidInputError("permutation and degrees must have equal length")
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidInputError(f"not a bijection of 1..{n}: {perm}")
    par = koszul_parity(
        tuple(p - 1 for p in perm), tuple(d & 1 for d in degrees)
    )
    return -1 if par else 1
