"""Reference shuffles and the closed form of the bracket, on letter ids.

``shuffle_signed`` lists the signed shuffles of two words, one per choice of
the slots that the first word's letters take; the library builds every
shuffle product by the recursion by last letters instead, and the tests
compare the two.  ``enumerate_shuffles`` lists the block shuffles of two
words as permutations;
``c_set`` gives the positions of a shuffled word where the two blocks touch.
``closed_form_bracket`` sums the product over those positions, shuffle by
shuffle: the bracket of the lift of a product is its order-2 defect, and
only the terms that multiply a letter of u with a letter of v survive
(Koszul 1985; Akman 1997).  The library computes the bracket from a memo by
Koszul's recursion; the tests compare the two term for term.
"""

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import xor

from shufflebv.graded import InvalidInputError, koszul_sign


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
    sv = list(accumulate(pv, xor, initial=0))
    out = []
    for slots in combinations(range(len(u) + len(v)), len(u)):
        word, par = list(v), 0
        for i, k in enumerate(slots):
            word.insert(k, u[i])
            par ^= pu[i] & sv[k - i]
        out.append((tuple(word), -1 if par else 1))
    return out


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

    def interleave(self, u, v) -> tuple:
        """The shuffled sequence: position p receives item number inverse[p]."""
        uv = tuple(u) + tuple(v)
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


def c_set(sh: Shuffle) -> frozenset[int]:
    """The C-set of a shuffle: the positions j (0-based) where exactly one
    of slots j, j+1 came from the first block."""
    inv, n = sh.inverse, sh.n
    return frozenset(j for j in range(len(inv) - 1) if (inv[j] < n) != (inv[j + 1] < n))


def closed_form_bracket(mu, u, v) -> dict[tuple[str, ...], int]:
    """{u, v} for the lift of the degree-0 arity-2 map ``mu``, on two words
    given by their letter ids, as a dict from words to coefficients:

        {u, v} = (-1)^|u| sum_sigma eps_sigma sum_(j in C(sigma))
                 (-1)^(s(w_<j) + |w_j|) w_<j (x) mu(w_j, w_j+1) (x) w_>j+1,

    with w = sigma(u, v), eps_sigma the Koszul sign of sigma on shifted
    degrees, s(w_<j) the sum of the shifted degrees of the letters before
    position j, |w_j| the degree of the left letter, |u| the word degree;
    {u, v} = 0 when u or v is empty.
    """
    if not u or not v:
        return {}
    degree = mu.space.degree
    shifted = [degree(a) + 1 for a in tuple(u) + tuple(v)]
    sign_u = -1 if sum(shifted[: len(u)]) & 1 else 1
    out = {}
    for sh in enumerate_shuffles(len(u), len(v)):
        eps = koszul_sign([t + 1 for t in sh.sigma], shifted)
        w = sh.interleave(u, v)
        for j in sorted(c_set(sh)):
            s = sum(degree(a) + 1 for a in w[:j]) + degree(w[j])
            sign = sign_u * eps * (-1 if s & 1 else 1)
            for b, c in mu.table.get((w[j], w[j + 1]), {}).items():
                key = w[:j] + (b,) + w[j + 2 :]
                out[key] = out.get(key, 0) + sign * c
    return {w: c for w, c in out.items() if c}
