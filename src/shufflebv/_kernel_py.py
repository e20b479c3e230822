"""Pure-Python kernel: shuffle enumeration and Koszul sign parities.

The compiled kernel in ``_kernel_c.pyx`` implements the same two functions
with identical output, including enumeration order.  Signs only depend on
degrees mod 2, so both kernels work on parity vectors (entries 0 or 1).
"""

from __future__ import annotations

BACKEND = "python"


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


def merge_scaled(acc, terms, coeff):
    """acc[w] += coeff * c for every (w, c) in terms, dropping zero entries.

    Mutates and returns ``acc``; ``coeff`` must be nonzero.
    """
    get = acc.get
    pop = acc.pop
    if coeff == 1:
        for w, c in terms.items():
            val = get(w, 0) + c
            if val:
                acc[w] = val
            else:
                pop(w, None)
    else:
        for w, c in terms.items():
            val = get(w, 0) + coeff * c
            if val:
                acc[w] = val
            else:
                pop(w, None)
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
