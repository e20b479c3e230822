"""Reference implementations for the coderivation lifts, on letter ids.

``lift_image_reference`` is the direct block scan of the lift formula in
``shufflebv.operators``: every block of k consecutive letters of w, with its
prefix sign and twist.  The library fills each image from the image of the
word's prefix; the tests compare the two term for term.
``coderivation_defect`` measures how far an operator is from being a
coderivation of the deconcatenation coproduct.
"""


def shifted_parity(space, letter_id):
    """Parity of the shifted degree |a| + 1 of a letter."""
    return (space.degree(letter_id) + 1) & 1


def lift_image_reference(op, w):
    """sum_i (-1)^(g*(s_1+...+s_(i-1))) a_1 ... cbar(a_i,...,a_(i+k-1)) ... a_n"""
    c, space = op.component, op.space
    k = c.arity
    out = {}
    prefix_par = 0
    for i in range(len(w) - k + 1):
        if i:
            prefix_par ^= shifted_parity(space, w[i - 1])
        block = w[i : i + k]
        entry = c.table.get(block)
        if not entry:
            continue
        twist = 0
        for j in range(k):
            if (k - 1 - j) & 1:
                twist ^= space.degree(block[j]) & 1
        sign = -1 if (op.degree & 1 and prefix_par) ^ twist else 1
        for b, coeff in entry.items():
            w2 = w[:i] + (b,) + w[i + k :]
            val = out.get(w2, 0) + sign * coeff
            if val:
                out[w2] = val
            else:
                del out[w2]
    return out


def coderivation_defect(D, w):
    """Defect of the coderivation identity at one word of letter ids.

    Computes (coproduct o D - (D (x) id + id (x) D) o coproduct)(w) as a
    formal sum over split pairs; the id (x) D summand carries the Koszul
    sign (-1)^(deg D * degree of the left part).  Empty result means D is
    a coderivation at w.
    """
    space = D.space
    w = tuple(w)
    acc = {}

    def add(pair, c):
        val = acc.get(pair, 0) + c
        if val:
            acc[pair] = val
        elif pair in acc:
            del acc[pair]

    def splits(word):
        return [(word[:i], word[i:]) for i in range(len(word) + 1)]

    for w1, c in D(w):
        for pair in splits(w1):
            add(pair, c)
    dpar = D.degree & 1
    for left, right in splits(w):
        for l2, c in D(left):
            add((l2, right), -c)
        left_par = sum(shifted_parity(space, a) for a in left) & 1
        sign = -1 if (dpar and left_par) else 1
        for r2, c in D(right):
            add((left, r2), -sign * c)
    return acc
