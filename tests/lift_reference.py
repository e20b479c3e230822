"""Reference implementation of the coderivation lift on one word.

This is the direct block scan of the lift formula in
``shufflebv.operators``: every block of k consecutive letters of w, with its
prefix sign and twist.  The library fills each image from the image of the
word's prefix; the tests compare the two term for term.
"""


def lift_image_reference(op, w):
    """sum_i (-1)^(g*(s_1+...+s_(i-1))) a_1 ... cbar(a_i,...,a_(i+k-1)) ... a_n"""
    c, space = op.component, op.space
    k = c.arity
    out = {}
    prefix_par = 0
    for i in range(len(w) - k + 1):
        if i:
            prefix_par ^= space.shifted_parity(w[i - 1])
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
