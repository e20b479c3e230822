"""Reference implementations of the bracket and the order-n defect.

These are the direct definitions: the bracket by its printed formula on the
homogeneous parts of its arguments, the order-n expression by its sum over
subsets.  The library computes both from a memo by Koszul's recursion; the
tests compare the two term for term.
"""

import itertools

from shufflebv.graded import InvalidInputError
from shufflebv.words import TElement, merge_scaled, shuffle_elements, word_degree


def homogeneous_parts(x):
    """Split into word-degree-homogeneous summands, keyed by degree."""
    buckets = {}
    for w, c in x.terms.items():
        buckets.setdefault(word_degree(x.space, w), {})[w] = c
    return {d: TElement._make(x.space, t) for d, t in sorted(buckets.items())}


def shuffle_many(space, factors):
    """Left fold of the shuffle product; empty input gives the unit."""
    acc = TElement.unit(space)
    for f in factors:
        acc = shuffle_elements(acc, f)
    return acc


def bracket_reference(x, y, delta):
    """(-1)^|x| D(x * y) - (-1)^|x| D(x) * y - x * D(y), bilinearly."""
    acc = TElement.zero(x.space)
    for dx, xh in homogeneous_parts(x).items():
        sx = -1 if dx & 1 else 1
        dxh = delta(xh)
        for _, yh in homogeneous_parts(y).items():
            t = delta(shuffle_elements(xh, yh)) - shuffle_elements(dxh, yh)
            acc = acc + sx * t - shuffle_elements(xh, delta(yh))
    return acc


def order_defect_reference(D, n, inputs):
    """Sum over nonempty subsets S of the n+1 inputs of
    (-1)^(n+1-|S|+kappa) D(x_S) * x_(complement)."""
    if n < 1:
        raise InvalidInputError(f"order must be >= 1, got {n}")
    if len(inputs) != n + 1:
        raise InvalidInputError(f"need {n + 1} inputs, got {len(inputs)}")
    space = D.space
    if any(x.is_zero() for x in inputs):
        return TElement.zero(space)
    degs = [x.degree() for x in inputs]
    k = n + 1
    indices = range(k)
    subsets = sorted(
        tuple(s) for r in range(1, k + 1) for s in itertools.combinations(indices, r)
    )
    acc = {}
    for sel in subsets:
        rest = [i for i in indices if i not in sel]
        kappa = 0
        for a in rest:
            for b in sel:
                if a < b:
                    kappa ^= (degs[a] & 1) & (degs[b] & 1)
        sign = (n + 1 - len(sel) + kappa) & 1
        inner = D(shuffle_many(space, [inputs[i] for i in sel]))
        if inner.is_zero():
            continue
        term = shuffle_elements(inner, shuffle_many(space, [inputs[i] for i in rest]))
        merge_scaled(acc, term.terms, -1 if sign else 1)
    return TElement._make(space, acc)
