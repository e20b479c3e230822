"""Reference validators: the defining identities on basis tuples.

d^2 = 0, the Leibniz rule and associativity of a dga spec, and a morphism
spec's compatibility with d and mu, each by its printed formula on
elements of the base space, given as {letter id: coefficient} dicts.  The
library checks the same identities as relations of the lifts on words; the
tests compare the two lists of (rule, inputs), in order.
"""

import itertools
import math

from shufflebv.algebra_io import builtin


def combine(*terms):
    """The sum of c x over the (c, x) of ``terms``, zero terms dropped."""
    acc = {}
    for c, x in terms:
        for b, cb in x.items():
            acc[b] = acc.get(b, 0) + c * cb
    return {b: c for b, c in acc.items() if c}


def apply(table, *args):
    """The multilinear extension of a structure-constant table to elements."""
    return combine(*(
        (math.prod(c for _, c in combo), table.get(tuple(a for a, _ in combo), {}))
        for combo in itertools.product(*(x.items() for x in args))
    ))


def dga_violations(spec):
    """(rule, inputs) of each failed identity, in ``validate_dga``'s order."""
    d, mu = spec.operations.get("d", {}), spec.operations.get("mu2", {})
    one = {a: {a: 1} for a, _ in spec.basis}
    sign = {a: (-1) ** deg for a, deg in spec.basis}
    out = [("d_squared", (a,)) for a in one if apply(d, apply(d, one[a]))]
    for a, b in itertools.product(one, repeat=2):
        if combine((1, apply(d, apply(mu, one[a], one[b]))), (-1, apply(mu, apply(d, one[a]), one[b])),
                   (-sign[a], apply(mu, one[a], apply(d, one[b])))):
            out.append(("leibniz", (a, b)))
    for a, b, c in itertools.product(one, repeat=3):
        if combine((1, apply(mu, apply(mu, one[a], one[b]), one[c])),
                   (-1, apply(mu, one[a], apply(mu, one[b], one[c])))):
            out.append(("associativity", (a, b, c)))
    return out


def morphism_violations(spec):
    """(rule, inputs) of each failed identity, in ``validate_morphism``'s
    order; both endpoints are builtins, and valid."""
    source = builtin(spec.source)
    src, tgt, f = source.operations, builtin(spec.target).operations, spec.mapping
    one = {a: {a: 1} for a, _ in source.basis}
    out = [
        ("commutes_with_d", (a,)) for a in one
        if combine((1, apply(f, apply(src.get("d", {}), one[a]))),
                   (-1, apply(tgt.get("d", {}), apply(f, one[a]))))
    ]
    for a, b in itertools.product(one, repeat=2):
        if combine((1, apply(f, apply(src.get("mu2", {}), one[a], one[b]))),
                   (-1, apply(tgt.get("mu2", {}), apply(f, one[a]), apply(f, one[b])))):
            out.append(("multiplicative", (a, b)))
    return out
