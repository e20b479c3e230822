"""DG algebras that are valid by construction, for property tests.

``end_of_complex(degrees, boundary)`` is End(C), the endomorphisms of a
finite complex C with basis v_1, ..., v_n in the given degrees.  Its
letters are the matrix units E_ij (v_j -> v_i), of degree e_i - e_j, with

    E_ij E_kl = delta_jk E_il,    d f = bd f - (-1)^|f| f bd,

where bd = sum of c E_ij over the (i, j): c of ``boundary`` is C's
differential.  End(C) is a DGA whenever bd has degree +1 and bd^2 = 0;
neither is checked here, so that a broken bd can be built too (validation
rejects it).

``random_dga(rng)`` and ``random_ainf(rng)`` are random algebras with
degree-consistent tables, valid or not, for oracles that hold on any table.
"""

import itertools

from shufflebv.algebra_io import AlgebraSpec


def unit(i, j):
    """The letter id of E_ij, indices from 1."""
    return f"E{i}{j}"


def end_of_complex(degrees, boundary):
    """End(C) as a dga spec (see the module docstring)."""
    if len(degrees) > 9:
        raise ValueError("letter ids take one digit per index")
    e = dict(enumerate(degrees, 1))
    pairs = [(i, j) for i in e for j in e]
    mu2 = {
        (unit(i, j), unit(j, l)): {unit(i, l): 1}
        for i, j in pairs
        for l in e
    }
    d = {}
    for i, j in pairs:
        image = {}
        # bd E_ij = sum_k c_ki E_kj, and E_ij bd = sum_l c_jl E_il
        for (k, l), c in boundary.items():
            if l == i:
                image[unit(k, j)] = image.get(unit(k, j), 0) + c
            if k == j:
                sign = -1 if (e[i] - e[j]) % 2 else 1
                image[unit(i, l)] = image.get(unit(i, l), 0) - sign * c
        image = {w: c for w, c in image.items() if c}
        if image:
            d[(unit(i, j),)] = image
    basis = [(unit(i, j), e[i] - e[j]) for i, j in pairs]
    return AlgebraSpec("end-of-complex", "dga", basis, {"d": d, "mu2": mu2})


def random_table(rng, degree, arity, shift):
    """A table of an arity-``arity`` map of degree ``shift`` on the letters
    of the dict ``degree`` (id: degree), drawn from ``rng``: each entry that
    the degrees allow is drawn from {-1, 0, 1}."""
    out = {}
    for ids in itertools.product(degree, repeat=arity):
        target = sum(map(degree.get, ids)) + shift
        image = {c: rng.choice((-1, 0, 1)) for c, g in degree.items() if g == target}
        image = {c: k for c, k in image.items() if k}
        if image:
            out[ids] = image
    return out


def random_dga(rng):
    """A dga spec drawn from the ``random.Random`` ``rng``: 2 or 3 letters
    of degrees in {-1, 0, 1}, and its d and mu2 tables (``random_table``).
    It is not valid in general: build it with ``from_spec_unchecked``."""
    degree = {f"x{i}": rng.choice((-1, 0, 1)) for i in range(rng.choice((2, 3)))}
    return AlgebraSpec("random-dga", "dga", list(degree.items()),
                       {"d": random_table(rng, degree, 1, 1),
                        "mu2": random_table(rng, degree, 2, 0)})


def random_ainf(rng):
    """An A-infinity spec drawn from the ``random.Random`` ``rng``: 2 or 3
    letters of degrees in {-1, 0, 1, 2}, and its mu_1 (labelled d), mu_2
    and mu_3 tables (``random_table``), each of degree 2 - k; a table with
    no entry is left out, so every table may be.  It is not valid in
    general: build it with ``from_spec_unchecked``."""
    degree = {f"x{i}": rng.choice((-1, 0, 1, 2)) for i in range(rng.choice((2, 3)))}
    tables = {label: random_table(rng, degree, k, 2 - k)
              for k, label in ((1, "d"), (2, "mu2"), (3, "mu3"))}
    return AlgebraSpec("random-ainf", "ainf", list(degree.items()),
                       {label: table for label, table in tables.items() if table})
