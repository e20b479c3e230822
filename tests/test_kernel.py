"""The two kernel backends must agree exactly, including term order."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from shufflebv import _kernel_py
from shufflebv import kernel
from shufflebv.graded import koszul_sign
from shufflebv.words import enumerate_shuffles

try:
    from shufflebv import _kernel_c
except ImportError:
    _kernel_c = None

BACKENDS = [_kernel_py] + ([_kernel_c] if _kernel_c else [])


def test_selected_backend_is_known():
    assert kernel.BACKEND in ("python", "c")


@pytest.mark.parametrize("mod", BACKENDS, ids=lambda m: m.BACKEND)
def test_shuffle_signed_counts_and_first_term(mod):
    u, v = ("a", "b"), ("c",)
    got = mod.shuffle_signed(u, v, (0, 0), (0,))
    assert len(got) == comb(3, 2)
    assert got[0] == (("a", "b", "c"), 1)  # u-first ordering


@pytest.mark.parametrize("mod", BACKENDS, ids=lambda m: m.BACKEND)
def test_shuffle_signed_empty_blocks(mod):
    assert mod.shuffle_signed((), ("a",), (), (1,)) == [(("a",), 1)]
    assert mod.shuffle_signed(("a",), (), (1,), ()) == [(("a",), 1)]
    assert mod.shuffle_signed((), (), (), ()) == [((), 1)]


def koszul_oracle(perm, parities):
    acc = 0
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                acc += parities[i] * parities[j]
    return acc % 2


@pytest.mark.parametrize("mod", BACKENDS, ids=lambda m: m.BACKEND)
def test_shuffle_signed_matches_shuffle_enumeration_in_order(mod):
    # The order oracle needs no second backend: enumerate_shuffles lists the
    # shuffles lexicographically in the first block's slots, Shuffle.interleave
    # builds each word and koszul_sign signs it from the permutation.
    for n, m in itertools.product(range(4), repeat=2):
        u = tuple(f"u{i}" for i in range(n))
        v = tuple(f"v{j}" for j in range(m))
        for pu in itertools.product((0, 1), repeat=n):
            for pv in itertools.product((0, 1), repeat=m):
                want = [
                    (
                        sh.interleave(u, v),
                        koszul_sign([s + 1 for s in sh.sigma], pu + pv),
                    )
                    for sh in enumerate_shuffles(n, m)
                ]
                assert mod.shuffle_signed(u, v, pu, pv) == want, (u, v, pu, pv)


@pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")
def test_backends_agree_exhaustively_small():
    letters = ("a", "b")
    for n, m in itertools.product(range(4), repeat=2):
        for u in itertools.product(letters, repeat=n):
            for pu in itertools.product((0, 1), repeat=n):
                for v in itertools.product(letters, repeat=m):
                    for pv in itertools.product((0, 1), repeat=m):
                        assert _kernel_py.shuffle_signed(
                            u, v, pu, pv
                        ) == _kernel_c.shuffle_signed(u, v, pu, pv)


@pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_backends_agree_random(data):
    n = data.draw(st.integers(0, 6))
    m = data.draw(st.integers(0, 6))
    u = tuple(data.draw(st.sampled_from("abcd")) for _ in range(n))
    v = tuple(data.draw(st.sampled_from("abcd")) for _ in range(m))
    pu = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    pv = tuple(data.draw(st.integers(0, 1)) for _ in range(m))
    assert _kernel_py.shuffle_signed(u, v, pu, pv) == _kernel_c.shuffle_signed(
        u, v, pu, pv
    )


@pytest.mark.parametrize("mod", BACKENDS, ids=lambda m: m.BACKEND)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_koszul_parity_matches_oracle(mod, data):
    n = data.draw(st.integers(0, 7))
    perm = data.draw(st.permutations(range(n))) if n else []
    parities = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    assert mod.koszul_parity(tuple(perm), parities) == koszul_oracle(perm, parities)


@pytest.mark.parametrize("mod", BACKENDS, ids=lambda m: m.BACKEND)
def test_merge_scaled(mod):
    acc = {("a",): 2, ("b",): 1}
    out = mod.merge_scaled(acc, {("a",): 1, ("c",): -4}, 2)
    assert out is acc
    assert acc == {("a",): 4, ("b",): 1, ("c",): -8}
    mod.merge_scaled(acc, {("a",): 4, ("b",): 1}, -1)
    assert acc == {("c",): -8}  # zero entries dropped
    acc = {("x",): 5}
    mod.merge_scaled(acc, {("x",): 5}, -1)
    assert acc == {}


@pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_merge_scaled_backends_agree(data):
    keys = [("a",), ("b",), ("a", "b"), ("b", "a"), ()]
    acc = {k: data.draw(st.integers(-3, 3)) for k in data.draw(st.sets(st.sampled_from(keys)))}
    acc = {k: v for k, v in acc.items() if v}
    terms = {k: data.draw(st.integers(-3, 3)) for k in data.draw(st.sets(st.sampled_from(keys)))}
    terms = {k: v for k, v in terms.items() if v}
    coeff = data.draw(st.sampled_from([1, -1, 2, -5]))
    a1, a2 = dict(acc), dict(acc)
    assert _kernel_py.merge_scaled(a1, terms, coeff) == _kernel_c.merge_scaled(a2, terms, coeff)
