"""Bracket, its closed form, operator order, axiom suites, sign regressions."""

import gc
import itertools
import multiprocessing
import os
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from defect_reference import bracket_reference, homogeneous_parts, order_defect_reference
from shuffle_reference import c_set, closed_form_bracket, enumerate_shuffles

import shufflebv.bv
import shufflebv.operators
from shufflebv.algebra_io import (
    AlgebraSpec,
    DGAlgebra,
    builtin,
    builtin_names,
    validate_ainf,
    validate_dga,
    validate_morphism,
)
from shufflebv.bv import (
    Bounds,
    Sweep,
    bracket,
    check_bvinf,
    check_dbv,
    check_functoriality,
    order_defect,
    run_axiom,
    run_sweeps,
)
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError
from shufflebv.operators import ComposedOperator, MultilinearMap, lift_coderivation
from shufflebv.words import (
    TElement,
    shuffle,
    word_degree,
    word_tuples_with_total,
    words_up_to,
)
from test_operators import anticommutator
from test_words import id_words


@pytest.fixture(scope="module")
def end2():
    return validate_dga(builtin("end-two-term-complex"))


@pytest.fixture(scope="module")
def full2():
    return validate_dga(builtin("full-matrix-2"))


def el(alg, w):
    return TElement.word(alg.space, w)


def corrupted_end2(entry=("b", "c"), out="a", coeff=-1):
    """end-two-term-complex with one structure constant modified; not valid."""
    spec = builtin("end-two-term-complex")
    spec.operations["mu2"][entry] = {out: coeff}
    space = spec.space()
    return DGAlgebra(space, spec.multilinear("d", space), spec.multilinear("mu2", space))


class InProcessContext:
    """Stands in for ``multiprocessing.get_context``: records the size of
    every pool asked for and runs its tasks in this process, so no process
    starts."""

    def __init__(self):
        self.pool_sizes = []

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable, chunksize=1):
        return (fn(x) for x in iterable)


# -- bracket -------------------------------------------------------------------


def test_bracket_of_degree_zero_letters(full2):
    # {(a), (b)} = mu(b, a) - mu(a, b) for degree-0 letters
    got = bracket(el(full2, ("e12",)), el(full2, ("e21",)), full2.delta_op)
    assert dict(got) == {("e22",): 1, ("e11",): -1}


def test_bracket_with_unit_vanishes(end2):
    one = TElement.unit(end2.space)
    for w in id_words(end2.space, 3):
        assert bracket(one, el(end2, w), end2.delta_op).is_zero()
        assert bracket(el(end2, w), one, end2.delta_op).is_zero()


@pytest.mark.parametrize("name", ["dual-numbers", "dual-numbers-odd"])
def test_bracket_vanishes_for_commutative_product(name):
    alg = validate_dga(builtin(name))
    words = id_words(alg.space, 3)
    for u, v in itertools.product(words, repeat=2):
        assert bracket(el(alg, u), el(alg, v), alg.delta_op).is_zero(), (u, v)


def test_bracket_is_signed_order_one_defect(end2):
    # {x, y} = (-1)^|x| * (order-1 expression of delta at (x, y)), the right
    # side by the subset-sum definition, not by the memo the bracket reads
    words = id_words(end2.space, 2)
    for u, v in itertools.product(words, repeat=2):
        x, y = el(end2, u), el(end2, v)
        sign = -1 if word_degree(end2.space, end2.space.encode(u)) & 1 else 1
        lhs = bracket(x, y, end2.delta_op)
        rhs = sign * order_defect_reference(end2.delta_op, 1, [x, y])
        assert lhs == rhs, (u, v)


def test_bracket_extends_bilinearly(end2):
    sp = end2.space
    x = TElement(sp, {("a",): 1, ("a", "b"): 2})  # mixed degrees
    y = el(end2, ("c",))
    got = bracket(x, y, end2.delta_op)
    parts = homogeneous_parts(x)
    expected = TElement.zero(sp)
    for part in parts.values():
        expected = expected + bracket(part, y, end2.delta_op)
    assert got == expected


# -- the memoised defects against the reference definitions ----------------------


def end2_operators(alg):
    d, delta = alg.d_op, alg.delta_op
    return {
        "d": d,
        "delta": delta,
        "delta.d": ComposedOperator(delta, d),
        "delta.delta": ComposedOperator(delta, delta),
        "[d,delta]": anticommutator(d, delta),
    }


def test_memo_matches_reference_on_end2_operators(end2):
    # degrees 1, -1, 0, -2 and 0: every sign branch of the recursion
    pairs = list(itertools.product(id_words(end2.space, 2), repeat=2))
    triples = list(itertools.product(id_words(end2.space, 1), repeat=3))
    nonzero = 0
    for name, op in end2_operators(end2).items():
        for u, v in pairs:
            x, y = el(end2, u), el(end2, v)
            got = bracket(x, y, op)
            assert got.terms == bracket_reference(x, y, op).terms, (name, u, v)
            got = order_defect(op, 1, [x, y])
            assert got.terms == order_defect_reference(op, 1, [x, y]).terms, (name, u, v)
            nonzero += not got.is_zero()
        for t in triples:
            xs = [el(end2, w) for w in t]
            got = order_defect(op, 2, xs)
            assert got.terms == order_defect_reference(op, 2, xs).terms, (name, t)
    assert nonzero  # the comparison is not only between zeros


def test_memo_matches_reference_on_ainf_lifts():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    for k in (1, 2, 3):
        op = ainf.delta_op(k)
        for t in word_tuples_with_total(ainf.space, k + 1, k + 3):
            xs = [TElement.word(ainf.space, ainf.space.decode(w)) for w in t]
            got = order_defect(op, k, xs)
            assert got.terms == order_defect_reference(op, k, xs).terms, (k, t)


def test_memo_matches_reference_on_mixed_coefficients(end2):
    sp = end2.space
    half = Fraction(1, 2)
    # several words of one degree each, with rational coefficients
    x = TElement(sp, {("a",): half, ("b", "e"): -3, ("e",): 1})
    y = TElement(sp, {("b",): 2, ("b", "b"): Fraction(-2, 3)})
    z = TElement(sp, {("c",): 1, ("a", "e"): half})
    for op in end2_operators(end2).values():
        assert order_defect(op, 1, [x, y]).terms == order_defect_reference(op, 1, [x, y]).terms
        got = order_defect(op, 2, [x, y, z])
        assert got.terms == order_defect_reference(op, 2, [x, y, z]).terms
    # the bracket also takes sums of words of different degrees
    mixed = TElement(sp, {("a",): half, ("a", "b"): 2, ("c",): -1, (): 3})
    for op in end2_operators(end2).values():
        for p, q in ((mixed, y), (x, mixed), (mixed, mixed)):
            assert bracket(p, q, op).terms == bracket_reference(p, q, op).terms
    assert not bracket(mixed, y, end2.delta_op).is_zero()


# -- the defect memo's lifetime ---------------------------------------------------


def test_defect_memo_lives_for_one_sweep(monkeypatch):
    # at --jobs 1 and, through the in-process stand-in pool, at --jobs 2
    # the blocks run here: the memos must be empty when a sweep's first case
    # runs, which is when a block moves on to another sweep, and when the
    # check returns
    dga = validate_dga(builtin("end-two-term-complex"))
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    ops = [dga.d_op, dga.delta_op] + [ainf.delta_op(k) for k in (1, 2, 3)]
    # the sweeps' evaluators hold these dicts: they are emptied, never replaced
    memos = [op._defects for op in ops]
    passed = []  # every per-sweep memo the checks hand the driver
    empty = lambda: all(not op._defects for op in ops) and all(not m for m in passed)
    held = []
    run_axiom_orig = shufflebv.bv.run_axiom
    run_sweeps_orig = shufflebv.bv.run_sweeps

    def watched(*args, **kwargs):
        report = run_axiom_orig(*args, **kwargs)
        held.append(sum(len(op._defects) for op in ops))
        return report

    def first_case_sees_empty_memo(evaluate):
        started = []

        def wrapped(case):
            if not started:
                assert empty()
                started.append(case)
            return evaluate(case)

        return wrapped

    def watched_sweeps(sweeps, memos=(), **kwargs):
        passed.extend(memos)
        sweeps = [
            Sweep(s.name, s.bound, s.cases, first_case_sees_empty_memo(s.evaluate))
            for s in sweeps
        ]
        return run_sweeps_orig(sweeps, memos, **kwargs)

    fake = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(shufflebv.bv, "run_axiom", watched)
    monkeypatch.setattr(shufflebv.bv, "run_sweeps", watched_sweeps)
    for jobs in (1, 2):
        held.clear()
        check_dbv(dga, Bounds(unary=2, binary=1, ternary=1, jobs=jobs))
        check_bvinf(ainf, 3, Bounds(unary=2, order_slack=1, jobs=jobs))
        assert any(held)  # the sweeps do fill the memo
        assert empty()
        assert all(op._defects is memo for op, memo in zip(ops, memos))
    # per jobs value, check_dbv hands the driver d's and delta's memos and its
    # three tables of bracket rows, check_bvinf its three lifts' memos
    assert len(passed) == 2 * (5 + 3)
    assert all(any(m is memo for m in passed) for memo in memos)
    assert fake.pool_sizes == [2, 2]  # --jobs 2 did take the pool path


def test_pool_blocks_inside_an_xy_group(end2, monkeypatch):
    # Leibniz and Jacobi read rows filled once per (x, y), the first two
    # words of a triple.  A worker's block may start inside an (x, y) group:
    # with its memos empty, after another sweep's block (memos emptied), or
    # after an earlier block of the same sweep that ended inside the group
    # (memos kept).  Each must give the failures of the same cases run in
    # order.  The even operator delta o d fails on most triples, so many
    # failures are compared, and they take the even-degree correction.
    from types import SimpleNamespace

    even = SimpleNamespace(
        space=end2.space, d_op=end2.d_op,
        delta_op=ComposedOperator(end2.delta_op, end2.d_op),
    )
    built = {}

    def keep(sweeps, memos, **kwargs):
        built.update(sweeps={s.name: s for s in sweeps}, memos=memos)
        return []

    monkeypatch.setattr(shufflebv.bv, "run_sweeps", keep)
    check_dbv(even, Bounds(unary=1, binary=1, ternary=2, fail_cap=10**6))
    sweeps, memos = built["sweeps"], built["memos"]
    forget, run = shufflebv.bv._forget_memos, shufflebv.bv._failures_in
    n = len(sweeps["bracket_leibniz"].cases)
    group = round(n ** (1 / 3))  # the triples of one (x, y)
    for name, other in (("bracket_leibniz", "bracket_jacobi"), ("bracket_jacobi", "bracket_leibniz")):
        s, o = sweeps[name], sweeps[other]
        forget(*memos)
        _, whole = run(s.cases, s.evaluate, 0, n, 10**6)
        assert len(whole) > n // 4
        for start, stop in ((group + 5, 3 * group + 2), (7, n), (n - group // 2, n)):
            for before in ("nothing", "another sweep", "this sweep"):
                forget(*memos)
                if before == "another sweep":
                    run(o.cases, o.evaluate, start, stop, 10**6)
                    forget(*memos)
                elif before == "this sweep":  # up to a start inside the group
                    run(s.cases, s.evaluate, start - 3, start, 10**6)
                _, kept = run(s.cases, s.evaluate, start, stop, 10**6)
                want = [(i, f.terms) for i, f in whole if start <= i < stop]
                assert [(i, f.terms) for i, f in kept] == want, (name, start, before)
    forget(*memos)


def test_defect_memo_fills_each_entry_once(end2, monkeypatch):
    # every F-value is computed by one Koszul step, however often the sweeps
    # and the recursion read it; the images (F_1) come from the image table
    calls = []
    step = shufflebv.operators._koszul_step

    def counted(D, key, shuffles):
        calls.append(key)
        return step(D, key, shuffles)

    monkeypatch.setattr(shufflebv.operators, "_koszul_step", counted)
    op = lift_coderivation(end2.mu)
    memo = op._defects
    words = id_words(end2.space, 2)
    for _ in range(2):
        for t in itertools.product(words, repeat=3):
            order_defect(op, 2, [el(end2, w) for w in t])
    stored = [X + (w,) for X, level in memo.items() if X for w in level]
    assert memo[()] is op._cache
    assert stored and sorted(stored) == sorted(set(stored))
    # the top-level steps of order_defect are not stored; each entry is filled once
    filled = [key for key in calls if key in set(stored)]
    assert sorted(filled) == sorted(stored)


@pytest.fixture(scope="module")
def fill_ops():
    """(label, operator): the lifts of end-two-term-complex and of ainf-mu3,
    and a composite."""
    end2 = validate_dga(builtin("end-two-term-complex"))
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    return [
        ("end2 d", end2.d_op), ("end2 delta", end2.delta_op),
        ("end2 delta.d", ComposedOperator(end2.delta_op, end2.d_op)),
        *((f"mu3 delta_{k}", ainf.delta_op(k)) for k in (1, 2, 3)),
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memo_fill_matches_subset_sum(fill_ops, data):
    # a fill shuffles the rows F_(m-1)(X, b) and F_(m-1)(X, c) straight into
    # the entry; the drawn words include the empty word and odd letters,
    # whose shuffles with themselves cancel (a * a = 0 on end2, q * q = 0 on
    # mu3); some pairs are in the space's table before the fill, some not
    label, op = data.draw(st.sampled_from(fill_ops))
    space = op.space
    words = words_up_to(space, 2)
    m = data.draw(st.integers(2, 4 if label.startswith("mu3") else 3), label="m")
    key = tuple(data.draw(st.lists(st.sampled_from(words), min_size=m, max_size=m), label="key"))
    held = data.draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(words)),
                              max_size=6), label="held")
    op._defects.clear()
    space._shuffle_cache.clear()
    for pair in held:
        space._shuffle_cache[pair]
    pairs = set(space._shuffle_cache)
    entry = op._defects[key[:-1]][key[-1]]
    assert set(space._shuffle_cache) == pairs  # no fill adds a pair
    interned = space._word_table
    for X, level in op._defects.items():
        for stored in (level.values() if X else ()):
            assert all(w is interned[w] for w in stored)
    inputs = [TElement._make(space, {w: 1}) for w in key]
    assert entry == order_defect_reference(op, m - 1, inputs).terms, (label, key)
    op._defects.clear()


def test_memo_fill_cancelling_shuffles(end2):
    # a is odd, so a * a = 0: terms of these entries cancel in the
    # accumulator, whether or not the space's table holds the pairs
    a = end2.space.encode(("a",))
    for op in (end2.delta_op, ComposedOperator(end2.delta_op, end2.d_op)):
        for held in (False, True):
            op._defects.clear()
            end2.space._shuffle_cache.clear()
            if held:
                for pair in itertools.product(("", a, a + a), repeat=2):
                    end2.space._shuffle_cache[pair]
            for key in ((a, a), (a + a, a), (a, a, a), ("", a, a)):
                inputs = [TElement._make(end2.space, {w: 1}) for w in key]
                want = order_defect_reference(op, len(key) - 1, inputs).terms
                assert op._defects[key[:-1]][key[-1]] == want, (held, key)
            op._defects.clear()


# -- allocation: cyclic garbage and interned words ----------------------------------


def test_suites_leave_no_cyclic_garbage():
    # every object the sweeps allocate is freed by reference counting alone
    dga = validate_dga(builtin("end-two-term-complex"))
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    gc.collect()
    gc.disable()
    try:
        dbv = check_dbv(dga, Bounds(unary=3, binary=2, ternary=1))
        left = [gc.collect()]
        bvinf = check_bvinf(ainf, 3, Bounds(unary=2, order_slack=1))
        left.append(gc.collect())
    finally:
        gc.enable()
    assert left == [0, 0]
    assert all(r.passed for r in dbv + bvinf)


def test_cached_words_are_interned():
    dga = validate_dga(builtin("end-two-term-complex"))
    check_dbv(dga, Bounds(unary=3, binary=2, ternary=1))
    table = dga.space._word_table
    images = [op._cache.values() for op in (dga.d_op, dga.delta_op)]
    images.append(dga.space._shuffle_cache.values())
    seen = 0
    for terms in itertools.chain.from_iterable(images):
        for w in terms:
            assert table[w] is w, w
            seen += 1
    assert seen > len(table) > 0  # words do recur across the caches
    clone = pickle.loads(pickle.dumps(dga.space))
    assert clone == dga.space
    assert clone._word_table == {} and clone._shuffle_cache == {}


def test_serial_checks_share_no_module_state():
    # a serial check run from inside another one's sweep leaves the outer
    # check's state alone
    sp = GradedSpace("s", [BasisLetter("a", 0)])
    cases = [(sp.encode(("a",)),)] * 3
    fail = lambda case: TElement._make(sp, {case[0]: 1})
    inner = []

    def nested(case):
        [report] = run_sweeps([Sweep("inner", "-", cases, fail)], space=sp)
        inner.append(report.failure_count)

    sweeps = [Sweep("outer", "-", cases, nested), Sweep("last", "-", cases, fail)]
    reports = run_sweeps(sweeps, space=sp, fail_cap=1)
    assert inner == [3, 3, 3]
    assert [(r.cases, r.failure_count, len(r.failures)) for r in reports] == [(3, 0, 0), (3, 3, 1)]
    assert shufflebv.bv._worker == {}


def test_run_axiom_pool_falls_back_to_cpu_count(monkeypatch):
    fake = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    sp = GradedSpace("s", [BasisLetter("a", 0)])
    cases = [(sp.encode(("a",)),)] * 40
    evaluate = lambda case: None
    for cpus, sizes in ((2, [2]), (None, [])):
        fake.pool_sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        [report] = run_sweeps([Sweep("noop", "-", cases, evaluate)], space=sp, jobs=100_000)
        assert (report.cases, report.failure_count) == (40, 0)
        assert fake.pool_sizes == sizes  # one CPU (unknown count): no pool


# -- C-sets and the closed form of the bracket -------------------------------------


def test_c_set_definition():
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for sh in enumerate_shuffles(n, m):
            inv = sh.inverse
            cs = c_set(sh)
            for j in range(n + m - 1):
                crosses = (inv[j] < n) != (inv[j + 1] < n)
                assert (j in cs) == crosses


def test_c_set_identity_shuffle():
    # blocks meet only at the seam
    sh = enumerate_shuffles(2, 2)[0]
    assert sh.sigma == (0, 1, 2, 3)
    assert c_set(sh) == {1}


def bracket_of(mu, u, v, op=None):
    """{u, v} of two words of letter ids, by ``bracket``, as a dict."""
    x, y = TElement.word(mu.space, u), TElement.word(mu.space, v)
    return dict(bracket(x, y, lift_coderivation(mu) if op is None else op))


def test_bracket_support_single_letters(full2):
    want = closed_form_bracket(full2.mu, ("e12",), ("e21",))
    assert want == bracket_of(full2.mu, ("e12",), ("e21",)) and len(want) == 2


def test_bracket_support_longer_words():
    # words of lengths 3 and 2, beyond the exhaustive pairs below
    mu = ARITY_2_BUILTINS["end-two-term-complex"]
    pairs = [(u, v) for n, m in ((3, 2), (2, 3))
             for u in itertools.product(mu.space.ids, repeat=n)
             for v in itertools.product(mu.space.ids, repeat=m)]
    wrong, nonzero = closed_form_mismatches(mu, pairs)
    assert not wrong and nonzero > 100


def test_bracket_support_empty_word(full2):
    assert closed_form_bracket(full2.mu, (), ("e11",)) == {}
    assert bracket_of(full2.mu, (), ("e11",)) == {}


# the arity-2 map of every builtin algebra, by name
ARITY_2_BUILTINS = {
    spec.name: spec.multilinear("mu2", spec.space())
    for spec in map(builtin, builtin_names())
    if isinstance(spec, AlgebraSpec)
}


@st.composite
def random_products(draw):
    """A random degree-0 arity-2 map over two or three letters of degrees
    -1..2, not associative in general."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=2, max_size=3))
    space = GradedSpace("rand", [BasisLetter(f"x{i}", d) for i, d in enumerate(degrees)])
    table = {}
    for a, b in itertools.product(space.ids, repeat=2):
        outs = [c for c in space.ids if space.degree(c) == space.degree(a) + space.degree(b)]
        for c in outs:
            coeff = draw(st.integers(-2, 2))
            if coeff:
                table.setdefault((a, b), {})[c] = coeff
    return MultilinearMap(space, 2, 0, table)


@st.composite
def closed_form_cases(draw):
    """A degree-0 arity-2 map, builtin or random, and a pair of its words of
    total length <= 5, either possibly empty."""
    mu = draw(st.one_of(st.sampled_from(sorted(ARITY_2_BUILTINS)).map(ARITY_2_BUILTINS.get),
                        random_products()))
    letters = st.sampled_from(mu.space.ids)
    u = tuple(draw(st.lists(letters, max_size=3), label="u"))
    v = tuple(draw(st.lists(letters, max_size=5 - max(len(u), 2)), label="v"))
    return mu, u, v


@settings(max_examples=300, deadline=None)
@given(closed_form_cases())
def test_closed_form_bracket_matches_bracket(case):
    mu, u, v = case
    assert bracket_of(mu, u, v) == closed_form_bracket(mu, u, v), (u, v)


def closed_form_mismatches(mu, pairs):
    """The pairs of words on which ``bracket`` and the closed form differ,
    or which have a term not of length |u| + |v| - 1, and how many of the
    pairs have a nonzero bracket."""
    op = lift_coderivation(mu)
    wrong, nonzero = [], 0
    for u, v in pairs:
        want = closed_form_bracket(mu, u, v)
        nonzero += bool(want)
        if bracket_of(mu, u, v, op) != want or any(len(w) != len(u) + len(v) - 1 for w in want):
            wrong.append((u, v))
    return wrong, nonzero


def short_pairs(mu):
    """Every pair of words of length <= 2, the empty word included."""
    words = [()] + [w for n in (1, 2) for w in itertools.product(mu.space.ids, repeat=n)]
    return itertools.product(words, repeat=2)


def test_closed_form_bracket_matches_bracket_on_builtins():
    # exhaustively, beside the sampled test above; the bracket of a graded
    # commutative product, such as diagonal-2's, is zero
    nonzero = {}
    for name, mu in ARITY_2_BUILTINS.items():
        wrong, nonzero[name] = closed_form_mismatches(mu, short_pairs(mu))
        assert not wrong, name
    assert sum(n > 0 for n in nonzero.values()) >= 4, nonzero


def test_closed_form_catches_a_dropped_word_sign(monkeypatch):
    # negative control: the rows of an odd operator's bracket without the
    # sign (-1)^|u|
    def unsigned_rows(delta, xterms):
        return [(delta._defects[(u,)], cu, None) for u, cu in xterms.items()]

    monkeypatch.setattr(shufflebv.bv, "_bracket_rows", unsigned_rows)
    mu = ARITY_2_BUILTINS["end-two-term-complex"]
    wrong, _ = closed_form_mismatches(mu, short_pairs(mu))
    assert wrong


# -- operator order ----------------------------------------------------------------


def test_order_one_for_lifted_differential(end2):
    words = id_words(end2.space, 3)
    for u, v in itertools.product(words, repeat=2):
        assert order_defect(end2.d_op, 1, [el(end2, u), el(end2, v)]).is_zero()


def test_order_two_for_lifted_product(end2):
    words = id_words(end2.space, 2)
    for t in itertools.product(words, repeat=3):
        assert order_defect(end2.delta_op, 2, [el(end2, w) for w in t]).is_zero()


def test_order_three_for_arity_three_lift():
    sp = GradedSpace("s", [BasisLetter("p", 1), BasisLetter("q", 2), BasisLetter("r", 3)])
    mu3 = MultilinearMap(sp, 3, -1, {("p", "p", "p"): {"q": 1}, ("p", "p", "q"): {"r": -1}})
    op = lift_coderivation(mu3)
    singles = [(a,) for a in sp.ids]
    for t in itertools.product(singles, repeat=4):
        assert order_defect(op, 3, [TElement.word(sp, w) for w in t]).is_zero()


def test_order_hierarchy(end2):
    # order n implies order n+1, on lifted d and the product lift
    words = id_words(end2.space, 1)
    for t in itertools.product(words, repeat=3):
        assert order_defect(end2.d_op, 2, [el(end2, w) for w in t]).is_zero()
    for t in itertools.product(words, repeat=4):
        assert order_defect(end2.delta_op, 3, [el(end2, w) for w in t]).is_zero()


def test_order_defect_errors(end2):
    x = el(end2, ("a",))
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 2, [x, x])  # needs 3 inputs
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 0, [x])
    mixed = TElement(end2.space, {("a",): 1, ("a", "a"): 1})
    with pytest.raises(Exception):
        order_defect(end2.delta_op, 1, [mixed, x])


def test_bracket_and_order_defect_reject_foreign_elements(end2, full2):
    x, other = el(end2, ("a",)), el(full2, ("e11",))
    with pytest.raises(InvalidInputError):
        bracket(x, other, end2.delta_op)
    with pytest.raises(InvalidInputError):
        order_defect(end2.delta_op, 1, [x, other])


def test_bracket_rejects_an_operator_over_another_space():
    # B swaps A's degrees: B's product lift applied to A's words would sign
    # them by B's degrees and label the result as an element of A
    A = GradedSpace("A", [BasisLetter("a", 0), BasisLetter("b", 1)])
    B = GradedSpace("B", [BasisLetter("a", 1), BasisLetter("b", 0)])
    delta_B = lift_coderivation(MultilinearMap(B, 2, 0, {("a", "b"): {"a": 1}}))
    x, y = TElement.word(A, ("a",)), TElement.word(A, ("b",))
    with pytest.raises(InvalidInputError, match="different space"):
        bracket(x, y, delta_B)
    with pytest.raises(InvalidInputError, match="different spaces"):
        order_defect(delta_B, 1, [x, y])


def test_order_defect_zero_input_gives_zero(end2):
    z = TElement.zero(end2.space)
    assert order_defect(end2.delta_op, 1, [z, el(end2, ("a",))]).is_zero()


# -- sign regressions (term-level coefficient equalities) ---------------------------


def _case_blocks(n, m, degs_u, degs_v, pair, out_degree):
    letters = [BasisLetter(f"u{t + 1}", degs_u[t]) for t in range(n)]
    letters += [BasisLetter(f"v{t + 1}", degs_v[t]) for t in range(m)]
    letters.append(BasisLetter("w", out_degree))
    sp = GradedSpace("reg", letters)
    mu = MultilinearMap(sp, 2, 0, {pair: {"w": 1}})
    u = tuple(f"u{t + 1}" for t in range(n))
    v = tuple(f"v{t + 1}" for t in range(m))
    return sp, mu, u, v


def shuffle_then_delta_agrees(n, m, i, j, degs_u, degs_v):
    """Moving the first j letters of v just before u_i and then multiplying
    the pair (u_i, u_(i+1)) gives the same signed term as multiplying first
    and shuffling afterwards."""
    sp, mu, u, v = _case_blocks(
        n, m, degs_u, degs_v, (f"u{i}", f"u{i + 1}"), degs_u[i - 1] + degs_u[i]
    )
    delta = lift_coderivation(mu)
    W = u[: i - 1] + v[:j] + u[i - 1 :] + v[j:]
    T = u[: i - 1] + v[:j] + ("w",) + u[i + 1 :] + v[j:]
    c_route_a = dict(shuffle(sp, u, v)).get(W, 0) * dict(
        delta(TElement.word(sp, W))
    ).get(T, 0)
    uprime = u[: i - 1] + ("w",) + u[i + 1 :]
    c_route_b = dict(delta(TElement.word(sp, u))).get(uprime, 0) * dict(
        shuffle(sp, uprime, v)
    ).get(T, 0)
    assert c_route_a != 0 and c_route_b != 0
    return c_route_a == c_route_b


def delta_first_discrepancy(n, m, i, j, degs_u, degs_v):
    """Moving the tail of u past v_(j+1) and multiplying (v_j, v_(j+1))
    differs from multiplying first by exactly (-1)^(|a_1|+...+|a_n|+n)."""
    sp, mu, u, v = _case_blocks(
        n, m, degs_u, degs_v, (f"v{j}", f"v{j + 1}"), degs_v[j - 1] + degs_v[j]
    )
    delta = lift_coderivation(mu)
    W = u[:i] + v[: j + 1] + u[i:] + v[j + 1 :]
    T = u[:i] + v[: j - 1] + ("w",) + u[i:] + v[j + 1 :]
    c_route_a = dict(shuffle(sp, u, v)).get(W, 0) * dict(
        delta(TElement.word(sp, W))
    ).get(T, 0)
    vprime = v[: j - 1] + ("w",) + v[j + 1 :]
    c_route_b = dict(delta(TElement.word(sp, v))).get(vprime, 0) * dict(
        shuffle(sp, u, vprime)
    ).get(T, 0)
    assert c_route_a != 0 and c_route_b != 0
    expected = (-1) ** ((sum(degs_u) + n) % 2)
    return c_route_a == expected * c_route_b


def test_sign_regression_shuffle_then_delta_agrees():
    for n, m in [(2, 1), (2, 2), (3, 2)]:
        for i in range(1, n):
            for j in range(1, m + 1):
                for degs_u in itertools.product((0, 1), repeat=n):
                    for degs_v in itertools.product((0, 1), repeat=m):
                        assert shuffle_then_delta_agrees(
                            n, m, i, j, list(degs_u), list(degs_v)
                        ), (n, m, i, j, degs_u, degs_v)


def test_sign_regression_delta_first_discrepancy():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        for i in range(1, n):
            for j in range(1, m):
                for degs_u in itertools.product((0, 1), repeat=n):
                    for degs_v in itertools.product((0, 1), repeat=m):
                        assert delta_first_discrepancy(
                            n, m, i, j, list(degs_u), list(degs_v)
                        ), (n, m, i, j, degs_u, degs_v)


# -- suites -------------------------------------------------------------------------


def test_check_dbv_passes_on_end2(end2):
    reports = check_dbv(end2, Bounds(unary=4, binary=2, ternary=1))
    assert [r.name for r in reports] == [
        "d_squared",
        "delta_squared",
        "d_delta_anticommutator",
        "d_derivation",
        "bracket_antisymmetry",
        "bracket_leibniz",
        "bracket_jacobi",
        "delta_order_2",
    ]
    assert all(r.passed for r in reports)
    assert all(r.failure_count == 0 and not r.failures for r in reports)


def test_check_dbv_commutative_case():
    alg = validate_dga(builtin("dual-numbers"))
    reports = check_dbv(alg, Bounds(unary=3, binary=2, ternary=1))
    assert all(r.passed for r in reports)


def test_check_dbv_reports_corruption_with_witness():
    bad = corrupted_end2()
    reports = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1))
    failing = [r for r in reports if not r.passed]
    assert failing
    witness = failing[0].failures[0]
    assert witness.inputs and not witness.defect.is_zero()


def test_check_dbv_fail_cap():
    bad = corrupted_end2()
    reports = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, fail_cap=2))
    failing = [r for r in reports if not r.passed]
    assert failing
    assert any(r.failure_count > 2 for r in failing)
    assert all(len(r.failures) <= 2 for r in failing)


def test_check_dbv_parallel_matches_sequential(end2):
    seq = check_dbv(end2, Bounds(unary=3, binary=1, ternary=1, jobs=1))
    par = check_dbv(end2, Bounds(unary=3, binary=1, ternary=1, jobs=2))
    assert [(r.name, r.cases, r.failure_count) for r in seq] == [
        (r.name, r.cases, r.failure_count) for r in par
    ]


def test_check_dbv_parallel_reports_failures_deterministically():
    bad = corrupted_end2()
    seq = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, jobs=1))
    par = check_dbv(bad, Bounds(unary=3, binary=2, ternary=1, jobs=2))
    for a, b in zip(seq, par):
        assert a.failure_count == b.failure_count
        assert [(f.inputs, f.defect.terms) for f in a.failures] == [
            (f.inputs, f.defect.terms) for f in b.failures
        ]


def test_check_bvinf_on_dga_viewed_as_ainf(end2):
    spec = builtin("end-two-term-complex")
    spec.kind = "ainf"
    ainf = validate_ainf(spec, 3)
    reports = check_bvinf(ainf, 3, Bounds(unary=4, order_slack=1))
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    # the arity-3 lift is the zero operator here
    assert not ainf.delta_op(3).component.table


def test_check_bvinf_on_mu3_fixture():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    reports = check_bvinf(ainf, 3, Bounds(unary=5))
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert "order_3_delta_-3" in names and "sum_relation_n_-6" in names
    # the arity-3 lift is genuinely nonzero
    assert ainf.delta_op(3).component.table


def test_check_bvinf_requires_arity_2():
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    with pytest.raises(InvalidInputError):
        check_bvinf(ainf, 1)


def test_check_bvinf_zero_arity_is_not_a_default():
    # K=0 is a bound, not "no bound": it must not run at the fixture's arity
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    with pytest.raises(InvalidInputError, match="max arity must be >= 2"):
        check_bvinf(ainf, 0, Bounds(unary=1, order_slack=0))


def test_check_bvinf_above_top_arity():
    # K larger than any stored table: the extra lifts are zero operators,
    # their order and relation checks pass vacuously
    ainf = validate_ainf(builtin("ainf-mu3"), 4)
    reports = check_bvinf(ainf, 4, Bounds(unary=3, order_slack=0))
    assert all(r.passed for r in reports)
    assert any(r.name == "order_4_delta_-5" for r in reports)


def test_check_dbv_on_full_matrix_algebra(full2):
    reports = check_dbv(full2, Bounds(unary=3, binary=2, ternary=1))
    assert all(r.passed for r in reports)


def test_check_functoriality_builtin_morphism():
    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    reports = check_functoriality(morph, Bounds(unary=3, binary=3))
    assert all(r.passed for r in reports)


def test_check_functoriality_identity(end2):
    from shufflebv.algebra_io import DGMorphism

    sp = end2.space
    ident = MultilinearMap(sp, 1, 0, {(a,): {a: 1} for a in sp.ids})
    morph = DGMorphism(end2, end2, ident)
    assert all(r.passed for r in check_functoriality(morph, Bounds(unary=3, binary=2)))


def test_induced_morphism_commutes_with_bracket():
    from shufflebv.operators import induced_morphism

    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    F = induced_morphism(morph.fmap)
    src, tgt = morph.source, morph.target
    words = id_words(src.space, 2)
    for u, v in itertools.product(words, repeat=2):
        lhs = F(bracket(el(src, u), el(src, v), src.delta_op))
        rhs = bracket(F(el(src, u)), F(el(src, v)), tgt.delta_op)
        assert lhs == rhs, (u, v)


def test_run_axiom_counts():
    sp = GradedSpace("s", [BasisLetter("a", 0)])
    cases = [(sp.encode(("a",) * i),) for i in (2, 0, 1)]
    evaluate = lambda c: TElement._make(sp, {c[0]: 1})
    blocks = [shufflebv.bv._failures_in(cases, evaluate, 0, len(cases), 1)]
    report = run_axiom("demo", "n/a", cases, sp, fail_cap=1, blocks=blocks)
    assert report.cases == 3 and report.failure_count == 3 and len(report.failures) == 1
    assert report.failures[0].inputs == (("a", "a"),)  # decoded to letter ids
    assert not report.passed
