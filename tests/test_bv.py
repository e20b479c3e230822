"""Bracket, its closed form, operator order, axiom suites, sign regressions."""

import gc
import itertools
import multiprocessing
import os
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from defect_reference import bracket_reference, homogeneous_parts, order_defect_reference
from shuffle_reference import c_set, closed_form_bracket, enumerate_shuffles
from test_words import prefix_pairs, recorded_unstored

import shufflebv.bv
import shufflebv.operators
from shufflebv.algebra_io import (
    AinfAlgebra,
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
    _add_rows,
    _add_word,
    _bracket_rows,
    _word_bracket,
    bracket,
    check_bvinf,
    check_dbv,
    check_functoriality,
    order_defect,
    run_axiom,
    run_sweeps,
)
from shufflebv.graded import BasisLetter, GradedSpace, InvalidInputError
from shufflebv.operators import (
    CompositeSum,
    MultilinearMap,
    _koszul_step,
    composition_relations,
    defect_table,
    induced_morphism,
    lift_coderivation,
)
from shufflebv.words import (
    Cases,
    TElement,
    merge_scaled,
    shuffle,
    word_degree,
    word_parity,
    words_up_to,
)
from case_reference import word_tuples_with_total
from generated_dgas import random_ainf, random_dga, random_table
from lift_reference import coderivation_defect
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


def streamed(cases, reach=1):
    """A list of cases as a stream, like the ones the suites build, its
    words placed in sorted order."""
    return Cases(len(cases), reach, lambda: iter(cases), lambda: sorted({w for c in cases for w in c}))


class InProcessContext:
    """Stands in for ``multiprocessing.get_context``: records the size of
    every pool asked for and runs its tasks in this process, so no process
    starts.  On entry it runs the pool's initializer here, as a worker
    would; on exit it puts back the ``_worker`` state that it found."""

    def __init__(self):
        self.pool_sizes = []

    def __call__(self, method):
        assert method == "fork"
        return self

    def Pool(self, processes, initializer=None, initargs=()):
        self.pool_sizes.append(processes)
        self.init = (initializer, initargs)
        return self

    def __enter__(self):
        self.saved = dict(shufflebv.bv._worker)
        initializer, initargs = self.init
        if initializer is not None:
            initializer(*initargs)
        return self

    def __exit__(self, *exc):
        shufflebv.bv._worker.clear()
        shufflebv.bv._worker.update(self.saved)
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


# -- the one-word bracket kernel ---------------------------------------------------


def bracket_operator(alg, label):
    """"delta", the lifted product, which is odd, or "delta.d", delta o d,
    an even operator whose bracket takes the correction 2 u * D(y) on odd
    words u.  A test on "delta.d" tests that correction formula, not the
    paper's theorem, whose operators are odd."""
    return alg.delta_op if label == "delta" else CompositeSum([(1, alg.delta_op, alg.d_op)])


def fresh_step(op, key):
    """F_m(key) by one Koszul step on a new memo of ``op``, its own put back."""
    memo, op._defects = op._defects, defect_table(op)
    try:
        return _koszul_step(op, key, None)
    finally:
        op._defects = memo


@pytest.mark.parametrize("label", ["delta", "delta.d"])
def test_one_word_kernel_matches_bracket(end2, label):
    # on every pair of words of length <= 2, the kernel adds {x, y} to an
    # empty and to a nonempty accumulator, with a Fraction coeff; the
    # shortcut gives the memo entry itself exactly when x has one row and
    # no correction, and a new dict otherwise
    delta = bracket_operator(end2, label)
    space = end2.space
    words = words_up_to(space, 2)
    start = {words[1]: Fraction(1, 3), words[-1]: 2}
    coeff = Fraction(-3, 2)
    corrected = 0
    for x, y in itertools.product(words, repeat=2):
        ex, ey = TElement._make(space, {x: 1}), TElement._make(space, {y: 1})
        want = bracket(ex, ey, delta)
        assert want == bracket_reference(ex, ey, delta), (x, y)
        rows = _bracket_rows(delta, {x: 1})
        assert _add_word({}, delta, rows, y) == want.terms, (x, y)
        assert (_add_word(dict(start), delta, rows, y, coeff)
                == merge_scaled(dict(start), want.terms, coeff)), (x, y)
        assert _add_rows(dict(start), delta, rows, {y: 2}, coeff) == merge_scaled(
            dict(start), want.terms, 2 * coeff), (x, y)
        terms, c = _word_bracket(delta, rows, y)
        assert merge_scaled({}, terms, c) == want.terms, (x, y)
        entry = delta._defects[(x,)][y]
        if rows[0][2] is None:
            assert terms is entry, (x, y)
        else:
            corrected += 1
            assert terms is not entry and c == 1, (x, y)
    # delta is odd and takes no correction; delta o d takes it on each odd x
    odd_words = sum(word_degree(space, x) & 1 for x in words)
    assert corrected == (0 if delta.degree & 1 else odd_words * len(words)) and odd_words
    # an element of two words has two rows: its bracket is a new dict
    x = {words[1]: 1, words[-1]: Fraction(1, 2)}
    rows = _bracket_rows(delta, x)
    for y in words:
        terms, c = _word_bracket(delta, rows, y)
        assert c == 1 and all(terms is not level[y] for level, _, _ in rows), y
        want = bracket(TElement._make(space, x), TElement._make(space, {y: 1}), delta)
        assert terms == want.terms, y
    shufflebv.bv._forget_memos(space)


@pytest.mark.parametrize("label", ["delta", "delta.d"])
def test_bracket_sweeps_only_read_memo_entries(end2, label, monkeypatch):
    # the sweeps are handed F_2 entries of delta's memo by reference, and
    # entries the next sweep reads are kept for it: before each pruning of
    # the memo, every entry it holds must still equal a fresh Koszul step,
    # taken on a new memo
    delta = bracket_operator(end2, label)
    alg = SimpleNamespace(space=end2.space, d_op=end2.d_op, delta_op=delta)
    forget = shufflebv.bv._forget_memos
    checked, kept = [], []  # entries held before and after each pruning

    def guarded(space, *memos, keep=None):
        held = [(X + (w,), entry) for X, level in delta._defects.items() if len(X) == 1
                for w, entry in level.items()]
        for key, entry in held:
            assert entry == fresh_step(delta, key), key
        checked.append(len(held))
        forget(space, *memos, keep=keep)
        kept.append(sum(len(level) for X, level in delta._defects.items() if X))

    monkeypatch.setattr(shufflebv.bv, "_forget_memos", guarded)
    reports = check_dbv(alg, Bounds(3, 2, 2))
    assert [r.name for r in reports][4:8] == ["bracket_antisymmetry", "bracket_leibniz",
                                                "bracket_jacobi", "delta_order_2"]
    # the memo is pruned as each of the eight sweeps starts and emptied as
    # the check ends; the bracket sweeps leave entries behind, and the next
    # sweep is handed those it reads, so an entry is checked after every
    # sweep that read it
    assert len(checked) == 9 and all(checked[5:8]), checked
    assert all(kept[5:8]) and not any(kept[:5] + kept[8:]), kept


# -- the memoised defects against the reference definitions ----------------------


def end2_operators(alg):
    d, delta = alg.d_op, alg.delta_op
    return {
        "d": d,
        "delta": delta,
        "delta.d": CompositeSum([(1, delta, d)]),
        "delta.delta": CompositeSum([(1, delta, delta)]),
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


def test_defect_memo_holds_only_what_the_sweep_reads(monkeypatch):
    # at --jobs 1 and, through the in-process stand-in pool, at --jobs 2
    # the shares run here.  When a sweep's first case runs, which is when a
    # share moves on to another sweep, the per-sweep memos are empty, and
    # every entry the defect memos hold is an F_2 entry within the bounds
    # the sweep reads (none if it states none) and equals a fresh Koszul
    # step; when the check returns, everything is empty
    dga = validate_dga(builtin("end-two-term-complex"))
    ainf = validate_ainf(builtin("ainf-mu3"), 3)
    ops = [dga.d_op, dga.delta_op] + [ainf.delta_op(k) for k in (1, 2, 3)]
    # the sweeps' evaluators hold these dicts: they are emptied, never replaced
    memos = [op._defects for op in ops]
    passed = []  # every per-sweep memo the checks hand the driver
    empty = lambda: all(not op._defects for op in ops) and all(not m for m in passed)
    held = []  # the entries held at each sweep's first case
    run_sweeps_orig = shufflebv.bv.run_sweeps

    def first_case_sees_its_reads(sweep):
        started = []

        def wrapped(case):
            if not started:
                started.append(case)
                assert all(not m for m in passed), sweep.name
                levels = [(op, X, level) for op in ops for X, level in op._defects.items()]
                if sweep.reads is None:
                    assert not levels, sweep.name
                else:
                    m, n = sweep.reads
                    assert all(len(X) == 1 and len(X[0]) <= m for _, X, _ in levels), sweep.name
                    assert all(len(w) <= n for _, _, level in levels for w in level), sweep.name
                entries = [(op, X + (w,), entry) for op, X, level in levels
                           for w, entry in level.items()]
                for op, key, entry in entries:
                    assert entry == fresh_step(op, key), (sweep.name, key)
                held.append(len(entries))
            return sweep.evaluate(case)

        return wrapped

    def watched_sweeps(sweeps, memos=(), **kwargs):
        passed.extend(memos)
        sweeps = [Sweep(s.name, s.bound, s.cases, first_case_sees_its_reads(s), s.deal, s.reads)
                  for s in sweeps]
        return run_sweeps_orig(sweeps, memos, **kwargs)

    fake = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(shufflebv.bv, "run_sweeps", watched_sweeps)
    for jobs in (1, 2):
        held.clear()
        check_dbv(dga, Bounds(unary=2, binary=1, ternary=1, jobs=jobs))
        # the last three bracket sweeps start on entries kept from the one before
        assert all(held[5:8]), (jobs, held)
        check_bvinf(ainf, 3, Bounds(unary=2, order_slack=1, jobs=jobs))
        assert not any(held[8:]), (jobs, held)
        assert empty()
        assert all(op._defects is memo for op, memo in zip(ops, memos))
    # per jobs value, check_dbv hands the driver only its three tables of
    # bracket rows, and check_bvinf nothing: the driver empties the
    # operators' memos through their space
    assert len(passed) == 2 * 3
    assert fake.pool_sizes == [2, 2]  # --jobs 2 did take the pool path


def test_check_fills_each_memo_entry_once(end2, monkeypatch):
    # the bracket sweeps and delta_order_2 read F_2 entries of one memo, and
    # each sweep keeps the entries the next one reads: a serial check fills
    # every entry once, and no sweep ends holding more entries than the
    # largest sweep held when each one started on an empty memo (7,161 at
    # bounds 4, 2, 2); for delta, and for the even operator delta o d
    from collections import Counter
    fills = Counter()
    step = shufflebv.operators._koszul_step

    def counted(D, key, shuffles):
        if shuffles is None:
            fills[D, key] += 1
        return step(D, key, shuffles)

    held = []
    failures_in = shufflebv.bv._failures_in

    def watched(*args):
        found = failures_in(*args)
        held.append(sum(len(level) for X, level in delta._defects.items() if X))
        return found

    monkeypatch.setattr(shufflebv.operators, "_koszul_step", counted)
    monkeypatch.setattr(shufflebv.bv, "_failures_in", watched)
    for label in ("delta", "delta.d"):
        delta = bracket_operator(end2, label)
        alg = SimpleNamespace(space=end2.space, d_op=end2.d_op, delta_op=delta)
        fills.clear()
        held.clear()
        check_dbv(alg, Bounds(4, 2, 2))
        assert fills and max(fills.values()) == 1, label
        assert sum(fills.values()) == 13_881, label
        assert len(held) == 8 and 0 < max(held) <= 7_161, (label, held)


def test_kept_memo_entries_change_no_report(end2, monkeypatch):
    # a check whose sweeps keep the F_2 entries the next one reads reports
    # the same, every failure's witness included, as a serial one whose
    # memos are emptied as each sweep starts; on two failing inputs, the
    # even operator delta o d and end-two-term-complex with the sign of
    # mu2(b, c) flipped, at --jobs 1 and through the in-process stand-in
    # pool at 2 and 3.  A witness is compared by its inputs and its terms,
    # from which its JSON is rendered
    even = SimpleNamespace(space=end2.space, d_op=end2.d_op,
                           delta_op=bracket_operator(end2, "delta.d"))
    spec = builtin("end-two-term-complex")
    spec.operations["mu2"][("b", "c")] = {"a": -1}
    flipped = DGAlgebra.from_spec_unchecked(spec)
    monkeypatch.setattr(multiprocessing, "get_context", InProcessContext())
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 3)
    forget = shufflebv.bv._forget_memos

    def run(alg, jobs):
        reports = check_dbv(alg, Bounds(2, 2, 2, fail_cap=10**6, jobs=jobs))
        return [(r.name, r.bound, r.cases, r.failure_count,
                 [(f.inputs, f.defect.terms) for f in r.failures]) for r in reports]

    for label, alg in (("delta.d", even), ("mu2 flipped", flipped)):
        with monkeypatch.context() as patch:
            patch.setattr(shufflebv.bv, "_forget_memos",
                          lambda space, *memos, keep=None: forget(space, *memos))
            emptied = run(alg, 1)
        assert sum(len(failures) for *_, failures in emptied) > 1000, label
        for jobs in (1, 2, 3):
            assert run(alg, jobs) == emptied, (label, jobs)


def built_sweeps(check, alg, bounds, monkeypatch):
    """The sweeps and the per-sweep memos that ``check`` builds for ``alg``
    and hands the driver, by name, without running them."""
    built = {}

    def keep(sweeps, memos=(), **kwargs):
        built.update(sweeps={s.name: s for s in sweeps}, memos=(alg.space, *memos))
        return []

    with monkeypatch.context() as patch:
        patch.setattr(shufflebv.bv, "run_sweeps", keep)
        check(alg, bounds)
    return built["sweeps"], built["memos"]


def test_pool_shares_split_an_xy_group(end2, monkeypatch):
    # Leibniz and Jacobi read rows filled once per (x, y), the first two
    # words of a triple.  Leibniz is dealt by z, so each share holds part
    # of every (x, y) group and fills the group's rows itself: with its
    # memos empty, after another sweep's share (memos emptied), or after an
    # earlier share of the same sweep (memos kept).  Each must give the
    # failures of the whole sweep that fall in the share, with their case
    # indices.  The even operator delta o d fails on most triples, so many
    # failures are compared, and they take the even-degree correction.
    even = SimpleNamespace(
        space=end2.space, d_op=end2.d_op,
        delta_op=CompositeSum([(1, end2.delta_op, end2.d_op)]),
    )
    sweeps, memos = built_sweeps(check_dbv, even, Bounds(unary=1, binary=1, ternary=2),
                                 monkeypatch)
    forget = shufflebv.bv._forget_memos
    run = lambda s, j, k, deal: shufflebv.bv._failures_in(s.cases.share(j, k, deal), s.evaluate, 10**6)
    for name, other in (("bracket_leibniz", "bracket_jacobi"), ("bracket_jacobi", "bracket_leibniz")):
        s, o = sweeps[name], sweeps[other]
        forget(*memos)
        count, whole = run(s, 0, 1, s.deal)
        assert count == len(whole) > len(s.cases) // 4
        assert [i for i, _, _ in whole] == sorted(i for i, _, _ in whole)
        # Leibniz by its own deal; Jacobi, whose one share is the whole
        # sweep, by z as well, so that its shares too start inside groups
        deal = (2,)
        for k, j in ((2, 1), (3, 2)):
            for before in ("nothing", "another sweep", "this sweep"):
                forget(*memos)
                if before == "another sweep":
                    run(o, j, k, o.deal)
                    forget(*memos)
                elif before == "this sweep":
                    run(s, (j + 1) % k, k, deal)
                _, kept = run(s, j, k, deal)
                share = {i for i, _ in s.cases.share(j, k, deal)}
                assert kept == [f for f in whole if f[0] in share], (name, k, j, before)
    forget(*memos)


def memo_entries(ops):
    """The (operator, prefix, word) of every entry filled in the defect
    memos of ``ops``, beyond the image tables (prefix ())."""
    return {(n, X, w) for n, op in enumerate(ops) for X, level in op._defects.items() if X
            for w in level}


@pytest.mark.parametrize("suite, names", [
    ("dbv", ("bracket_antisymmetry", "bracket_leibniz", "bracket_jacobi", "delta_order_2")),
    ("bvinf", ("order_3_delta_-3",)),
])
def test_each_memo_entry_is_filled_in_one_share(suite, names, monkeypatch):
    # a sweep is dealt by the words that key its memo entries: run share by
    # share on freshly emptied memos, as pool workers do, the shares fill
    # disjoint sets of entries, which together are those of a serial run
    if suite == "dbv":
        alg = validate_dga(builtin("end-two-term-complex"))
        ops = (alg.d_op, alg.delta_op)
        sweeps, memos = built_sweeps(check_dbv, alg, Bounds(3, 2, 2), monkeypatch)
    else:
        alg = validate_ainf(builtin("ainf-mu3"), 3)
        ops = tuple(alg.delta_op(k) for k in (1, 2, 3))
        sweeps, memos = built_sweeps(lambda a, b: check_bvinf(a, 3, b), alg,
                                     Bounds(unary=2, order_slack=1), monkeypatch)

    def filled(s, j, k):
        shufflebv.bv._forget_memos(*memos)
        shufflebv.bv._failures_in(s.cases.share(j, k, s.deal), s.evaluate, 1)
        return memo_entries(ops)

    for name in names:
        s = sweeps[name]
        serial = filled(s, 0, 1)
        assert serial, name
        for k in (2, 3):
            shares = [filled(s, j, k) for j in range(k)]
            assert sum(map(len, shares)) == len(serial), (name, k)
            assert set().union(*shares) == serial, (name, k)
    shufflebv.bv._forget_memos(*memos)


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
        ("end2 delta.d", CompositeSum([(1, end2.delta_op, end2.d_op)])),
        *((f"mu3 delta_{k}", ainf.delta_op(k)) for k in (1, 2, 3)),
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memo_fill_matches_subset_sum(fill_ops, data):
    # a fill shuffles the rows F_(m-1)(X, b) and F_(m-1)(X, c) straight into
    # the entry; the drawn words include the empty word and odd letters,
    # whose shuffles with themselves cancel (a * a = 0 on end2, q * q = 0 on
    # mu3); some pairs are in the space's table before the fill, some not.
    # A fill builds each pair the table lacks from its two prefix pairs and
    # stores those, never the pair itself
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
    with recorded_unstored() as built:
        entry = op._defects[key[:-1]][key[-1]]
    assert set(space._shuffle_cache) == pairs | prefix_pairs(built)
    assert not pairs & set(built)  # a held pair is read, not built
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
    for op in (end2.delta_op, CompositeSum([(1, end2.delta_op, end2.d_op)])):
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
    cases = streamed([(sp.encode(("a",)),)] * 3)
    fail = lambda case: {case[0]: 1}
    inner = []

    def nested(case):
        [report] = run_sweeps([Sweep("inner", "-", cases, fail)], space=sp)
        inner.append(report.failure_count)

    sweeps = [Sweep("outer", "-", cases, nested), Sweep("last", "-", cases, fail)]
    reports = run_sweeps(sweeps, space=sp, fail_cap=1)
    assert inner == [3, 3, 3]
    assert [(r.cases, r.failure_count, len(r.failures)) for r in reports] == [(3, 0, 0), (3, 3, 1)]
    assert shufflebv.bv._worker == {}


def test_pool_checks_write_no_module_state(end2, monkeypatch):
    # a --jobs 2 check hands its state to the workers through the pool's
    # initializer: the checking process's ``_worker`` stays empty when the
    # pool starts and while the reports are merged
    fork = multiprocessing.get_context("fork")
    seen = []

    class RecordingContext:
        def __call__(self, method):
            return self

        def Pool(self, *args, **kwargs):
            seen.append(dict(shufflebv.bv._worker))
            return fork.Pool(*args, **kwargs)

    def watched(*args, **kwargs):
        seen.append(dict(shufflebv.bv._worker))
        return run_axiom(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", RecordingContext())
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(shufflebv.bv, "run_axiom", watched)
    reports = check_dbv(end2, Bounds(unary=2, binary=1, ternary=1, jobs=2))
    assert all(r.passed for r in reports)
    assert seen == [{}] * (1 + len(reports))


def test_pool_failures_hold_the_check_space(end2, monkeypatch):
    # the workers of a real fork pool hand back each failure's terms, and the
    # checking process makes its element in the check's own space, not in a
    # copy unpickled beside every failure (a functoriality witness, in the
    # target space: test_functoriality_witnesses_are_in_the_target_letters)
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    even = SimpleNamespace(space=end2.space, d_op=end2.d_op,
                           delta_op=CompositeSum([(1, end2.delta_op, end2.d_op)]))
    reports = check_dbv(even, Bounds(3, 2, 1, jobs=2))
    failures = [f for r in reports for f in r.failures]
    assert len(failures) > 10
    assert all(f.defect.space is end2.space for f in failures)


def test_run_axiom_pool_falls_back_to_cpu_count(monkeypatch):
    fake = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    sp = GradedSpace("s", [BasisLetter("a", 0)])
    cases = streamed([(sp.encode(("a",)),)] * 40)
    evaluate = lambda case: {}
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


# -- the Jacobi analogue: the Jacobiator through delta o delta ---------------------


def jacobiator(x, y, z, delta):
    """J(x, y, z) = {x, {y, z}} - {{x, y}, z} - s {y, {x, z}} with
    s = (-1)^((|x|+1)(|y|+1)), the expression of the ``bracket_jacobi`` sweep."""
    b = lambda p, q: bracket(p, q, delta)
    s = -1 if (x.degree() + 1) & (y.degree() + 1) & 1 else 1
    return b(x, b(y, z)) - b(b(x, y), z) - s * b(y, b(x, z))


def jacobi_mismatches(mu, triples):
    """The triples of words on which J(x, y, z) of delta, the lift of ``mu``,
    is not (-1)^|y| F_3(x, y, z) of delta o delta (Koszul; Voronov's derived
    brackets), and how many of the triples have a nonzero J."""
    delta = lift_coderivation(mu)
    square = CompositeSum([(1, delta, delta)])
    wrong, nonzero = [], 0
    for t in triples:
        x, y, z = (TElement.word(mu.space, w) for w in t)
        j = jacobiator(x, y, z, delta)
        nonzero += not j.is_zero()
        if j != (-1 if y.degree() & 1 else 1) * order_defect(square, 2, [x, y, z]):
            wrong.append(t)
    return wrong, nonzero


def nonempty_triples(mu):
    """Every triple of nonempty words of length <= 2."""
    words = [w for n in (1, 2) for w in itertools.product(mu.space.ids, repeat=n)]
    return itertools.product(words, repeat=3)


@settings(max_examples=150, deadline=None)
@given(mu=random_products(), data=st.data())
def test_jacobiator_is_signed_order_2_defect_of_delta_squared(mu, data):
    # delta is odd, so delta o delta = {delta, delta} / 2, whose order-2
    # defect is the Jacobiator of the derived bracket; it holds for any
    # degree-0 arity-2 map, associative or not
    word = st.lists(st.sampled_from(mu.space.ids), min_size=1, max_size=2).map(tuple)
    triple = data.draw(st.tuples(word, word, word), label="triple")
    wrong, _ = jacobi_mismatches(mu, [triple])
    assert not wrong, triple


def test_jacobiator_on_a_non_associative_product():
    # mu(b, c) = -a on end-two-term-complex: J is nonzero on 1,752 of the
    # 8,000 triples, and equals (-1)^|y| F_3 of delta o delta on all of them
    mu = corrupted_end2().mu
    assert jacobi_mismatches(mu, nonempty_triples(mu)) == ([], 1752)


def test_jacobiator_catches_a_dropped_word_sign(monkeypatch):
    # negative control: bracket rows without the sign (-1)^|u| break the
    # relation on more triples than the true Jacobiator is nonzero on
    def unsigned_rows(delta, xterms):
        return [(delta._defects[(u,)], cu, None) for u, cu in xterms.items()]

    monkeypatch.setattr(shufflebv.bv, "_bracket_rows", unsigned_rows)
    mu = corrupted_end2().mu
    wrong, _ = jacobi_mismatches(mu, nonempty_triples(mu))
    assert len(wrong) > 1752


def test_jacobi_sweep_is_signed_order_2_defect_of_delta_squared(monkeypatch):
    # the bracket_jacobi sweep's own evaluator J against (-1)^|y| F_3 of
    # delta o delta, on every triple of words of length <= 2, the empty word
    # included, of 40 random tables, valid or not
    rng = random.Random(26)
    cases = nonzero = 0
    for _ in range(40):
        dga = DGAlgebra.from_spec_unchecked(random_dga(rng))
        space, delta = dga.space, dga.delta_op
        sweeps, _ = built_sweeps(check_dbv, dga, Bounds(), monkeypatch)
        jacobi = sweeps["bracket_jacobi"].evaluate
        square = CompositeSum([(1, delta, delta)])
        words = words_up_to(space, 2)
        for x, y, z in itertools.product(words, repeat=3):
            j = jacobi((x, y, z))
            f3 = order_defect(square, 2, [TElement._make(space, {w: 1}) for w in (x, y, z)])
            sign = -1 if word_parity(space, y) else 1
            assert j == {w: sign * c for w, c in f3.terms.items()}, (space.decode(x),
                                                                   space.decode(y), space.decode(z))
            cases += 1
            nonzero += bool(j)
    assert (cases, nonzero) == (41_530, 2_924)


# -- the Leibniz identity: the bracket's failure to be a derivation ---------------


def test_leibniz_sweep_is_signed_order_2_defect_of_the_operator(monkeypatch):
    # the bracket_leibniz sweep's own evaluator L, built with P in place of
    # delta, where P lifts a random degree-1 arity-3 map, so P is odd and of
    # order 3: L(x, y, z) = (-1)^(|x|+|y|) F_3(x, y, z) of P, on every triple
    # of words of length <= 2, the empty word included, of 30 random tables.
    # The bracket of an odd operator carries no even-degree correction, so
    # this is the paper's identity itself (the delta o d controls test the
    # correction instead)
    rng = random.Random(27)
    cases = nonzero = 0
    for _ in range(30):
        dga = DGAlgebra.from_spec_unchecked(random_dga(rng))
        space = dga.space
        degree = {a: space.degree(a) for a in space.ids}
        P = lift_coderivation(MultilinearMap(space, 3, 1, random_table(rng, degree, 3, 1)))
        assert P.degree & 1
        alg = SimpleNamespace(space=space, d_op=dga.d_op, delta_op=P)
        sweeps, _ = built_sweeps(check_dbv, alg, Bounds(), monkeypatch)
        leibniz = sweeps["bracket_leibniz"].evaluate
        words = words_up_to(space, 2)
        for x, y, z in itertools.product(words, repeat=3):
            got = leibniz((x, y, z))
            f3 = order_defect(P, 2, [TElement._make(space, {w: 1}) for w in (x, y, z)])
            sign = -1 if word_parity(space, x) ^ word_parity(space, y) else 1
            assert got == {w: sign * c for w, c in f3.terms.items()}, (space.decode(x),
                                                                     space.decode(y), space.decode(z))
            cases += 1
            nonzero += bool(got)
    assert (cases, nonzero) == (38_100, 7_826)


def test_sum_relations_are_coderivations():
    # each BV-infinity sum relation R_n, the sum of the composites of two
    # lifts whose degrees add to n, is a graded commutator of coderivations
    # of odd degree, so a coderivation of block length m = (6 - n)/2 - 1,
    # valid table or not: R_n(w) = sum_j w_<j R_n(w_j ... w_(j+m-1)) w_>(j+m-1),
    # with no sign since n is even, on every word of length <= 5 of 60
    # random tables with mu_1, mu_2 and mu_3; and the coderivation identity
    # of the deconcatenation coproduct holds on words of length <= 4.  The
    # composite d o delta alone, half a commutator, is not a coderivation
    # wherever both maps are nonzero, so that identity can fail
    rng = random.Random(28)
    draws = cases = nonzero = halves = 0
    while draws < 60:
        spec = random_ainf(rng)
        if not spec.operations:
            continue
        draws += 1
        ainf = AinfAlgebra.from_spec_unchecked(spec)
        space = ainf.space
        intern = space._word_table.setdefault
        ops = [ainf.delta_op(k) for k in (1, 2, 3)]
        for n, relation in composition_relations(ops):
            m = (6 - n) // 2 - 1
            for w in words_up_to(space, 5):
                want = {}
                for j in range(len(w) - m + 1):
                    block = w[j:j + m]
                    merge_scaled(want, {w[:j] + x + w[j + m:]: c
                                        for x, c in relation(intern(block, block)).items()}, 1)
                got = relation(w)
                assert got == want, (n, space.decode(w))
                cases += 1
                nonzero += bool(got)
        short = [space.decode(w) for w in words_up_to(space, 4)]
        for n in range(2, -8, -2):
            R = CompositeSum([(1, P, Q) for P in ops for Q in ops if P.degree + Q.degree == n])
            assert not any(coderivation_defect(R, w) for w in short), n
        half = CompositeSum([(1, ops[0], ops[1])])
        fails = any(coderivation_defect(half, w) for w in short)
        assert fails == ("d" in spec.operations and "mu2" in spec.operations)
        halves += fails
    assert (cases, nonzero, halves) == (74_585, 18_815, 35)


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
    # an induced map A -> B acts on A's words, but its images are B's
    F = induced_morphism(MultilinearMap(A, 1, 0, {("a",): {"b": 1}, ("b",): {"a": 1}}, target=B))
    with pytest.raises(InvalidInputError, match="different space"):
        bracket(x, y, F)
    with pytest.raises(InvalidInputError, match="different space"):
        order_defect(F, 1, [x, y])


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
    evaluate = lambda c: {c[0]: 1}
    shares = [shufflebv.bv._failures_in(enumerate(cases), evaluate, 1)]
    report = run_axiom("demo", "n/a", cases, sp, fail_cap=1, shares=shares)
    assert report.cases == 3 and report.failure_count == 3 and len(report.failures) == 1
    assert report.failures[0].inputs == (("a", "a"),)  # decoded to letter ids
    # the defect's terms become an element of the check's space
    assert report.failures[0].defect == TElement(sp, {("a", "a"): 1})
    assert not report.passed
