"""Case streams, the size guard built on their counts, and the trimming of
tables to the reach of the sweeps still to run."""

import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import shufflebv
import shufflebv.bv
from shufflebv.algebra_io import AlgebraSpec, builtin, builtin_names, validate_dga
from shufflebv.bv import Bounds, bvinf_cases, check_dbv, dbv_cases, functoriality_cases
from shufflebv.cli import DEFAULT_MAX_CASES, SHOWN_PREDICTIONS, main
from shufflebv.operators import CompositeSum
from shufflebv.graded import BasisLetter, GradedSpace
from shufflebv.words import COUNT_LIMIT, capped, word_count, word_product, word_tuples, words_up_to

from case_reference import word_product_list, word_tuples_with_total
from test_bv import InProcessContext
from test_cli import fixture_file  # noqa: F401  (a fixture)


def algebra_spaces():
    """(name, space) of every builtin algebra, and the source space of every
    builtin morphism."""
    for name in builtin_names():
        spec = builtin(name)
        if not isinstance(spec, AlgebraSpec):
            spec = builtin(spec.source)
        yield name, spec.space()


def assert_streams(cases, want):
    """``cases`` yields exactly the list ``want``, in order, and knows its
    size and reach before yielding anything."""
    count, reach = cases.count, cases.reach
    got = list(cases)
    assert got == want
    assert count == len(cases) == len(got)
    assert all(sum(map(len, case)) <= reach for case in got)
    assert list(cases) == got  # iterating starts afresh


# -- case streams ----------------------------------------------------------------


@pytest.mark.parametrize("name, space", list(algebra_spaces()))
def test_sweep_streams_match_the_case_lists(name, space):
    # dBV and functoriality sweeps: itertools.product over words_up_to
    for unary, binary, ternary in ((0, 0, 0), (3, 1, 1), (2, 2, 2)):
        bounds = Bounds(unary, binary, ternary)
        for plan in (dbv_cases(space, bounds), functoriality_cases(space, bounds)):
            for sweep, label, cases in plan:
                repeat = {"words": 1, "pairs": 2, "triples": 3}[label.split()[0]]
                max_len = {1: unary, 2: binary, 3: ternary}[repeat]
                assert_streams(cases, word_product_list(space, max_len, repeat))
                assert cases.reach == repeat * max_len
    # BV-infinity sweeps: the order sweeps take k + 1 nonempty words
    for K in (2, 3, 4):
        for slack in (0, 1, 2):
            plan = bvinf_cases(space, K, Bounds(unary=2, order_slack=slack))
            orders = [cases for sweep, _, cases in plan if sweep.startswith("order_")]
            assert len(orders) == K
            for k, cases in enumerate(orders, 1):
                assert cases.reach == k + 1 + slack
                assert_streams(cases, word_tuples_with_total(space, k + 1, k + 1 + slack))
            singles = [cases for sweep, _, cases in plan if not sweep.startswith("order_")]
            assert all(len(cases) == word_count(space, 2) for cases in singles)


def test_counts_reproduce_the_ainf_order_sweeps():
    space = builtin("ainf-mu3").space()
    assert [len(word_tuples(space, k + 1, k + 3)) for k in (1, 2, 3)] == [306, 1728, 8343]
    # and the sizes of the sweeps that --max-arity 9 would run, none built
    assert word_tuples(space, 9, 11).count == 8_522_739
    assert word_tuples(space, 10, 12).count == 31_059_774
    assert word_tuples(space, 4, 3).count == 0 and list(word_tuples(space, 4, 3)) == []


@pytest.mark.parametrize("cases, want", [
    (lambda sp: word_product(sp, 1, 2), lambda sp: word_product_list(sp, 1, 2)),
    (lambda sp: word_product(sp, 1, 3), lambda sp: word_product_list(sp, 1, 3)),
    (lambda sp: word_tuples(sp, 2, 3), lambda sp: word_tuples_with_total(sp, 2, 3)),
    (lambda sp: word_tuples(sp, 3, 4), lambda sp: word_tuples_with_total(sp, 3, 4)),
])
def test_every_block_cut_is_a_slice(cases, want):
    # a stream starts afresh each time it is iterated, so every cut
    # [start, stop) of it gives that slice of the reference list
    space = builtin("ainf-mu3").space()
    cases, want = cases(space), want(space)
    n = len(want)
    assert 10 <= n <= 300
    for start in range(n + 1):
        for stop in range(start, n + 1):
            assert list(itertools.islice(cases, start, stop)) == want[start:stop]


# the words that the suites' sweeps deal by (``bv.Sweep.deal``)
SUITE_DEALS = ((0,), (1,), (2,), (0, 1), ())


def dealt_shares():
    """(label, stream, deal, k, shares): shares j of k = 1..4, as lists of
    (index, case), of products of 1-3 words and of tuples of 2-4 words on
    end-two-term-complex, by each of the suites' deals that fits."""
    space = builtin("end-two-term-complex").space()
    streams = [(f"product {r}", word_product(space, n, r)) for r, n in ((1, 3), (2, 2), (3, 1))]
    streams += [(f"tuples {c}", word_tuples(space, c, c + 1)) for c in (2, 3, 4)]
    for label, cases in streams:
        stream = list(cases)
        for deal in SUITE_DEALS:
            if all(i < len(stream[0]) for i in deal):
                for k in (1, 2, 3, 4):
                    yield label, stream, deal, k, [list(cases.share(j, k, deal)) for j in range(k)]


def share_membership() -> list:
    """The case indices of every share of ``dealt_shares``."""
    return [[label, deal, k, [[i for i, _ in share] for share in shares]]
            for label, _, deal, k, shares in dealt_shares()]


def test_shares_partition_every_stream():
    # the shares are disjoint, together the whole stream, each in stream
    # order, every case beside its index in the stream; share j holds the
    # cases whose dealt words' positions in words_up_to sum to j mod k
    position = {w: i for i, w in enumerate(words_up_to(builtin("end-two-term-complex").space(), 4))}
    for label, stream, deal, k, shares in dealt_shares():
        assert sorted(i for share in shares for i, _ in share) == list(range(len(stream)))
        for j, share in enumerate(shares):
            indices = [i for i, _ in share]
            assert indices == sorted(set(indices)), (label, deal, k, j)
            for i, case in share:
                assert case == stream[i] and sum(position[case[at]] for at in deal) % k == j


def test_shares_do_not_depend_on_the_hash_seed():
    # words are dealt by their positions, never by their hashes
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    code = "import json, test_streams; print(json.dumps(test_streams.share_membership()))"
    want = json.loads(json.dumps(share_membership()))
    for seed in ("0", "4242"):
        env = dict(PATH="/usr/bin:/bin", PYTHONPATH=os.pathsep.join([package_root, tests_dir]),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, seed


# -- the size guard --------------------------------------------------------------


def test_max_cases_refuses_before_validating(fixture_file, capsys, monkeypatch):
    # ainf-mu3 at --max-arity 9: the prediction alone, in a fraction of a
    # second; validation and the sweeps would take hours
    def never(*args, **kwargs):
        raise AssertionError("a refused check must not validate or run")

    for name in ("validate_ainf", "validate_dga", "validate_morphism"):
        monkeypatch.setattr(shufflebv.algebra_io, name, never)
    monkeypatch.setattr(shufflebv.bv, "run_sweeps", never)
    path = fixture_file("ainf-mu3")
    assert main(["check", path, "--max-arity", "9"]) == 2
    err = capsys.readouterr().err
    assert "order_1_delta_1: 306\n" in err and "order_9_delta_-15: 31059774\n" in err
    # validation's own evaluations: 17 relations on the 265,720 words of length <= 11
    assert f"validate: {17 * 265_720}\n" in err
    assert f"more than --max-cases {DEFAULT_MAX_CASES}" in err
    # past the first SHOWN_PREDICTIONS, one line sums the rest: at arity 17,
    # five composition relations on the 364 words of length <= 5
    assert main(["check", path, "--max-arity", "17"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 + SHOWN_PREDICTIONS + 1
    assert err[-2] == "  sum_relation_n_-52: 364" and err[-1] == "  remaining sweeps (5): 1820"
    # --assume-valid skips validation, so its evaluations are not counted
    assert main(["check", path, "--max-arity", "9", "--assume-valid"]) == 2
    assert "validate:" not in capsys.readouterr().err
    for name in ("end-two-term-complex", "diag-into-upper-triangular"):
        assert main(["check", fixture_file(name), "--max-cases", "10"]) == 2
        err = capsys.readouterr().err
        assert "refused" in err and "cases" in err


def test_max_cases_is_a_bound_on_the_whole_check(fixture_file, capsys):
    # end-two-term-complex at (2, 1, 1): 3 * 21 + 2 * 25 + 3 * 125 cases
    path = fixture_file("end-two-term-complex")
    small = ["--max-len", "2", "--pair-len", "1", "--triple-len", "1"]
    assert main(["check", path, *small, "--max-cases", str(63 + 50 + 375)]) == 0
    assert main(["check", path, *small, "--max-cases", str(63 + 50 + 374)]) == 2
    assert main(["check", path, *small, "--max-cases", "-1"]) == 2
    assert "--max-cases must be >= 0" in capsys.readouterr().err


def test_validate_refuses_before_validating(fixture_file, capsys, monkeypatch):
    # ainf-mu3 validates at K = 3 with 5 relations on the 364 words of
    # length <= 5: 1,820 evaluations, refused by --max-cases 1819 alone
    path = fixture_file("ainf-mu3")
    assert main(["validate", path, "--max-cases", "1820"]) == 0
    assert capsys.readouterr().out == "VALID\n"

    def never(*args, **kwargs):
        raise AssertionError("a refused validation must not run")

    monkeypatch.setattr(shufflebv.algebra_io, "validate_ainf", never)
    assert main(["validate", path, "--max-cases", "1819"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "refused: the validation would evaluate 1820 cases, more than --max-cases 1819; "
        "predicted cases:\n  validate: 1820\n")
    assert main(["validate", path, "--max-cases", "-1"]) == 2
    assert "--max-cases must be >= 0" in capsys.readouterr().err
    # a DG algebra or a morphism is validated on basis tuples, never refused
    for name in ("end-two-term-complex", "diag-into-upper-triangular"):
        assert main(["validate", fixture_file(name), "--max-cases", "0"]) == 0


def test_validate_refuses_a_huge_arity_within_seconds(fixture_file):
    # at --max-arity 20000 the count is capped; a hang fails as a timeout
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root)
    command = [sys.executable, "-m", "shufflebv.cli", "validate", fixture_file("ainf-mu3"),
               "--max-arity", "20000"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"refused: the validation would evaluate more than {COUNT_LIMIT} cases, more than "
        f"--max-cases {DEFAULT_MAX_CASES}; predicted cases:",
        f"  validate: more than {COUNT_LIMIT}",
    ]


def test_default_max_cases_admits_the_builtins_and_the_probes():
    # every builtin at the default bounds, the benchmark workloads and the
    # largest bounds in use (--max-len 8, --pair-len 4, --triple-len 3 on
    # end-two-term-complex) stay under the default; ainf-mu3 at
    # --max-arity 7 does not
    from shufflebv.cli import _bounds, _predicted_cases, build_parser

    def total(name, *options):
        args = build_parser().parse_args(["check", "-", *options])
        return sum(n for _, n in _predicted_cases(builtin(name), args, _bounds(args)))

    for name in builtin_names():
        assert total(name) <= DEFAULT_MAX_CASES, name
    for options in (("--max-len", "7", "--pair-len", "3", "--triple-len", "1"),
                    ("--max-len", "4", "--pair-len", "2", "--triple-len", "2"),
                    ("--max-len", "8"), ("--pair-len", "4"), ("--triple-len", "3")):
        assert total("end-two-term-complex", *options) <= DEFAULT_MAX_CASES, options
    assert total("end-two-term-complex", "--triple-len", "3") == 1_860_920
    assert total("ainf-mu3", "--max-arity", "6") <= DEFAULT_MAX_CASES
    assert total("ainf-mu3", "--max-arity", "7") > DEFAULT_MAX_CASES


@pytest.mark.parametrize("name, options, sweeps", [
    ("end-two-term-complex", ("--max-len", "10000"), 8),
    ("ainf-mu3", ("--order-slack", "3000"), 1 + 4 * 3),  # validation, then 4K sweeps
    ("ainf-mu3", ("--max-arity", "400"), 1 + 4 * 400),
    ("ainf-mu3", ("--max-arity", "20000"), 1 + 4 * 20000),
])
def test_huge_bounds_are_refused_within_seconds(fixture_file, name, options, sweeps):
    # At these bounds an exact count has thousands of digits.  Counts are
    # capped at COUNT_LIMIT, so each refusal takes a fraction of a second;
    # it runs in a child process, so a hang fails as a timeout.  The refusal
    # lists at most SHOWN_PREDICTIONS predictions, then one line for the rest.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root)
    command = [sys.executable, "-m", "shufflebv.cli", "check", fixture_file(name), *options]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    first, *lines = proc.stderr.splitlines()
    assert first.startswith(f"refused: the check would evaluate more than {COUNT_LIMIT} cases")
    assert len(lines) == min(sweeps, SHOWN_PREDICTIONS) + (sweeps > SHOWN_PREDICTIONS)
    assert all(line.startswith("  ") for line in lines)
    if sweeps > SHOWN_PREDICTIONS:
        assert lines[-1] == f"  remaining sweeps ({sweeps - SHOWN_PREDICTIONS}): more than {COUNT_LIMIT}"
    assert f": more than {COUNT_LIMIT}" in proc.stderr


def test_counts_are_exact_up_to_the_cap():
    # capped counts against the sums they stand for, on 1 to 3 letters: N(c, T)
    # by its recurrence, word_count by its sum of powers, beyond the cap too
    def exact_tuples(b, c, T):
        n = [1] * (T + 1)
        for _ in range(c):
            n = [sum(b**L * n[t - L] for L in range(1, t + 1)) for t in range(T + 1)]
        return n[T]

    for b in (1, 2, 3):
        space = GradedSpace("s", [BasisLetter(f"x{i}", 0) for i in range(b)])
        for L in range(90):
            assert word_count(space, L) == capped(sum(b**n for n in range(L + 1))), (b, L)
        for c, T in itertools.chain(itertools.product(range(1, 6), range(12)),
                                    [(2, 70), (3, 150), (40, 45), (70, 72), (30, 200)]):
            assert len(word_tuples(space, c, T)) == capped(exact_tuples(b, c, T)), (b, c, T)
    assert capped(COUNT_LIMIT) == COUNT_LIMIT and capped(COUNT_LIMIT + 5) == COUNT_LIMIT + 1


# -- trimming the tables to the remaining reach ---------------------------------


def report_digest(reports):
    blob = json.dumps([r.to_json() for r in reports], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# failure counts and the sha256 of the full reports (every witness kept) of
# check_dbv on end-two-term-complex, and with delta o d in place of delta,
# pinned from the code before tables were trimmed
TRIM_PINS = {
    ((4, 1, 1), "delta"): ([0] * 8, "369bd79f695f8d846f7d7221efcf6ec5cc2321fcc55ccaf5835e794db3f5c438"),
    ((4, 1, 1), "delta o d"):
        ([0, 0, 0, 0, 0, 14, 0, 6], "5a704e296de17edda273bca09542f121225e5d644a620c4421675f54159c5690"),
    ((5, 2, 1), "delta"): ([0] * 8, "1682680007e216bf8f1cc4eb94f1a7f87a66bec3248908cd20147b224cfe854d"),
    ((5, 2, 1), "delta o d"):
        ([0, 0, 0, 0, 116, 14, 0, 6], "a7d85dfe2e6f59690a4f9e8c28dc7aa1ce587ca47ca067ff252c1e87164c748b"),
}


@pytest.mark.parametrize("bounds, operator", list(TRIM_PINS))
def test_tables_hold_nothing_beyond_the_remaining_reach(bounds, operator, monkeypatch):
    # At (4, 1, 1) the reach of the remaining sweeps falls from 4 to 3 after
    # the unary sweeps; at (5, 2, 1) from 5 to 4, then to 3 after the pair
    # sweeps.  When each sweep's first case runs, at --jobs 1 and through
    # the in-process stand-in pool, no image, shuffle pair or interned word
    # may be longer than that reach, and the reports must not change.
    seen = []  # (sweep, reach, longest entry) at each sweep's first case

    def longest(alg):
        # the check's operators and, for delta o d, its parts, named here
        # rather than read from the space's enrolment
        space = alg.space
        ops = [alg.d_op, alg.delta_op, *(parts if operator != "delta" else ())]
        lengths = [len(w) for op in ops for w in op._cache]
        lengths += [len(u) + len(v) for u, v in space._shuffle_cache]
        lengths += map(len, space._word_table)
        return max(lengths, default=0)

    run_sweeps = shufflebv.bv.run_sweeps

    def watched(sweeps, memos=(), **kwargs):
        def first_case_checks(s, reach):
            started = []

            def evaluate(case):
                if not started:
                    started.append(case)
                    seen.append((s.name, reach, longest(alg)))
                return s.evaluate(case)

            return evaluate

        checked = [
            shufflebv.bv.Sweep(s.name, s.bound, s.cases,
                               first_case_checks(s, max(t.cases.reach for t in sweeps[i:])), s.deal)
            for i, s in enumerate(sweeps)
        ]
        return run_sweeps(checked, memos, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", InProcessContext())
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(shufflebv.bv, "run_sweeps", watched)
    unary, binary, ternary = bounds
    reaches = []
    for jobs in (1, 2):
        end2 = validate_dga(builtin("end-two-term-complex"))
        parts = (end2.delta_op, end2.d_op)
        alg = end2 if operator == "delta" else SimpleNamespace(
            space=end2.space, d_op=end2.d_op, delta_op=CompositeSum([(1, *parts)]),
        )
        # tables that a check with larger bounds left behind are trimmed too
        words_up_to(end2.space, unary + 2)
        end2.d_op._cache[end2.space.encode(("a",) * (unary + 2))]
        seen.clear()
        reports = check_dbv(alg, Bounds(unary, binary, ternary, fail_cap=10**6, jobs=jobs))
        assert ([r.failure_count for r in reports], report_digest(reports)) == TRIM_PINS[bounds, operator]
        assert [name for name, _, _ in seen] == [r.name for r in reports]
        assert all(longest <= reach for _, reach, longest in seen), seen
        assert max(longest for _, _, longest in seen) > 3  # the unary sweeps did fill
        reaches.append([reach for _, reach, _ in seen])
    assert reaches[0] == reaches[1]
    assert sorted(set(reaches[0]), reverse=True) == ([4, 3] if bounds == (4, 1, 1) else [5, 4, 3])


def test_trimmed_reports_match_through_a_fork_pool():
    # the same reports, witnesses included, from a real pool of two workers
    # (a serial run where fewer than two CPUs are usable)
    end2 = validate_dga(builtin("end-two-term-complex"))
    even = SimpleNamespace(space=end2.space, d_op=end2.d_op,
                           delta_op=CompositeSum([(1, end2.delta_op, end2.d_op)]))
    reports = check_dbv(even, Bounds(5, 2, 1, fail_cap=10**6, jobs=2))
    assert ([r.failure_count for r in reports], report_digest(reports)) == TRIM_PINS[
        (5, 2, 1), "delta o d"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_functoriality_trims_both_spaces_and_the_induced_map(jobs, monkeypatch):
    # the check reads the tables of the source space, of the target space and
    # of the induced map F; once it returns, none of them holds a word longer
    # than the final reach (2, of the pair sweep), although the unary sweeps
    # filled them up to length 7.  At jobs 2 the in-process stand-in pool
    # trims the same tables through its worker state.
    from shufflebv.algebra_io import validate_morphism

    morph = validate_morphism(builtin("diag-into-upper-triangular"))
    maps = []
    induced = shufflebv.bv.induced_morphism
    monkeypatch.setattr(shufflebv.bv, "induced_morphism", lambda f: maps.append(induced(f)) or maps[-1])
    monkeypatch.setattr(multiprocessing, "get_context", InProcessContext())
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    reports = shufflebv.bv.check_functoriality(morph, Bounds(unary=7, binary=1, jobs=jobs))
    assert [(r.name, r.cases, r.failure_count) for r in reports] == [
        ("morphism_commutes_d", 255, 0),
        ("morphism_commutes_delta", 255, 0),
        ("morphism_commutes_shuffle", 9, 0),
    ]
    for space in (morph.source.space, morph.target.space):
        images = [w for op in space._operators for w in op._cache]
        assert images  # the last sweep did fill
        assert max(map(len, images)) <= 2, space.name
        assert max(map(len, space._word_table)) <= 2, space.name
        assert all(len(u) + len(v) <= 2 for u, v in space._shuffle_cache), space.name
    (F,) = maps
    assert F._cache and max(map(len, F._cache)) <= 2
