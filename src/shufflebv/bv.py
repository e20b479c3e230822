"""The bracket, the operator-order identity, and the axiom suites.

The bracket measures the failure of a degree -1 operator to be a
derivation of the shuffle product:

    {x, y} = (-1)^|x| D(x * y) - (-1)^|x| D(x) * y - x * D(y),

with |x| the word degree and * the shuffle product.  The bracket and the
order-n expression are both read off the operator's defect memo
(``operators.defect_table``), whose entries live while the running sweep
can read them.  ``check_dbv`` and ``check_bvinf`` verify every axiom of
the induced structure by exhaustive evaluation over basis words up to
caller-supplied length bounds; failures are collected as data, never
raised.  In every check, each case's identity is merged into one dict,
its images, shuffles, brackets and defects read by subscript from the
tables of the operators, the spaces and the memo;
``run_axiom`` alone makes a nonempty one a failure's element.
Every suite builds its sweeps first and hands them to one driver,
``run_sweeps``.  A sweep's cases are a stream (``words.Cases``) that knows
its count (``words.capped``) before any case is made, so ``dbv_cases``,
``bvinf_cases`` and ``functoriality_cases`` predict a check's size from its
space and bounds alone.  Case words, like every table key, are stored words (``Word``,
a str; see ``words``); a failure decodes its inputs to letter ids.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from contextlib import nullcontext

from .algebra_io import default_arity
from .graded import GradedSpace, InvalidInputError, Scalar, render_scalar
from .operators import (
    Operator,
    _koszul_step,
    composite_sum,
    composition_relations,
    induced_morphism,
)
from .words import (
    Cases,
    Table,
    TElement,
    Word,
    merge_images,
    merge_scaled,
    merge_shuffles,
    render_telement,
    word_degree,
    word_parity,
    word_product,
    word_tuples,
)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


class Failure:
    """A failing case: its input words, each as its letter ids, and the
    nonzero defect, an element of the space the check's defects live in."""

    def __init__(self, inputs: tuple[tuple[str, ...], ...], defect: TElement):
        self.inputs = inputs
        self.defect = defect

    def to_json(self) -> dict:
        return {
            "inputs": [list(w) for w in self.inputs],
            "defect": {
                "terms": [[render_scalar(c), list(w)] for w, c in self.defect],
                "pretty": render_telement(self.defect, tensor="⊗"),
            },
        }


class AxiomReport:
    """Outcome of one exhaustively checked identity."""

    def __init__(self, name: str, bound: str, cases: int,
                 failures: list[Failure] | None = None, failure_count: int = 0):
        self.name = name
        self.bound = bound
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.failure_count = failure_count

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "cases": self.cases,
            "failure_count": self.failure_count,
            "failures": [f.to_json() for f in self.failures],
            "passed": self.passed,
        }

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL({self.failure_count})"
        return f"AxiomReport({self.name}: {status}, {self.cases} cases)"


class Bounds(namedtuple("Bounds", "unary binary ternary order_slack fail_cap jobs",
                        defaults=(5, 3, 2, 2, 10, 1))):
    """Word-length bounds for the exhaustive sweeps."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.unary, self.binary, self.ternary, self.order_slack) < 0:
            raise InvalidInputError("bounds must be nonnegative")
        if self.fail_cap < 1:
            raise InvalidInputError("fail_cap must be >= 1")
        if self.jobs < 1:
            raise InvalidInputError("jobs must be >= 1")
        return self


# --------------------------------------------------------------------------
# sweep driver
# --------------------------------------------------------------------------


class Sweep:
    """One identity of a check: ``evaluate`` gives the terms of each case's
    defect as a dict, and a nonempty one is a failure.

    ``deal`` holds the indices of the case words by which a pool deals the
    cases out (``Cases.share``): the words that key the memo entries a case
    fills, so that no two shares fill the same entry.  By default the first
    word, which keys the Koszul levels of an order-n defect.  With no word,
    share 0 holds every case, and the other workers go on to the next
    sweep.

    ``reads`` bounds the F_2 entries of the defect memos that the cases
    read, (m, n) for the F_2(u, w) with |u| <= m and |w| <= n, which the
    driver keeps from the sweep before (``_forget_memos``).  None, the
    default, keeps none.
    """

    def __init__(self, name: str, bound: str, cases: Cases,
                 evaluate: Callable[[tuple[Word, ...]], dict[Word, Scalar]],
                 deal: tuple[int, ...] = (0,), reads: tuple[int, int] | None = None):
        self.name = name
        self.bound = bound
        self.cases = cases
        self.evaluate = evaluate
        self.deal = deal
        self.reads = reads


# The state of a pool check that ``_run_share`` reads in a worker, set there
# by the pool's initializer, so the checking process never writes it: the
# check's sweeps, the number of shares each is dealt into, the per-sweep
# memos of its own they fill, its space, the spaces whose tables it trims
# (its space and the target's), the reach of the sweeps from each one on,
# the failure cap, the sweep whose entries the memos hold and the reach the
# tables were last trimmed to.  A serial check keeps its own.
_worker: dict = {}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# A share's failures: how many, and the first ``fail_cap`` as
# (case index, case, terms).
Failures = tuple[int, list[tuple[int, tuple[Word, ...], dict[Word, Scalar]]]]


def _failures_in(cases: Iterable[tuple[int, tuple[Word, ...]]], evaluate: Callable,
                 fail_cap: int) -> Failures:
    """The failures among ``cases``, each given beside its index."""
    count, kept = 0, []
    for index, case in cases:
        defect = evaluate(case)
        if defect:
            count += 1
            if len(kept) < fail_cap:
                kept.append((index, case, defect))
    return count, kept


def _trim(spaces: Iterable[GradedSpace], reach: int) -> None:
    """Drop every entry that no case of total word length <= ``reach`` can
    read: from the image table of every operator on each of ``spaces``, the
    images of longer words; from each space, the shuffle pairs of a longer
    total and the longer interned words.

    No case reads a word longer than its own total, and a table refills on a
    miss, so trimming changes no result.  A table that loses entries is
    emptied and refilled in place: its readers keep it, and its key table
    shrinks to what is kept.
    """
    tables = []
    for space in spaces:
        tables += (op._cache for op in space._operators)
        tables.append(space._word_table)
        shuffles = space._shuffle_cache
        _keep(shuffles, {uv: v for uv, v in shuffles.items() if len(uv[0]) + len(uv[1]) <= reach})
    for table in tables:
        _keep(table, {w: v for w, v in table.items() if len(w) <= reach})


def _keep(table: dict, entries: dict) -> None:
    """Make ``table`` hold only ``entries``, a part of it, if it holds more."""
    if len(entries) < len(table):
        table.clear()
        table.update(entries)


def _forget_memos(space: GradedSpace, *memos: dict,
                  keep: tuple[int, int] | None = None) -> None:
    """Empty the per-sweep ``memos``, and drop from the defect memo of every
    operator on ``space`` each level and entry outside ``keep``, the
    ``reads`` of the sweep about to start: all of them if None, as when a
    check ends.  Each entry is the value of one fill, so a bound too tight
    costs only refills, and one too loose only memory."""
    for memo in memos:
        memo.clear()
    m, n = keep or (-1, -1)
    for op in space._operators:
        levels = {X: level for X, level in op._defects.items() if len(X) == 1 and len(X[0]) <= m}
        _keep(op._defects, levels)
        for level in levels.values():
            _keep(level, {w: entry for w, entry in level.items() if len(w) <= n})


def _run_share(task: tuple[int, int], state: dict = _worker) -> Failures:
    """Share j of a sweep's cases, for the task (sweep index, j), run on the
    check's ``state``: by default ``_worker``, which a pool worker's
    initializer fills.

    When the sweep index changes, the per-sweep memos are emptied and the
    defect memos cut to what the sweep ``reads`` (``_forget_memos``), and,
    if the reach of the sweeps still to run has dropped, the space's tables
    are trimmed to it (``_trim``); what they keep stays warm.  A worker that
    runs two shares of one sweep keeps the memos between them: each entry
    holds for every case of the sweep.
    """
    index, j = task
    sweep = state["sweeps"][index]
    if index != state["held"]:
        _forget_memos(state["space"], *state["memos"], keep=sweep.reads)
        state["held"] = index
        reach = state["reach"][index]
        if state["trimmed"] is None or reach < state["trimmed"]:
            _trim(state["spaces"], reach)
            state["trimmed"] = reach
    return _failures_in(sweep.cases.share(j, state["shares"], sweep.deal), sweep.evaluate,
                        state["fail_cap"])


def run_axiom(
    name: str,
    bound: str,
    cases: Cases,
    space: GradedSpace,
    *,
    fail_cap: int,
    shares: Iterable[Failures],
    target: GradedSpace | None = None,
) -> AxiomReport:
    """Report one identity over cases of words of ``space``, keeping the
    first ``fail_cap`` failures in case order.

    ``shares`` are the failures of the shares of the cases, as
    ``_run_share`` returns them; their kept failures are merged by case
    index.  Each kept defect's terms become an element of ``target``, by
    default ``space``, here in the checking process.
    """
    report = AxiomReport(name=name, bound=bound, cases=len(cases))
    kept = []
    for count, found in shares:
        report.failure_count += count
        kept += found
    kept.sort(key=lambda failure: failure[0])
    for _, case, defect in kept[:fail_cap]:
        inputs = tuple(map(space.decode, case))
        report.failures.append(Failure(inputs, TElement._make(target or space, defect)))
    return report


def run_sweeps(
    sweeps: Sequence[Sweep],
    memos: Sequence[dict] = (),
    *,
    space: GradedSpace,
    fail_cap: int = 10,
    jobs: int = 1,
    target: GradedSpace | None = None,
) -> list[AxiomReport]:
    """Run a check's sweeps, whose cases are words of ``space``, in order
    and report each one.

    ``memos`` are the check's own tables that live for one sweep.  When a
    sweep's first share starts they are emptied, the defect memos of the
    operators on ``space`` keep only the entries the sweep ``reads`` (see
    ``_forget_memos``; the check's return empties them), and those
    operators' image tables and the space's shuffle and intern tables drop
    every entry longer than the reach of the sweeps still to run (see
    ``_trim``); so do the tables of ``target``, the space the defects are
    elements of (by default ``space``).  What remains outlives the check.
    Each sweep is dealt into one share per worker by its ``deal`` words
    (``Cases.share``), run by ``_run_share``, and the shares' kept failures
    are merged in case order, so reports are the same at every ``jobs``.
    With jobs > 1 one fork-based pool, of at most one worker per usable
    CPU, serves every sweep.  Its initializer hands each forked
    worker the check's state, unpickled, case streams and evaluators
    included, and the workers keep their tables, trimmed the same way, from
    one sweep to the next.  Otherwise each sweep is share 0 of 1, all of
    its cases, run here on this call's own state, so no check writes module
    state here.
    """
    workers = min(jobs, _usable_cpus())
    ctx = None
    if workers > 1 and sum(len(s.cases) for s in sweeps) >= 4 * workers:
        import multiprocessing  # only here: a serial check never needs it

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pass
    if ctx is None:
        workers = 1
    tasks = [(i, j) for i in range(len(sweeps)) for j in range(workers)]
    # reach[i]: the longest total word length of any case of sweeps[i:]
    reach = list(itertools.accumulate((s.cases.reach for s in reversed(sweeps)), max))[::-1]
    spaces = (space,) if target is None else (space, target)
    state = dict(sweeps=sweeps, shares=workers, memos=tuple(memos), space=space, spaces=spaces,
                 reach=reach, fail_cap=fail_cap, held=None, trimmed=None)
    try:
        with nullcontext() if ctx is None else ctx.Pool(workers, _worker.update, (state,)) as pool:
            # read in order, as each sweep's run_axiom consumes its shares;
            # serially, a share runs only then
            if pool is None:
                results = map(functools.partial(_run_share, state=state), tasks)
            else:
                results = pool.imap(_run_share, tasks)
            return [
                run_axiom(s.name, s.bound, s.cases, space, fail_cap=fail_cap,
                          shares=itertools.islice(results, workers), target=target)
                for s in sweeps
            ]
    finally:
        _forget_memos(space, *memos)


# --------------------------------------------------------------------------
# bracket and operator order
# --------------------------------------------------------------------------


# The signed F_2 rows of an element x of the word space: one (row, c, u) per
# word u of x, where row = F_2(u, -), the memo level of (u,) in the
# operator's defect memo, and c = (-1)^|u| times u's coefficient; u itself
# when the even-degree correction applies (see ``_add_word``), else None.
Rows = list[tuple[Table, Scalar, Word | None]]


def _bracket_rows(delta: Operator, xterms: dict[Word, Scalar]) -> Rows:
    """The signed F_2 rows of the element with terms ``xterms``, so that
    {x, y} = sum c row[v] over the rows and the words v of y."""
    space = delta.space
    memo = delta._defects
    even = not delta.degree & 1
    rows = []
    for u, cu in xterms.items():
        odd_u = word_parity(space, u)
        rows.append((memo[(u,)], -cu if odd_u else cu, u if even and odd_u else None))
    return rows


def _add_word(
    acc: dict[Word, Scalar], delta: Operator, rows: Rows, y: Word, coeff: Scalar = 1,
) -> dict[Word, Scalar]:
    """acc += coeff * {x, y} for one word y, with x given by its signed rows;
    returns ``acc``.  Each row's entry at y is merged from the memo as it
    stands, never copied."""
    get = acc.get
    for row, cu, u in rows:
        c = coeff * cu
        # merge_scaled inlined: the sweeps call this once or twice per case
        for w, cw in row[y].items():
            val = get(w, 0) + c * cw
            if val:
                acc[w] = val
            else:
                del acc[w]
        if u is not None:
            # F_2 signs the term u * D(y) by (-1)^(|u| |D|), the bracket
            # by -1: they differ only for an even D and an odd u
            merge_shuffles(acc, delta.space, u, delta._cache[y], 2 * coeff * cu, True)
    return acc


def _add_rows(
    acc: dict[Word, Scalar], delta: Operator, rows: Rows, yterms: dict[Word, Scalar],
    coeff: Scalar = 1,
) -> dict[Word, Scalar]:
    """acc += coeff * {x, y}, with x given by its signed rows and y by its
    terms: ``_add_word`` over the words of y; returns ``acc``."""
    for v, cv in yterms.items():
        _add_word(acc, delta, rows, v, coeff * cv)
    return acc


def _word_bracket(delta: Operator, rows: Rows, y: Word) -> tuple[dict[Word, Scalar], Scalar]:
    """(terms, c) with {x, y} = c * terms, for one word y and x given by its
    signed rows.  When x has one row and no correction, terms is that row's
    memo entry at y itself, handed out by reference and only to be read;
    otherwise a new dict, and c = 1."""
    if len(rows) == 1:
        row, cu, u = rows[0]
        if u is None:
            return row[y], cu
    return _add_word({}, delta, rows, y), 1


def bracket(x: TElement, y: TElement, delta: Operator) -> TElement:
    """Deviation of ``delta`` from being a derivation of the shuffle product.

    Extended bilinearly over the words u of x and v of y, where
    {u, v} = (-1)^|u| F_2(u, v) with F_2 the memoised order-1 expression.
    """
    space = x.space
    if y.space != space:
        raise InvalidInputError("elements live in different spaces")
    if delta.space != space or delta.target != space:
        raise InvalidInputError("the operator acts on a different space")
    return TElement._make(space, _add_rows({}, delta, _bracket_rows(delta, x.terms), y.terms))


def order_defect(D: Operator, n: int, inputs: Sequence[TElement]) -> TElement:
    """The order-n test expression for an operator on the shuffle algebra.

    Sums, over nonempty subsets S = {i_1 < ... < i_r} of {1, ..., n+1},

        (-1)^(n+1-r+kappa) D(x_(i_1) * ... * x_(i_r)) * (complement factors)

    with the complement in increasing order and kappa the Koszul sign of
    the reordering, computed on word degrees.  Zero iff D has order n at
    these inputs.  Computed multilinearly over the input words by Koszul's
    recursion, which reuses the memoised lower-order expressions.
    """
    if n < 1:
        raise InvalidInputError(f"order must be >= 1, got {n}")
    if len(inputs) != n + 1:
        raise InvalidInputError(f"need {n + 1} inputs, got {len(inputs)}")
    space = D.space
    if D.target != space:
        raise InvalidInputError("the operator maps into a different space")
    if any(x.is_zero() for x in inputs):
        return TElement.zero(space)
    for x in inputs:
        x.degree()  # raises on inhomogeneous input
        if x.space != space:
            raise InvalidInputError("elements live in different spaces")
    shuffles = space._shuffle_cache
    acc: dict[Word, Scalar] = {}
    for combo in itertools.product(*(x.terms.items() for x in inputs)):
        coeff = math.prod(c for _, c in combo)
        # no sweep repeats a case tuple, so the top level is not stored;
        # its shuffles recur across cases and go through the space's table
        key = tuple(w for w, _ in combo)
        merge_scaled(acc, _koszul_step(D, key, shuffles), coeff)
    return TElement._make(space, acc)


# --------------------------------------------------------------------------
# axiom suites
# --------------------------------------------------------------------------


# A check's sweeps before their evaluators: (name, bound, cases) of each, in
# report order.
CasePlan = list[tuple[str, str, Cases]]


def dbv_cases(space: GradedSpace, bounds: Bounds) -> CasePlan:
    """The sweeps of ``check_dbv`` on ``space``, without their evaluators."""
    words = (f"words <= {bounds.unary}", word_product(space, bounds.unary, 1))
    pairs = (f"pairs <= {bounds.binary}", word_product(space, bounds.binary, 2))
    triples = (f"triples <= {bounds.ternary}", word_product(space, bounds.ternary, 3))
    return [
        ("d_squared", *words),
        ("delta_squared", *words),
        ("d_delta_anticommutator", *words),
        ("d_derivation", *pairs),
        ("bracket_antisymmetry", *pairs),
        ("bracket_leibniz", *triples),
        ("bracket_jacobi", *triples),
        ("delta_order_2", *triples),
    ]


def bvinf_cases(space: GradedSpace, K: int, bounds: Bounds) -> CasePlan:
    """The sweeps of ``check_bvinf`` on ``space`` up to arity ``K``, without
    their evaluators."""
    if K < 2:
        raise InvalidInputError("max arity must be >= 2")
    words = (f"words <= {bounds.unary}", word_product(space, bounds.unary, 1))
    plan = [("delta_1_is_d", *words)]
    for k in range(1, K + 1):
        g, total = 3 - 2 * k, k + 1 + bounds.order_slack
        plan.append((f"degree_delta_{g}", *words))
        plan.append((f"order_{k}_delta_{g}", f"{k + 1} nonempty words, total <= {total}",
                     word_tuples(space, k + 1, total)))
    # the lifts have degrees 3 - 2k, so two of them compose to 6 - 2(j + k)
    for n in range(2, 4 - 4 * K, -2):
        plan.append((f"sum_relation_n_{n}", *words))
    return plan


def functoriality_cases(space: GradedSpace, bounds: Bounds) -> CasePlan:
    """The sweeps of ``check_functoriality`` from ``space``, without their
    evaluators."""
    words = (f"words <= {bounds.unary}", word_product(space, bounds.unary, 1))
    return [
        ("morphism_commutes_d", *words),
        ("morphism_commutes_delta", *words),
        ("morphism_commutes_shuffle", f"pairs <= {bounds.binary}",
         word_product(space, bounds.binary, 2)),
    ]


def _on_word(relation: Callable[[Word], dict[Word, Scalar]]) -> Callable:
    """The evaluator of one-word cases that applies ``relation`` to the word."""
    return lambda case: relation(case[0])


def _run_plan(plan: CasePlan, evaluators: dict, memos=(), *, space, bounds, deals=None,
              reads=None, target=None) -> list[AxiomReport]:
    """Run the sweeps of ``plan``, each with its evaluator by name, and its
    deal and reads (see ``Sweep``) from ``deals`` and ``reads`` if they
    name it, through ``run_sweeps``, which is handed ``target``."""
    deals, reads = deals or {}, reads or {}
    sweeps = [Sweep(name, bound, cases, evaluators[name], deals.get(name, (0,)), reads.get(name))
              for name, bound, cases in plan]
    return run_sweeps(sweeps, memos, space=space, fail_cap=bounds.fail_cap, jobs=bounds.jobs,
                      target=target)


def check_dbv(dga, bounds: Bounds | None = None) -> list[AxiomReport]:
    """Every axiom of the induced structure on words, exhaustively.

    ``dga`` must expose ``space``, lifted operators ``d_op`` and
    ``delta_op``, and have passed validation (validity is a precondition,
    not re-checked here; failures of the axioms are reported as data).
    """
    bounds = bounds or Bounds()
    space = dga.space
    d, delta = dga.d_op, dga.delta_op
    # the degree parity of each case word, read by subscript
    odd = Table(lambda w: word_parity(space, w))
    # each case's identity is merged term by term into one dict, every image,
    # shuffle and F-value read by subscript: from the operators' and the
    # space's tables, and from delta's per-sweep defect memo
    shuffles = space._shuffle_cache
    # signed bracket rows, read by subscript: of each word, and, once per
    # (x, y) of the triples, whose innermost index is z, of x * y (Leibniz)
    # and of {x, y} (Jacobi); they hold levels of delta's defect memo and
    # are emptied with it
    word_rows = Table(lambda u: _bracket_rows(delta, {u: 1}))
    product_rows = Table(lambda xy: _bracket_rows(delta, shuffles[xy]))
    bracket_rows = Table(
        lambda xy: _bracket_rows(delta, _add_word({}, delta, word_rows[xy[0]], xy[1]))
    )

    def antisymmetry(case):
        x, y = case
        s = 1 if odd[x] or odd[y] else -1
        acc = _add_word({}, delta, word_rows[x], y)
        return _add_word(acc, delta, word_rows[y], x, s)

    def leibniz(case):
        # {x * y, z} - x * {y, z} - s {x, z} * y, each one-word bracket
        # shuffled straight from the memo when it is one row's entry
        x, y, z = case
        s = -1 if odd[y] and not odd[z] else 1
        acc = _add_word({}, delta, product_rows[x, y], z)
        yz, c = _word_bracket(delta, word_rows[y], z)
        merge_shuffles(acc, space, x, yz, -c, True, shuffles)
        xz, c = _word_bracket(delta, word_rows[x], z)
        merge_shuffles(acc, space, y, xz, -s * c, False, shuffles)
        return acc

    def jacobi(case):
        # {x, {y, z}} - {{x, y}, z} - s {y, {x, z}}
        x, y, z = case
        s = 1 if odd[x] or odd[y] else -1
        rx, ry = word_rows[x], word_rows[y]
        yz, c = _word_bracket(delta, ry, z)
        acc = _add_rows({}, delta, rx, yz, c)
        _add_word(acc, delta, bracket_rows[x, y], z, -1)
        xz, c = _word_bracket(delta, rx, z)
        return _add_rows(acc, delta, ry, xz, -s * c)

    evaluators = {
        # the composites are the arity <= 2 A-infinity relations of (d, mu);
        # explicit terms, since a caller's d and delta may share a degree
        "d_squared": _on_word(composite_sum([(1, d, d)])),
        "delta_squared": _on_word(composite_sum([(1, delta, delta)])),
        "d_delta_anticommutator": _on_word(composite_sum([(1, d, delta), (1, delta, d)])),
        # d's order-1 defect F_2(u, v): d is a derivation of the shuffle product
        "d_derivation": lambda c: _koszul_step(d, c, shuffles),
        "bracket_antisymmetry": antisymmetry,
        "bracket_leibniz": leibniz,
        "bracket_jacobi": jacobi,
        "delta_order_2": lambda c: _koszul_step(delta, c, shuffles),
    }
    # each sweep deals by the words that key the memo entries it fills (see
    # ``Sweep``): Leibniz fills F_2(u, z), antisymmetry F_2(x, y) and
    # F_2(y, x).  Jacobi reads F_2 of (x, y), (x, z) and (y, z), which no
    # deal by words keeps apart, so its cases stay in one share
    deals = {"bracket_antisymmetry": (0, 1), "bracket_leibniz": (2,), "bracket_jacobi": ()}
    # the F_2(u, w) entries each sweep reads, as bounds on |u| and |w| (see
    # ``Sweep``), so the driver keeps them from the sweep before: Leibniz
    # reads u of x * y, Jacobi u and w of the brackets {x, y}, {x, z} and
    # {y, z}, one letter shorter than x * y since delta's bracket shortens
    # a word by one, and the order-2 defect w of y * z
    p, t = bounds.binary, bounds.ternary
    reads = {"bracket_antisymmetry": (p, p), "bracket_leibniz": (2 * t, t),
             "bracket_jacobi": (2 * t - 1, 2 * t - 1), "delta_order_2": (t, 2 * t)}
    return _run_plan(dbv_cases(space, bounds), evaluators, (word_rows, product_rows, bracket_rows),
                     space=space, bounds=bounds, deals=deals, reads=reads)


def check_bvinf(ainf, K: int | None = None, bounds: Bounds | None = None) -> list[AxiomReport]:
    """Verify degree, operator order, and the composition relations.

    ``ainf`` must expose ``space``, ``maps`` (arity -> MultilinearMap) and
    ``delta_op(k)`` (the lift of arity k), and have passed validation.
    For each arity k <= K: the lift has operator degree 3-2k and order k;
    for each total degree n, the sum of the composites of two lifts with
    degrees summing to n vanishes on words up to the unary bound.  K is by
    default ``algebra_io.default_arity`` of ``maps``.
    """
    bounds = bounds or Bounds()
    if K is None:
        K = default_arity(ainf.maps, check=True)
    space = ainf.space
    plan = bvinf_cases(space, K, bounds)
    ops = {k: ainf.delta_op(k) for k in range(1, K + 1)}
    shuffles = space._shuffle_cache

    # delta_1_is_d holds by construction: ops[1] is d_lift, one cached lift
    one_img, d_img = ops[1]._cache, ainf.delta_op(1)._cache
    evaluators = {
        "delta_1_is_d": lambda c: merge_scaled(dict(one_img[c[0]]), d_img[c[0]], -1),
    }

    for k, op in ops.items():
        g = 3 - 2 * k

        def degree_defect(case, op_img=op._cache, g=g):
            w = case[0]
            base = word_degree(space, w)
            return {w2: c for w2, c in op_img[w].items() if word_degree(space, w2) != base + g}

        evaluators[f"degree_delta_{g}"] = degree_defect
        # the order-k defect of k + 1 basis words, from op's defect memo
        evaluators[f"order_{k}_delta_{g}"] = lambda case, op=op: _koszul_step(op, case, shuffles)

    for n, relation in composition_relations(ops.values()):
        evaluators[f"sum_relation_n_{n}"] = _on_word(relation)
    return _run_plan(plan, evaluators, space=space, bounds=bounds)


def check_functoriality(morph, bounds: Bounds | None = None) -> list[AxiomReport]:
    """The word-space map induced by a validated morphism preserves d,
    the lifted product operator, and the shuffle product."""
    bounds = bounds or Bounds()
    F = induced_morphism(morph.fmap)
    src, tgt = morph.source, morph.target

    def shuffle_defect(case):
        # F(u * v) - F(u) * F(v), from the source's and the target's shuffle tables
        u, v = case
        acc = merge_images({}, src.space._shuffle_cache[u, v], F._cache, 1)
        for w, c in F._cache[u].items():
            merge_shuffles(acc, tgt.space, w, F._cache[v], -c, True, tgt.space._shuffle_cache)
        return acc

    evaluators = {
        # F o D - D' o F, read from the image tables of F and of the operators
        "morphism_commutes_d": _on_word(composite_sum([(1, F, src.d_op), (-1, tgt.d_op, F)])),
        "morphism_commutes_delta":
            _on_word(composite_sum([(1, F, src.delta_op), (-1, tgt.delta_op, F)])),
        "morphism_commutes_shuffle": shuffle_defect,
    }
    plan = functoriality_cases(src.space, bounds)
    # F is an operator on the source space, and its images and the target's
    # tables hold words no longer than their source words, so the source's
    # reach trims them all
    return _run_plan(plan, evaluators, space=src.space, bounds=bounds, target=tgt.space)
