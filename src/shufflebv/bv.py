"""The bracket, the operator-order identity, and the axiom suites.

The bracket measures the failure of a degree -1 operator to be a
derivation of the shuffle product:

    {x, y} = (-1)^|x| D(x * y) - (-1)^|x| D(x) * y - x * D(y),

with |x| the word degree and * the shuffle product.  The bracket and the
order-n expression are both read off the operator's defect memo
(``operators.defect_table``), which lives for one sweep.  ``check_dbv`` and
``check_bvinf`` verify every axiom of the induced structure by exhaustive
evaluation over basis words up to caller-supplied length bounds; failures
are collected as data, never raised.  Each case's identity is merged into
one dict by ``merge_images``, its images, shuffles, brackets and defects
read by subscript from the tables of the operators, the space and the
memo.  Every suite builds its sweeps first and hands them to one driver,
``run_sweeps``.  Case words, like every table key, are stored words (``Word``,
a str; see ``words``); a failure decodes its inputs to letter ids.
"""

from __future__ import annotations

import functools
import itertools
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .graded import GradedSpace, InvalidInputError, Scalar, render_scalar
from .operators import (
    Operator,
    _koszul_step,
    composition_relations,
    induced_morphism,
)
from .words import (
    Table,
    TElement,
    Word,
    merge_images,
    merge_scaled,
    merge_shuffles,
    render_telement,
    shuffle_elements,
    word_degree,
    word_parity,
    word_tuples_with_total,
    words_up_to,
)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass
class Failure:
    """A failing case: its input words, each as its letter ids, and the
    nonzero defect."""

    inputs: tuple[tuple[str, ...], ...]
    defect: TElement

    def to_json(self) -> dict:
        return {
            "inputs": [list(w) for w in self.inputs],
            "defect": {
                "terms": [[render_scalar(c), list(w)] for w, c in self.defect],
                "pretty": render_telement(self.defect, tensor="⊗"),
            },
        }


@dataclass
class AxiomReport:
    """Outcome of one exhaustively checked identity."""

    name: str
    bound: str
    cases: int
    failures: list[Failure] = field(default_factory=list)
    failure_count: int = 0

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


@dataclass(frozen=True)
class Bounds:
    """Word-length bounds for the exhaustive sweeps."""

    unary: int = 5
    binary: int = 3
    ternary: int = 2
    order_slack: int = 2
    fail_cap: int = 10
    jobs: int = 1

    def __post_init__(self):
        if min(self.unary, self.binary, self.ternary, self.order_slack) < 0:
            raise InvalidInputError("bounds must be nonnegative")
        if self.fail_cap < 1:
            raise InvalidInputError("fail_cap must be >= 1")
        if self.jobs < 1:
            raise InvalidInputError("jobs must be >= 1")


# --------------------------------------------------------------------------
# sweep driver
# --------------------------------------------------------------------------


@dataclass
class Sweep:
    """One identity of a check: ``evaluate`` gives each case's defect, and
    a nonzero defect is a failure."""

    name: str
    bound: str
    cases: Sequence[tuple[Word, ...]]
    evaluate: Callable[[tuple[Word, ...]], TElement | None]


# The state of a pool check that ``_run_block`` reads in the workers, set by
# ``run_sweeps`` before the pool forks, so that workers inherit it: the
# check's sweeps, the per-sweep memos they fill, the failure cap, and the
# sweep whose entries the memos hold.  A serial check keeps its own.
_worker: dict = {}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _failures_in(
    cases: Sequence[tuple[Word, ...]], evaluate: Callable, start: int, stop: int, fail_cap: int
) -> tuple[int, list[tuple[int, TElement]]]:
    """The failures among ``cases[start:stop]``: how many, and the first
    ``fail_cap`` of them as (offset, defect)."""
    count, kept = 0, []
    for offset in range(start, stop):
        defect = evaluate(cases[offset])
        if defect is not None and not defect.is_zero():
            count += 1
            if len(kept) < fail_cap:
                kept.append((offset, defect))
    return count, kept


def _run_block(
    task: tuple[int, int, int], state: dict = _worker
) -> tuple[int, list[tuple[int, TElement]]]:
    """One contiguous block of a sweep's cases (sweep index, start, stop),
    run on the check's ``state``: by default ``_worker``, which pool workers
    inherit.

    The per-sweep memos are emptied when the sweep index changes; the image
    and shuffle tables stay warm.  A block may start inside a run of cases
    that share a memo entry: the entry is then filled here afresh.
    """
    index, start, stop = task
    if index != state["held"]:
        _forget_memos(*state["memos"])
        state["held"] = index
    sweep = state["sweeps"][index]
    return _failures_in(sweep.cases, sweep.evaluate, start, stop, state["fail_cap"])


def _blocks(n: int, workers: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into at most ``workers`` contiguous, near-equal blocks."""
    k = min(n, workers)
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def run_axiom(
    name: str,
    bound: str,
    cases: Sequence[tuple[Word, ...]],
    space: GradedSpace,
    *,
    fail_cap: int,
    blocks: Iterable[tuple[int, list[tuple[int, TElement]]]],
) -> AxiomReport:
    """Report one identity over a case list of words of ``space``, keeping
    the first ``fail_cap`` failures in case order.

    ``blocks`` are the failures of consecutive blocks of the cases, as
    ``_run_block`` returns them.
    """
    report = AxiomReport(name=name, bound=bound, cases=len(cases))
    for count, kept in blocks:
        report.failure_count += count
        for offset, defect in kept[: fail_cap - len(report.failures)]:
            inputs = tuple(map(space.decode, cases[offset]))
            report.failures.append(Failure(inputs, defect))
    return report


def run_sweeps(
    sweeps: Sequence[Sweep],
    memos: Sequence[dict] = (),
    *,
    space: GradedSpace,
    fail_cap: int = 10,
    jobs: int = 1,
) -> list[AxiomReport]:
    """Run a check's sweeps, whose cases are words of ``space``, in order
    and report each one.

    ``memos`` are the tables the sweeps fill that live for one sweep, such
    as the operators' defect memos; they are emptied when the next sweep's
    first block starts, and when the check returns.  Each sweep is handed
    out as contiguous blocks of cases, run by ``_run_block``, and the
    blocks' results are merged in case order, so reports are the same at
    every ``jobs``.  With jobs > 1 one fork-based pool, of at most one
    worker per usable CPU, serves every sweep, one block per worker.  It
    forks after the sweeps are built, so the workers inherit the case lists
    and evaluators, and they keep their image and shuffle tables from one
    sweep to the next.  Otherwise each sweep is one block, run here on
    this call's own state, so serial checks share no module state.
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
    plan = [_blocks(len(s.cases), workers) for s in sweeps]
    tasks = [(i, start, stop) for i, spans in enumerate(plan) for start, stop in spans]
    state = dict(sweeps=sweeps, memos=tuple(memos), fail_cap=fail_cap, held=None)
    if ctx is not None:
        _worker.update(state)  # before the fork, so the workers inherit it
    try:
        with nullcontext() if ctx is None else ctx.Pool(workers) as pool:
            # read in order, as each sweep's run_axiom consumes its blocks;
            # serially, a block runs only then
            if pool is None:
                results = map(functools.partial(_run_block, state=state), tasks)
            else:
                results = pool.imap(_run_block, tasks)
            return [
                run_axiom(s.name, s.bound, s.cases, space, fail_cap=fail_cap,
                          blocks=itertools.islice(results, len(spans)))
                for s, spans in zip(sweeps, plan)
            ]
    finally:
        if ctx is not None:
            _worker.clear()
        _forget_memos(*memos)


# --------------------------------------------------------------------------
# bracket and operator order
# --------------------------------------------------------------------------


def _forget_memos(*memos: dict) -> None:
    """Empty the per-sweep ``memos``; the sweep driver calls this when a
    sweep's first block starts and when a check ends."""
    for memo in memos:
        memo.clear()


# The signed F_2 rows of an element x of the word space: one (row, c, u) per
# word u of x, where row = F_2(u, -), the memo level of (u,) in the
# operator's defect memo, and c = (-1)^|u| times u's coefficient; u itself
# when the even-degree correction applies (see ``_add_rows``), else None.
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


def _add_rows(
    acc: dict[Word, Scalar], delta: Operator, rows: Rows, yterms: dict[Word, Scalar],
    coeff: Scalar = 1,
) -> dict[Word, Scalar]:
    """acc += coeff * {x, y}, with x given by its signed rows; returns ``acc``."""
    for row, cu, u in rows:
        merge_images(acc, yterms, row, coeff * cu)
        if u is not None:
            # F_2 signs the term u * D(y) by (-1)^(|u| |D|), the bracket
            # by -1: they differ only for an even D and an odd u
            dy = merge_images({}, yterms, delta._cache, 1)
            merge_shuffles(acc, delta.space, u, dy, 2 * coeff * cu, True)
    return acc


def bracket(x: TElement, y: TElement, delta: Operator) -> TElement:
    """Deviation of ``delta`` from being a derivation of the shuffle product.

    Extended bilinearly over the words u of x and v of y, where
    {u, v} = (-1)^|u| F_2(u, v) with F_2 the memoised order-1 expression.
    """
    space = x.space
    if y.space != space:
        raise InvalidInputError("elements live in different spaces")
    if delta.space != space:
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
    if any(x.is_zero() for x in inputs):
        return TElement.zero(space)
    for x in inputs:
        x.degree()  # raises on inhomogeneous input
        if x.space != space:
            raise InvalidInputError("elements live in different spaces")
    shuffles = space._shuffle_cache
    acc: dict[Word, Scalar] = {}
    for combo in itertools.product(*(x.terms.items() for x in inputs)):
        coeff = 1
        for _, c in combo:
            coeff *= c
        # no sweep repeats a case tuple, so the top level is not stored;
        # its shuffles recur across cases and go through the space's table
        key = tuple(w for w, _ in combo)
        merge_scaled(acc, _koszul_step(D, key, shuffles), coeff)
    return TElement._make(space, acc)


# --------------------------------------------------------------------------
# axiom suites
# --------------------------------------------------------------------------


def check_dbv(dga, bounds: Bounds | None = None) -> list[AxiomReport]:
    """Every axiom of the induced structure on words, exhaustively.

    ``dga`` must expose ``space``, lifted operators ``d_op`` and
    ``delta_op``, and have passed validation (validity is a precondition,
    not re-checked here; failures of the axioms are reported as data).
    """
    bounds = bounds or Bounds()
    space = dga.space
    d, delta = dga.d_op, dga.delta_op
    singles = [(w,) for w in words_up_to(space, bounds.unary)]
    pairs = list(
        itertools.product(words_up_to(space, bounds.binary), repeat=2)
    )
    triples = list(
        itertools.product(words_up_to(space, bounds.ternary), repeat=3)
    )
    wd = lambda w: word_degree(space, w)
    # each case's identity is merged term by term into one dict, every image,
    # shuffle and F-value read by subscript: from the operators' and the
    # space's tables, and from delta's per-sweep defect memo
    d_img, delta_img = d._cache, delta._cache
    shuffles = space._shuffle_cache
    # signed bracket rows, read by subscript: of each word, and, once per
    # (x, y) of the triples, whose innermost index is z, of x * y (Leibniz)
    # and of {x, y} (Jacobi); they hold levels of delta's defect memo and
    # are emptied with it
    word_rows = Table(lambda u: _bracket_rows(delta, {u: 1}))
    product_rows = Table(lambda xy: _bracket_rows(delta, shuffles[xy]))
    bracket_rows = Table(
        lambda xy: _bracket_rows(delta, _add_rows({}, delta, word_rows[xy[0]], {xy[1]: 1}))
    )

    def square(img):
        return lambda c: TElement._make(space, merge_images({}, img[c[0]], img, 1))

    def anticommutator(case):
        w = case[0]
        acc = merge_images({}, delta_img[w], d_img, 1)
        return TElement._make(space, merge_images(acc, d_img[w], delta_img, 1))

    def antisymmetry(case):
        x, y = case
        s = -1 if ((wd(x) + 1) & 1) & ((wd(y) + 1) & 1) else 1
        acc = _add_rows({}, delta, word_rows[x], {y: 1})
        return TElement._make(space, _add_rows(acc, delta, word_rows[y], {x: 1}, s))

    def leibniz(case):
        # {x * y, z} - x * {y, z} - s {x, z} * y
        x, y, z = case
        s = -1 if (wd(y) & 1) & ((wd(z) + 1) & 1) else 1
        zt = {z: 1}
        acc = _add_rows({}, delta, product_rows[x, y], zt)
        merge_shuffles(acc, space, x, _add_rows({}, delta, word_rows[y], zt), -1, True, shuffles)
        merge_shuffles(acc, space, y, _add_rows({}, delta, word_rows[x], zt), -s, False, shuffles)
        return TElement._make(space, acc)

    def jacobi(case):
        # {x, {y, z}} - {{x, y}, z} - s {y, {x, z}}
        x, y, z = case
        s = -1 if ((wd(x) + 1) & 1) & ((wd(y) + 1) & 1) else 1
        rx, ry, zt = word_rows[x], word_rows[y], {z: 1}
        acc = _add_rows({}, delta, rx, _add_rows({}, delta, ry, zt))
        _add_rows(acc, delta, bracket_rows[x, y], zt, -1)
        _add_rows(acc, delta, ry, _add_rows({}, delta, rx, zt), -s)
        return TElement._make(space, acc)

    sweeps = [
        Sweep("d_squared", f"words <= {bounds.unary}", singles, square(d_img)),
        Sweep("delta_squared", f"words <= {bounds.unary}", singles, square(delta_img)),
        Sweep("d_delta_anticommutator", f"words <= {bounds.unary}", singles,
              anticommutator),
        # d's order-1 defect F_2(u, v): d is a derivation of the shuffle product
        Sweep("d_derivation", f"pairs <= {bounds.binary}", pairs,
              lambda c: TElement._make(space, _koszul_step(d, c, shuffles))),
        Sweep("bracket_antisymmetry", f"pairs <= {bounds.binary}", pairs, antisymmetry),
        Sweep("bracket_leibniz", f"triples <= {bounds.ternary}", triples, leibniz),
        Sweep("bracket_jacobi", f"triples <= {bounds.ternary}", triples, jacobi),
        Sweep("delta_order_2", f"triples <= {bounds.ternary}", triples,
              lambda c: TElement._make(space, _koszul_step(delta, c, shuffles))),
    ]
    memos = (d._defects, delta._defects, word_rows, product_rows, bracket_rows)
    return run_sweeps(sweeps, memos, space=space, fail_cap=bounds.fail_cap, jobs=bounds.jobs)


def check_bvinf(ainf, K: int | None = None, bounds: Bounds | None = None) -> list[AxiomReport]:
    """Verify degree, operator order, and the composition relations.

    ``ainf`` must expose ``space``, ``maps`` (arity -> MultilinearMap) and
    ``delta_ops`` (arity -> lifted Operator), and have passed validation.
    For each arity k <= K: the lift has operator degree 3-2k and order k;
    for each total degree n, the sum of the composites of two lifts with
    degrees summing to n vanishes on words up to the unary bound.
    """
    bounds = bounds or Bounds()
    if K is None:
        K = max(ainf.maps, default=2)
    if K < 2:
        raise InvalidInputError("max arity must be >= 2")
    space = ainf.space
    ops = {k: ainf.delta_op(k) for k in range(1, K + 1)}
    shuffles = space._shuffle_cache
    singles = [(w,) for w in words_up_to(space, bounds.unary)]
    sweeps = []

    # delta_1_is_d holds by construction: ops[1] is d_lift, one cached lift
    one_img, d_img = ops[1]._cache, ainf.delta_op(1)._cache
    sweeps.append(Sweep(
        "delta_1_is_d",
        f"words <= {bounds.unary}",
        singles,
        lambda c: TElement._make(space, merge_scaled(dict(one_img[c[0]]), d_img[c[0]], -1)),
    ))

    for k, op in ops.items():
        g = 3 - 2 * k

        def degree_defect(case, op_img=op._cache, g=g):
            w = case[0]
            base = word_degree(space, w)
            bad = {
                w2: c
                for w2, c in op_img[w].items()
                if word_degree(space, w2) != base + g
            }
            return TElement._make(space, bad)

        sweeps.append(Sweep(
            f"degree_delta_{g}",
            f"words <= {bounds.unary}",
            singles,
            degree_defect,
        ))
        tuples = word_tuples_with_total(space, k + 1, (k + 1) + bounds.order_slack)
        # the order-k defect of k + 1 basis words, from op's defect memo
        sweeps.append(Sweep(
            f"order_{k}_delta_{g}",
            f"{k + 1} nonempty words, total <= {k + 1 + bounds.order_slack}",
            tuples,
            lambda case, op=op: TElement._make(space, _koszul_step(op, case, shuffles)),
        ))

    for n, relation in composition_relations(ops.values()):
        sweeps.append(Sweep(
            f"sum_relation_n_{n}",
            f"words <= {bounds.unary}",
            singles,
            lambda case, relation=relation: TElement._make(space, relation(case[0])),
        ))
    memos = tuple(op._defects for op in ops.values())
    return run_sweeps(sweeps, memos, space=space, fail_cap=bounds.fail_cap, jobs=bounds.jobs)


def check_functoriality(morph, bounds: Bounds | None = None) -> list[AxiomReport]:
    """The word-space map induced by a validated morphism preserves d,
    the lifted product operator, and the shuffle product."""
    bounds = bounds or Bounds()
    F = induced_morphism(morph.fmap)
    src, tgt = morph.source, morph.target
    singles = [(w,) for w in words_up_to(src.space, bounds.unary)]
    pairs = list(itertools.product(words_up_to(src.space, bounds.binary), repeat=2))
    # case words come from ``words_up_to`` on the source space: trusted
    el = lambda w: TElement._make(src.space, {w: 1})

    sweeps = [
        Sweep("morphism_commutes_d", f"words <= {bounds.unary}", singles,
              lambda c: F(src.d_op(el(c[0]))) - tgt.d_op(F(el(c[0])))),
        Sweep("morphism_commutes_delta", f"words <= {bounds.unary}", singles,
              lambda c: F(src.delta_op(el(c[0]))) - tgt.delta_op(F(el(c[0])))),
        Sweep("morphism_commutes_shuffle", f"pairs <= {bounds.binary}", pairs,
              lambda c: F(shuffle_elements(el(c[0]), el(c[1])))
              - shuffle_elements(F(el(c[0])), F(el(c[1])))),
    ]
    return run_sweeps(sweeps, space=src.space, fail_cap=bounds.fail_cap, jobs=bounds.jobs)
