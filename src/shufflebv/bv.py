"""The bracket, the operator-order identity, and the axiom suites.

The bracket measures the failure of a degree -1 operator to be a
derivation of the shuffle product:

    {x, y} = (-1)^|x| D(x * y) - (-1)^|x| D(x) * y - x * D(y),

with |x| the word degree and * the shuffle product.  The bracket and the
order-n expression are both read off one memo per operator, keyed by
tuples of basis words and filled by Koszul's recursion; the suites empty
it after each sweep.  ``check_dbv`` and
``check_bvinf`` verify every axiom of the induced structure by exhaustive
evaluation over basis words up to caller-supplied length bounds; failures
are collected as data, never raised.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .graded import InvalidInputError, Scalar, render_scalar
from .kernel import merge_scaled
from . import words
from .operators import MultilinearMap, Operator, compose, induced_morphism
from .words import (
    Shuffle,
    TElement,
    Word,
    enumerate_shuffles,
    render_telement,
    shuffle_elements,
    shuffle_terms,
    sorted_terms,
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
    inputs: tuple[Word, ...]
    defect: TElement

    def to_json(self) -> dict:
        return {
            "inputs": [list(w) for w in self.inputs],
            "defect": {
                "terms": [
                    [render_scalar(c), list(w)]
                    for w, c in sorted_terms(self.defect.terms)
                ],
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
# case sweep machinery
# --------------------------------------------------------------------------

_PARALLEL_EVAL: Callable | None = None


def _parallel_case(case):
    defect = _PARALLEL_EVAL(case)
    if defect is None or defect.is_zero():
        return None
    return defect


def run_axiom(
    name: str,
    bound: str,
    cases: Sequence[tuple[Word, ...]],
    evaluate: Callable[[tuple[Word, ...]], TElement | None],
    *,
    fail_cap: int = 10,
    jobs: int = 1,
) -> AxiomReport:
    """Evaluate one identity over a case list, collecting nonzero defects.

    Cases are independent; with jobs > 1 they are evaluated by a fork-based
    worker pool and merged back in case order, so reports are deterministic
    either way.
    """
    report = AxiomReport(name=name, bound=bound, cases=len(cases))
    if jobs > 1 and len(cases) >= 4 * jobs:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            global _PARALLEL_EVAL
            _PARALLEL_EVAL = evaluate
            try:
                chunk = max(1, len(cases) // (jobs * 8))
                with ctx.Pool(jobs) as pool:
                    results = pool.map(_parallel_case, cases, chunksize=chunk)
            finally:
                _PARALLEL_EVAL = None
            for case, defect in zip(cases, results):
                if defect is not None:
                    report.failure_count += 1
                    if len(report.failures) < fail_cap:
                        report.failures.append(Failure(tuple(case), defect))
            return report
    for case in cases:
        defect = evaluate(case)
        if defect is not None and not defect.is_zero():
            report.failure_count += 1
            if len(report.failures) < fail_cap:
                report.failures.append(Failure(tuple(case), defect))
    return report


# --------------------------------------------------------------------------
# bracket and operator order
# --------------------------------------------------------------------------


def _defect_memo(D) -> dict[tuple[Word, ...], dict[Word, Scalar]]:
    """The memo of F-values kept on ``D``, attached on first use to any
    operator-like object (one with ``space``, ``degree`` and ``apply_word``)."""
    memo = getattr(D, "_defects", None)
    if memo is None:
        memo = D._defects = {}
    return memo


def _forget_defects(*ops) -> None:
    """Empty the defect memos of ``ops``; the suites call this after each sweep."""
    for op in ops:
        memo = getattr(op, "_defects", None)
        if memo:
            memo.clear()


def _defect(D, memo: dict, key: tuple[Word, ...]) -> dict[Word, Scalar]:
    """F_m(key) for m = len(key), stored in ``memo`` for m >= 2."""
    if len(key) == 1:
        return D.apply_word(key[0])
    hit = memo.get(key)
    if hit is None:
        # shuffles inside a stored entry bypass the space's cache: the memo
        # already holds what is built from them
        hit = _koszul_step(D, memo, key, shuffle_terms)
        memo[key] = hit
    return hit


def _cached_shuffle_terms(space, u: Word, v: Word) -> dict[Word, Scalar]:
    # looked up on ``words`` at call time, so a wrapper installed there (the
    # perfbench tracer's) sees these calls too
    return words.shuffle(space, u, v).terms


def _koszul_step(D, memo: dict, key: tuple[Word, ...], product) -> dict[Word, Scalar]:
    """F_m(X, b, c) for m = len(key) >= 2, by Koszul's recursion

        F_m(X, b, c) = sum_w [b*c]_w F_(m-1)(X, w) - F_(m-1)(X, b) * c
                       - (-1)^(|b| (|D| + sum_(x in X) |x|)) b * F_(m-1)(X, c),

    where F_1 = D and F_m is the order-(m-1) expression of ``order_defect``
    at the basis words of ``key``.  ``product(space, u, v)`` gives the terms
    of the shuffle of two words.
    """
    space = D.space
    X, b, c = key[:-2], key[-2], key[-1]
    acc: dict[Word, Scalar] = {}
    for w, s in product(space, b, c).items():
        merge_scaled(acc, _defect(D, memo, X + (w,)), s)
    for w, s in _defect(D, memo, X + (b,)).items():
        merge_scaled(acc, product(space, w, c), -s)
    par = D.degree
    for x in X:
        par += word_parity(space, x)
    sign = 1 if word_parity(space, b) & par & 1 else -1
    for w, s in _defect(D, memo, X + (c,)).items():
        merge_scaled(acc, product(space, b, w), sign * s)
    return acc


def bracket(x: TElement, y: TElement, delta: Operator) -> TElement:
    """Deviation of ``delta`` from being a derivation of the shuffle product.

    Extended bilinearly over the words u of x and v of y, where
    {u, v} = (-1)^|u| F_2(u, v) with F_2 the memoised order-1 expression.
    """
    space = x.space
    if y.space != space:
        raise InvalidInputError("elements live in different spaces")
    memo = _defect_memo(delta)
    even = not delta.degree & 1
    acc: dict[Word, Scalar] = {}
    for u, cu in x.terms.items():
        odd_u = word_parity(space, u)
        for v, cv in y.terms.items():
            c = cu * cv
            merge_scaled(acc, _defect(delta, memo, (u, v)), -c if odd_u else c)
            if even and odd_u:
                # F_2 signs the term u * D(v) by (-1)^(|u| |D|), the bracket
                # by -1: they differ only for an even D and an odd u
                for w, s in delta.apply_word(v).items():
                    merge_scaled(acc, shuffle_terms(space, u, w), -2 * c * s)
    return TElement._make(space, acc)


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
    memo = _defect_memo(D)
    acc: dict[Word, Scalar] = {}
    for combo in itertools.product(*(x.terms.items() for x in inputs)):
        coeff = 1
        for _, c in combo:
            coeff *= c
        # no sweep repeats a case tuple, so the top level is not stored;
        # its shuffles recur across cases and go through the space's cache
        key = tuple(w for w, _ in combo)
        merge_scaled(acc, _koszul_step(D, memo, key, _cached_shuffle_terms), coeff)
    return TElement._make(space, acc)


# --------------------------------------------------------------------------
# bracket support (C-sets)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CSet:
    """Positions of a shuffled word where the two source blocks touch."""

    shuffle: Shuffle
    positions: frozenset[int]


def c_set(sh: Shuffle) -> CSet:
    """Positions j (0-based) where exactly one of slots j, j+1 came from block 1."""
    inv = sh.inverse
    n, total = sh.n, sh.n + sh.m
    positions = frozenset(
        j for j in range(total - 1) if (inv[j] < n) != (inv[j + 1] < n)
    )
    return CSet(sh, positions)


def bracket_support_check(u: Word, v: Word, mu: MultilinearMap) -> AxiomReport:
    """Verify the support pattern of the bracket of two words.

    Every monomial of {u, v} must have length |u|+|v|-1 and be obtainable
    from some shuffle of u and v by multiplying a cross-block adjacent pair
    (a position in the shuffle's C-set).
    """
    if mu.arity != 2:
        raise InvalidInputError("support check needs an arity-2 map")
    from .operators import lift_coderivation

    space = mu.space
    u, v = tuple(u), tuple(v)
    delta = lift_coderivation(mu)
    b = bracket(TElement.word(space, u), TElement.word(space, v), delta)
    report = AxiomReport(
        name="bracket_support",
        bound=f"|u|={len(u)}, |v|={len(v)}",
        cases=len(b.terms),
    )
    if not u or not v:
        if not b.is_zero():
            report.failure_count = 1
            report.failures.append(Failure((u, v), b))
        return report
    support: set[Word] = set()
    for sh in enumerate_shuffles(len(u), len(v)):
        word = sh.interleave(u, v)
        for j in c_set(sh).positions:
            for out_id in mu.table.get((word[j], word[j + 1]), {}):
                support.add(word[:j] + (out_id,) + word[j + 2 :])
    want_len = len(u) + len(v) - 1
    for w, c in sorted_terms(b.terms):
        if len(w) != want_len or w not in support:
            report.failure_count += 1
            if len(report.failures) < 10:
                report.failures.append(Failure((u, v), TElement(space, {w: c})))
    return report


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
    el = lambda w: TElement.word(space, w)

    dd = compose(d, d)
    delta2 = compose(delta, delta)
    mixed = compose(d, delta)
    mixed2 = compose(delta, d)

    def d_derivation(case):
        u, v = case
        su = -1 if wd(u) & 1 else 1
        return (
            d(shuffle_elements(el(u), el(v)))
            - shuffle_elements(d(el(u)), el(v))
            - su * shuffle_elements(el(u), d(el(v)))
        )

    def antisymmetry(case):
        x, y = case
        s = -1 if ((wd(x) + 1) & 1) & ((wd(y) + 1) & 1) else 1
        return bracket(el(x), el(y), delta) + s * bracket(el(y), el(x), delta)

    def leibniz(case):
        x, y, z = case
        s = -1 if (wd(y) & 1) & ((wd(z) + 1) & 1) else 1
        return (
            bracket(shuffle_elements(el(x), el(y)), el(z), delta)
            - shuffle_elements(el(x), bracket(el(y), el(z), delta))
            - s * shuffle_elements(bracket(el(x), el(z), delta), el(y))
        )

    def jacobi(case):
        x, y, z = case
        s = -1 if ((wd(x) + 1) & 1) & ((wd(y) + 1) & 1) else 1
        return (
            bracket(el(x), bracket(el(y), el(z), delta), delta)
            - bracket(bracket(el(x), el(y), delta), el(z), delta)
            - s * bracket(el(y), bracket(el(x), el(z), delta), delta)
        )

    runs = [
        ("d_squared", f"words <= {bounds.unary}", singles,
         lambda c: TElement._make(space, dd.apply_word(c[0]))),
        ("delta_squared", f"words <= {bounds.unary}", singles,
         lambda c: TElement._make(space, delta2.apply_word(c[0]))),
        ("d_delta_anticommutator", f"words <= {bounds.unary}", singles,
         lambda c: TElement._make(space, mixed.apply_word(c[0]))
         + TElement._make(space, mixed2.apply_word(c[0]))),
        ("d_derivation", f"pairs <= {bounds.binary}", pairs, d_derivation),
        ("bracket_antisymmetry", f"pairs <= {bounds.binary}", pairs, antisymmetry),
        ("bracket_leibniz", f"triples <= {bounds.ternary}", triples, leibniz),
        ("bracket_jacobi", f"triples <= {bounds.ternary}", triples, jacobi),
        ("delta_order_2", f"triples <= {bounds.ternary}", triples,
         lambda c: order_defect(delta, 2, [el(w) for w in c])),
    ]
    reports = []
    for name, bound, cases, fn in runs:
        reports.append(
            run_axiom(name, bound, cases, fn, fail_cap=bounds.fail_cap, jobs=bounds.jobs)
        )
        _forget_defects(d, delta)
    return reports


def check_bvinf(ainf, K: int | None = None, bounds: Bounds | None = None) -> list[AxiomReport]:
    """Verify degree, operator order, and the composition relations.

    ``ainf`` must expose ``space``, ``maps`` (arity -> MultilinearMap) and
    ``delta_ops`` (arity -> lifted Operator), and have passed validation.
    For each arity k <= K: the lift has operator degree 3-2k and order k;
    for each total degree n, the sum of the composites of two lifts with
    degrees summing to n vanishes on words up to the unary bound.
    """
    bounds = bounds or Bounds()
    K = K or max(ainf.maps, default=2)
    if K < 2:
        raise InvalidInputError("max arity must be >= 2")
    space = ainf.space
    ops = {k: ainf.delta_op(k) for k in range(1, K + 1)}
    singles = [(w,) for w in words_up_to(space, bounds.unary)]
    el = lambda w: TElement.word(space, w)
    reports = []

    def sweep(name, bound, cases, fn):
        reports.append(
            run_axiom(name, bound, cases, fn, fail_cap=bounds.fail_cap, jobs=bounds.jobs)
        )
        _forget_defects(*ops.values())

    d_lift = ainf.delta_op(1)
    sweep(
        "delta_1_is_d",
        f"words <= {bounds.unary}",
        singles,
        lambda c: TElement._make(space, ops[1].apply_word(c[0]))
        - TElement._make(space, d_lift.apply_word(c[0])),
    )

    for k in range(1, K + 1):
        g = 3 - 2 * k
        op = ops[k]

        def degree_defect(case, op=op, g=g):
            w = case[0]
            base = word_degree(space, w)
            bad = {
                w2: c
                for w2, c in op.apply_word(w).items()
                if word_degree(space, w2) != base + g
            }
            return TElement._make(space, bad)

        sweep(
            f"degree_delta_{g}",
            f"words <= {bounds.unary}",
            singles,
            degree_defect,
        )
        tuples = word_tuples_with_total(space, k + 1, (k + 1) + bounds.order_slack)
        sweep(
            f"order_{k}_delta_{g}",
            f"{k + 1} nonempty words, total <= {k + 1 + bounds.order_slack}",
            tuples,
            lambda case, op=op, k=k: order_defect(op, k, [el(w) for w in case]),
        )

    degrees = {3 - 2 * k: ops[k] for k in ops}
    totals = sorted({a + b for a in degrees for b in degrees}, reverse=True)
    for total in totals:
        pairs = [
            (degrees[a], degrees[b])
            for a in sorted(degrees, reverse=True)
            for b in sorted(degrees, reverse=True)
            if a + b == total
        ]

        def relation_defect(case, pairs=pairs):
            w = case[0]
            acc = TElement.zero(space)
            for P, Q in pairs:
                acc = acc + P(TElement._make(space, Q.apply_word(w)))
            return acc

        sweep(
            f"sum_relation_n_{total}",
            f"words <= {bounds.unary}",
            singles,
            relation_defect,
        )
    return reports


def check_functoriality(morph, bounds: Bounds | None = None) -> list[AxiomReport]:
    """The word-space map induced by a validated morphism preserves d,
    the lifted product operator, and the shuffle product."""
    bounds = bounds or Bounds()
    F = induced_morphism(morph.fmap)
    src, tgt = morph.source, morph.target
    singles = [(w,) for w in words_up_to(src.space, bounds.unary)]
    pairs = list(itertools.product(words_up_to(src.space, bounds.binary), repeat=2))
    el = lambda w: TElement.word(src.space, w)

    runs = [
        ("morphism_commutes_d", f"words <= {bounds.unary}", singles,
         lambda c: F(src.d_op(el(c[0]))) - tgt.d_op(F(el(c[0])))),
        ("morphism_commutes_delta", f"words <= {bounds.unary}", singles,
         lambda c: F(src.delta_op(el(c[0]))) - tgt.delta_op(F(el(c[0])))),
        ("morphism_commutes_shuffle", f"pairs <= {bounds.binary}", pairs,
         lambda c: F(shuffle_elements(el(c[0]), el(c[1])))
         - shuffle_elements(F(el(c[0])), F(el(c[1])))),
    ]
    return [
        run_axiom(name, bound, cases, fn, fail_cap=bounds.fail_cap, jobs=bounds.jobs)
        for name, bound, cases, fn in runs
    ]
