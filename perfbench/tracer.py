"""Traced in-process run of ``shufflebv`` for the per-layer metrics.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/tracer.py check <input> [check options] --report json

Wraps the public functions of each package module, runs
``shufflebv.cli.main`` with the given arguments, and prints one JSON object:
the exit code, the report the command printed, and every per-layer metric.

``from .kernel import merge_scaled`` copies the binding, so each wrapper is
installed under the name in every module that calls it.  A hook whose target
no longer exists is skipped and its metrics read 0, so a later refactor of
the package does not break the benchmark.  Work done in forked pool workers
is not seen: their counters die with them, so only the parent's spans and
counts are reported.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import multiprocessing
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Every axiom either suite can report; each gets a `.s` span and `.cases` count.
DBV_AXIOMS = (
    "d_squared",
    "delta_squared",
    "d_delta_anticommutator",
    "d_derivation",
    "bracket_antisymmetry",
    "bracket_leibniz",
    "bracket_jacobi",
    "delta_order_2",
)
BVINF_AXIOMS = (
    "delta_1_is_d",
    "degree_delta_1",
    "order_1_delta_1",
    "degree_delta_-1",
    "order_2_delta_-1",
    "degree_delta_-3",
    "order_3_delta_-3",
    "sum_relation_n_2",
    "sum_relation_n_0",
    "sum_relation_n_-2",
    "sum_relation_n_-4",
    "sum_relation_n_-6",
)
AXIOMS = DBV_AXIOMS + BVINF_AXIOMS

# Metric names whose values are exact counts; two traced runs must agree on them.
COUNT_SUFFIXES = (".calls", ".misses", ".cases", ".terms", ".words", ".entries", ".starts")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["cli.main.s", "cli.self_s", "algebra_io.load.s", "algebra_io.validate.s", "bv.check.s"]
    for axiom in AXIOMS:
        names += [f"bv.axiom.{axiom}.s", f"bv.axiom.{axiom}.cases"]
    names += [
        "bv.bracket.calls",
        "bv.bracket.self_s",
        "bv.order_defect.calls",
        "bv.order_defect.self_s",
        "bv.pool.starts",
        "operators.call.calls",
        "operators.call.self_s",
        "operators.apply_word.calls",
        "operators.apply_word.misses",
        "words.shuffle.calls",
        "words.shuffle.misses",
        "words.shuffle_cache.entries",
        "words.shuffle_elements.calls",
        "words.shuffle_elements.self_s",
        "words.homogeneous_parts.calls",
        "words.telement_arith.calls",
        "kernel.merge_scaled.calls",
        "kernel.merge_scaled.terms",
        "kernel.shuffle_signed.calls",
        "kernel.shuffle_signed.words",
        "kernel.self_s",
        "graded.space_eq.calls",
    ]
    return names


class Tracer:
    """Spans and counts, kept in memory for one process.

    A span's self time is its duration minus the time covered by its direct
    child spans.  Coarse spans (``record=True``) are also kept as records
    with their parent, and ``total`` sums the durations of the outermost
    ones, so a span nested in one of the same name is not counted twice.
    Hot spans only add to self time and a call count, to keep the tracing
    overhead low.
    """

    def __init__(self):
        self.open: list[list] = [["<root>", 0.0]]  # [name, child seconds]
        self.depth: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.spaces: dict = {}

    def begin(self, name: str) -> float:
        self.open.append([name, 0.0])
        self.depth[name] += 1
        return perf_counter()

    def end(self, name: str, t0: float) -> None:
        t1 = perf_counter()
        dt = t1 - t0
        child = self.open.pop()[1]
        parent = self.open[-1]
        parent[1] += dt
        self.self_s[name] += dt - child
        self.counts[name + ".calls"] += 1
        self.depth[name] -= 1
        if not self.depth[name]:
            self.total[name] += dt
        self.spans.append({"name": name, "start": t0, "end": t1, "parent": parent[0]})

    def span(self, name: str, fn, record: bool = False):
        if record:
            def wrapper(*args, **kwargs):
                t0 = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(name, t0)

            return wrapper
        open_, self_s, counts, key = self.open, self.self_s, self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            open_.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_.pop()
                open_[-1][1] += dt
                self_s[name] += dt - frame[1]
                counts[key] += 1

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)`` if both exist."""
    orig = None if owner is None else getattr(owner, attr, None)
    if orig is not None:
        setattr(owner, attr, make(orig))


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(t: Tracer) -> None:
    """Wrap the public functions of every package module."""
    cli = _module("shufflebv.cli")
    algebra_io = _module("shufflebv.algebra_io")
    bv = _module("shufflebv.bv")
    operators = _module("shufflebv.operators")
    words = _module("shufflebv.words")
    kernel = _module("shufflebv.kernel")
    graded = _module("shufflebv.graded")
    counts = t.counts

    # kernel: both primitives are leaves, so each call's duration is its self
    # time and no frame is pushed.  merge_scaled runs millions of times.
    def merge_scaled(orig):
        open_, self_s = t.open, t.self_s

        def wrapper(acc, terms, coeff):
            counts["kernel.merge_scaled.calls"] += 1
            counts["kernel.merge_scaled.terms"] += len(terms)
            t0 = perf_counter()
            out = orig(acc, terms, coeff)
            dt = perf_counter() - t0
            open_[-1][1] += dt
            self_s["kernel.merge_scaled"] += dt
            return out

        return wrapper

    def shuffle_signed(orig):
        open_, self_s = t.open, t.self_s

        def wrapper(*args):
            t0 = perf_counter()
            out = orig(*args)
            dt = perf_counter() - t0
            open_[-1][1] += dt
            self_s["kernel.shuffle_signed"] += dt
            counts["kernel.shuffle_signed.calls"] += 1
            counts["kernel.shuffle_signed.words"] += len(out)
            return out

        return wrapper

    for mod in (kernel, words, operators, bv, graded):
        _patch(mod, "merge_scaled", merge_scaled)
        _patch(mod, "shuffle_signed", shuffle_signed)

    _patch(getattr(graded, "GradedSpace", None), "__eq__",
           lambda f: t.counted("graded.space_eq", f))

    def shuffle(orig):
        def wrapper(space, u, v):
            counts["words.shuffle.calls"] += 1
            if (tuple(u), tuple(v)) not in space._shuffle_cache:
                counts["words.shuffle.misses"] += 1
                t.spaces[id(space)] = space
            return orig(space, u, v)

        return wrapper

    _patch(words, "shuffle", shuffle)
    for mod in (words, bv, cli):
        _patch(mod, "shuffle_elements", lambda f: t.span("words.shuffle_elements", f))
    telement = getattr(words, "TElement", None)
    _patch(telement, "homogeneous_parts", lambda f: t.counted("words.homogeneous_parts", f))
    _patch(telement, "__add__", lambda f: t.counted("words.telement_arith", f))
    _patch(telement, "__sub__", lambda f: t.counted("words.telement_arith", f))

    def apply_word(orig):
        def wrapper(self, w):
            counts["operators.apply_word.calls"] += 1
            if tuple(w) not in self._cache:
                counts["operators.apply_word.misses"] += 1
            return orig(self, w)

        return wrapper

    operator = getattr(operators, "Operator", None)
    _patch(operator, "__call__", lambda f: t.span("operators.call", f))
    _patch(operator, "apply_word", apply_word)

    # bv: per-axiom spans, the derived operations, and fork-pool creations
    def run_axiom(orig):
        def wrapper(name, bound, cases, *args, **kwargs):
            span = f"bv.axiom.{name}"
            counts[span + ".cases"] += len(cases)
            t0 = t.begin(span)
            try:
                return orig(name, bound, cases, *args, **kwargs)
            finally:
                t.end(span, t0)

        return wrapper

    _patch(bv, "run_axiom", run_axiom)
    _patch(bv, "bracket", lambda f: t.span("bv.bracket", f))
    _patch(bv, "order_defect", lambda f: t.span("bv.order_defect", f))
    try:
        fork = multiprocessing.get_context("fork")
    except ValueError:
        fork = None
    _patch(fork, "Pool", lambda f: t.counted("bv.pool.starts", f))

    # algebra_io and the suites, under the names the CLI calls them by
    for attr in ("validate_dga", "validate_ainf", "validate_morphism"):
        _patch(algebra_io, attr, lambda f: t.span("algebra_io.validate", f, record=True))
    _patch(cli, "load_document", lambda f: t.span("algebra_io.load", f, record=True))
    for attr in ("check_dbv", "check_bvinf", "check_functoriality"):
        _patch(cli, attr, lambda f: t.span("bv.check", f, record=True))


def metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, every name present."""
    out: dict[str, float] = {}
    for name in metric_names():
        if name == "cli.self_s":
            value = t.self_s["cli.main"]
        elif name == "kernel.self_s":
            value = t.self_s["kernel.merge_scaled"] + t.self_s["kernel.shuffle_signed"]
        elif name == "words.shuffle_cache.entries":
            value = sum(len(s._shuffle_cache) for s in t.spaces.values())
        elif name == "bv.pool.starts":
            value = t.counts["bv.pool.starts.calls"]
        elif name.endswith(".self_s"):
            value = t.self_s[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            value = t.total[name[: -len(".s")]]
        else:
            value = t.counts[name]
        out[name] = value
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from shufflebv import cli

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = tracer.span("cli.main", cli.main, record=True)(argv)
    print(
        json.dumps(
            {
                "exit_code": code,
                "report": report.getvalue(),
                "metrics": metrics(tracer),
                "spans": tracer.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
