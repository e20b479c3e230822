"""Command-line front end.

Exit codes: 0 all checks pass, 1 axiom failure, 2 invalid input or a
check or validation refused by ``--max-cases``, 3 I/O error.  JSON reports are
deterministic at a fixed configuration: timing lives in a separate "meta"
block, everything else is stable byte-for-byte across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import __version__, algebra_io
from .algebra_io import (
    AlgebraSpec,
    MorphismSpec,
    ValidationFailure,
    ainf_validation_cases,
    builtin,
    builtin_names,
    load_document,
    render_document,
)
from .bv import (
    AxiomReport,
    Bounds,
    bracket,
    bvinf_cases,
    check_bvinf,
    check_dbv,
    check_functoriality,
    dbv_cases,
    functoriality_cases,
    order_defect,
)
from .graded import InvalidInputError
from .operators import lift_coderivation
from .words import COUNT_LIMIT, TElement, render_telement, render_word, shuffle_elements

OK, AXIOM_FAILURE, INVALID_INPUT, IO_ERROR = 0, 1, 2, 3

# the most cases a check may evaluate unless --max-cases says otherwise: the
# largest bounds in use, --triple-len 3 on a four-letter algebra, come to
# about 1.9 million
DEFAULT_MAX_CASES = 2_000_000

# the most predictions a refusal lists one by one: an A-infinity check at
# arity K has 4K + 1, so every check up to arity 15 lists them all, and the
# refusal's output stays short at any --max-arity
SHOWN_PREDICTIONS = 64


def _print_reports_text(reports: list[AxiomReport], out) -> None:
    for r in reports:
        status = "PASS" if r.passed else f"FAIL ({r.failure_count} failing)"
        print(f"{status}  {r.name}: {r.cases} cases [{r.bound}]", file=out)
        for f in r.failures:
            ins = " | ".join(map(render_word, f.inputs))
            print(f"    inputs: {ins}", file=out)
            print(f"    defect: {render_telement(f.defect)}", file=out)


def _children_usage():
    """The resource usage of the children waited for so far, where the
    platform reports it."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_CHILDREN)


def _meta(elapsed: float, children) -> dict:
    """The report's run-dependent block: the check's wall time, this
    process's CPU time so far, start-up included, and its peak RSS where the
    platform reports it; beside them, those of the check's pool workers.

    ``children`` is ``_children_usage()`` when the check started, since a
    launcher may have waited for children before it ran Python, and rusage
    survives an exec.  The workers are the children waited for since (a
    check joins its pool before it returns), none for a serial check.
    """
    meta = {"elapsed_s": round(elapsed, 3), "version": __version__,
            "cpu_s": round(time.process_time(), 3)}
    if resource is not None:
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        mb = 1024**2 if sys.platform == "darwin" else 1024
        meta["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb, 3)
        now = _children_usage()
        ran = now != children  # no field moves unless a child was waited for
        cpu = now.ru_utime + now.ru_stime - children.ru_utime - children.ru_stime
        meta["workers_cpu_s"] = round(cpu, 3) if ran else 0.0
        meta["workers_peak_rss_mb"] = round(now.ru_maxrss / mb, 3) if ran else 0.0
    return meta


def _emit_check_report(args, reports: list[AxiomReport], elapsed: float, config: dict,
                       children) -> None:
    if args.report == "json":
        payload = {
            "format_version": 1,
            "input": args.path,
            "command": "check",
            "config": config,
            "axioms": [r.to_json() for r in reports],
            "meta": _meta(elapsed, children),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_reports_text(reports, sys.stdout)
        print(f"({elapsed:.2f}s)", file=sys.stderr)


def _bounds(args) -> Bounds:
    return Bounds(
        unary=args.max_len,
        binary=args.pair_len,
        ternary=args.triple_len,
        order_slack=args.order_slack,
        fail_cap=args.fail_cap,
        jobs=args.jobs,
    )


def cmd_validate(args) -> int:
    doc = load_document(args.path)
    if args.max_arity is not None and args.max_arity < 1:
        raise InvalidInputError("--max-arity must be >= 1")
    if args.fail_cap < 1:
        raise InvalidInputError("--fail-cap must be >= 1")
    if args.max_cases < 0:
        raise InvalidInputError("--max-cases must be >= 0")
    if _refused("validation", _validation_cases(doc, args), args.max_cases):
        return INVALID_INPUT
    if isinstance(doc, MorphismSpec):
        algebra_io.validate_morphism(doc)
    elif doc.kind == "dga":
        algebra_io.validate_dga(doc)
    else:
        algebra_io.validate_ainf(doc, args.max_arity)
    print("VALID")
    return OK


def _validation_cases(doc, args) -> list[tuple[str, int]]:
    """An A-infinity validation's relation evaluations, from the input's
    basis and arity alone, as ``[("validate", count)]``; [] for any other
    input, whose identities are checked on basis tuples."""
    if isinstance(doc, MorphismSpec) or doc.kind != "ainf":
        return []
    arity = doc.top_arity() if args.max_arity is None else args.max_arity
    return [("validate", ainf_validation_cases(doc.space(), arity))]


def _predicted_cases(doc, args, bounds: Bounds) -> list[tuple[str, int]]:
    """The number of cases of each sweep of the check, and of an A-infinity
    validation's relation evaluations, from the input's basis and the
    bounds alone: nothing is validated, built or filled.  Each is exact up
    to ``words.COUNT_LIMIT`` and capped beyond it."""
    validation = [] if args.assume_valid else _validation_cases(doc, args)
    if isinstance(doc, MorphismSpec):
        source = builtin(doc.source)
        if not isinstance(source, AlgebraSpec):
            return []  # validation rejects it
        plan = functoriality_cases(source.space(), bounds)
    elif doc.kind == "dga":
        plan = dbv_cases(doc.space(), bounds)
    else:
        arity = doc.top_arity(True) if args.max_arity is None else args.max_arity
        plan = bvinf_cases(doc.space(), arity, bounds)
    return validation + [(name, cases.count) for name, _, cases in plan]


def _refused(what: str, predicted: list[tuple[str, int]], max_cases: int) -> bool:
    """Whether the ``predicted`` cases of a check or validation exceed
    ``max_cases``, or are capped; if so, prints the refusal to stderr."""
    total = sum(n for _, n in predicted)
    # a capped count is refused whatever --max-cases says
    if total <= min(max_cases, COUNT_LIMIT):
        return False
    shown = lambda n: n if n <= COUNT_LIMIT else f"more than {COUNT_LIMIT}"
    print(f"refused: the {what} would evaluate {shown(total)} cases, more than "
          f"--max-cases {max_cases}; predicted cases:", file=sys.stderr)
    for name, n in predicted[:SHOWN_PREDICTIONS]:
        print(f"  {name}: {shown(n)}", file=sys.stderr)
    rest = predicted[SHOWN_PREDICTIONS:]
    if rest:
        print(f"  remaining sweeps ({len(rest)}): {shown(sum(n for _, n in rest))}", file=sys.stderr)
    return True


def cmd_check(args) -> int:
    doc = load_document(args.path)
    if args.max_arity is not None and args.max_arity < 1:
        raise InvalidInputError("--max-arity must be >= 1")
    if args.max_cases < 0:
        raise InvalidInputError("--max-cases must be >= 0")
    bounds = _bounds(args)
    if _refused("check", _predicted_cases(doc, args, bounds), args.max_cases):
        return INVALID_INPUT
    started, children = time.monotonic(), _children_usage()
    if isinstance(doc, MorphismSpec):
        if args.assume_valid:
            morph = algebra_io.DGMorphism.from_spec_unchecked(doc)
        else:
            morph = algebra_io.validate_morphism(doc)
        reports = check_functoriality(morph, bounds)
    elif doc.kind == "dga":
        if args.assume_valid:
            dga = algebra_io.DGAlgebra.from_spec_unchecked(doc)
        else:
            dga = algebra_io.validate_dga(doc)
        reports = check_dbv(dga, bounds)
    else:
        if args.assume_valid:
            ainf = algebra_io.AinfAlgebra.from_spec_unchecked(doc)
        else:
            ainf = algebra_io.validate_ainf(doc, args.max_arity)
        reports = check_bvinf(ainf, args.max_arity, bounds)
    _emit_check_report(
        args,
        reports,
        time.monotonic() - started,
        {
            "max_len": args.max_len,
            "pair_len": args.pair_len,
            "triple_len": args.triple_len,
            "order_slack": args.order_slack,
            "max_arity": args.max_arity,
            "fail_cap": args.fail_cap,
            "jobs": args.jobs,
        },
        children,
    )
    return OK if all(r.passed for r in reports) else AXIOM_FAILURE


def _parse_word(text: str | None):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(","))


def cmd_eval(args) -> int:
    doc = load_document(args.path)
    if isinstance(doc, MorphismSpec):
        raise InvalidInputError("eval needs an algebra, not a morphism")
    space = doc.space()
    if args.z is not None and args.y is None:
        raise InvalidInputError("--z needs --y")
    words = [w for w in (_parse_word(args.x), _parse_word(args.y), _parse_word(args.z)) if w is not None]
    if not words:
        raise InvalidInputError("--x is required")
    els = [TElement.word(space, w) for w in words]

    op = args.op
    if op == "shuffle":
        if len(els) != 2:
            raise InvalidInputError("shuffle needs --x and --y")
        result = shuffle_elements(els[0], els[1])
    elif op == "d":
        if len(els) != 1:
            raise InvalidInputError("d takes only --x")
        result = lift_coderivation(doc.multilinear("d", space))(els[0])
    elif op == "delta":
        if len(els) != 1:
            raise InvalidInputError("delta takes only --x")
        result = lift_coderivation(doc.multilinear("mu2", space))(els[0])
    elif op == "bracket":
        if len(els) != 2:
            raise InvalidInputError("bracket needs --x and --y")
        result = bracket(els[0], els[1], lift_coderivation(doc.multilinear("mu2", space)))
    else:  # order-defect
        if len(els) < 2:
            raise InvalidInputError("order-defect needs at least --x and --y")
        delta = lift_coderivation(doc.multilinear("mu2", space))
        result = order_defect(delta, len(els) - 1, els)
    print(render_telement(result))
    return OK


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in builtin_names():
            print(name)
        return OK
    spec = builtin(args.name)
    print(json.dumps(render_document(spec), indent=2, sort_keys=True))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflebv",
        description="Exact checks of the homotopy BV structure on word spaces "
        "of DG and A-infinity algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = Bounds()
    max_cases = dict(type=int, default=DEFAULT_MAX_CASES, help="refuse, with exit code 2, a run "
                     f"that would evaluate more cases in all (default {DEFAULT_MAX_CASES})")
    p_validate = sub.add_parser("validate", help="validate an algebra or morphism file")
    p_validate.add_argument("path")
    p_validate.add_argument("--max-arity", type=int, default=None)
    p_validate.add_argument("--fail-cap", type=int, default=defaults.fail_cap)
    p_validate.add_argument("--max-cases", **max_cases)
    p_validate.set_defaults(fn=cmd_validate)

    p_check = sub.add_parser("check", help="run the full axiom suite")
    p_check.add_argument("path")
    p_check.add_argument("--max-len", type=int, default=defaults.unary)
    p_check.add_argument("--pair-len", type=int, default=defaults.binary)
    p_check.add_argument("--triple-len", type=int, default=defaults.ternary)
    p_check.add_argument("--order-slack", type=int, default=defaults.order_slack)
    p_check.add_argument("--max-arity", type=int, default=None)
    p_check.add_argument("--report", choices=("text", "json"), default="text")
    p_check.add_argument("--fail-cap", type=int, default=defaults.fail_cap)
    p_check.add_argument("--jobs", type=int, default=defaults.jobs)
    p_check.add_argument("--max-cases", **max_cases)
    p_check.add_argument(
        "--assume-valid",
        action="store_true",
        help="skip validation (the axiom suite then reports failures itself)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one operation on given words")
    p_eval.add_argument("path")
    p_eval.add_argument(
        "--op", required=True, choices=("shuffle", "d", "delta", "bracket", "order-defect")
    )
    p_eval.add_argument("--x", required=True, help="comma-separated letter ids")
    p_eval.add_argument("--y", default=None)
    p_eval.add_argument("--z", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_fix = sub.add_parser("fixtures", help="list or dump the builtin examples")
    fix_sub = p_fix.add_subparsers(dest="action", required=True)
    p_list = fix_sub.add_parser("list")
    p_list.set_defaults(fn=cmd_fixtures, action="list")
    p_dump = fix_sub.add_parser("dump")
    p_dump.add_argument("name")
    p_dump.set_defaults(fn=cmd_fixtures, action="dump")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except InvalidInputError as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return INVALID_INPUT
        except ValidationFailure as exc:  # raised only by validate and check, with --fail-cap
            print(f"INVALID: {len(exc.violations)} violation(s)")
            for v in exc.violations[: args.fail_cap]:
                print(f"  {v}")
            return INVALID_INPUT
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at exit
    except OSError as exc:
        if exc.filename is not None:  # the input
            print(f"cannot read {exc.filename}: {exc}", file=sys.stderr)
            return IO_ERROR
        # most likely a closed stdout: point it at devnull, so that the
        # interpreter's final flush prints no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"I/O error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
