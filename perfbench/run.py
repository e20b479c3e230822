"""End-to-end benchmark of ``shufflebv check``, with an optional traced run.

Run from the repository root, without installing the package::

    python3 perfbench/run.py --workload dbv-triples --seed 1 --seconds 30 --trace 0

Each workload runs ``python -m shufflebv.cli check <fixture> ... --report json``
as a fresh process with ``PYTHONPATH=src``, one at a time (closed loop), and
checks every report against the pinned exit code, per-axiom case counts and
report digest.  Set-up time is that of ``shufflebv validate`` on the same
input.  Times are CPU times at a fixed reference speed: each process is
pinned to a CPU beside a reference process (``calibrate.py``) that times the
host's speed over the same interval.  ``--seed`` sets ``PYTHONHASHSEED`` of
every child process; the sweeps are exhaustive, so it cannot change the
inputs, only dict and set layouts.

``--trace 1`` also runs the check twice in-process under ``tracer.py`` and
reports the per-layer metrics instead of the end-to-end ones.  The two traced
runs must give identical counts.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_UNITS_PER_S, Meter
from tracer import COUNT_SUFFIXES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = "perfbench/fixtures"  # relative to ROOT, so reports echo one path

# fewest validate runs per benchmark run; setup_s is their median
SETUP_REPEATS = 8

# Exit code of a workload that cannot run on this machine (skipped, not failed).
SKIPPED = 77

DBV_CASES_422 = (
    ("d_squared", 341),
    ("delta_squared", 341),
    ("d_delta_anticommutator", 341),
    ("d_derivation", 441),
    ("bracket_antisymmetry", 441),
    ("bracket_leibniz", 9261),
    ("bracket_jacobi", 9261),
    ("delta_order_2", 9261),
)


@dataclass(frozen=True)
class Workload:
    fixture: str
    options: tuple[str, ...]
    axioms: tuple[tuple[str, int], ...]  # pinned (name, cases), in report order
    digest: str  # sha256 of the report without "meta" and "input"
    cpus: int = 1  # CPUs the check is pinned to; fewer available skips it

    @property
    def path(self) -> str:
        return f"{FIXTURES}/{self.fixture}.json"

    @property
    def cases(self) -> int:
        return sum(n for _, n in self.axioms)


# Pinned from the commit that introduced this benchmark.
WORKLOADS = {
    "dbv-triples": Workload(
        "end-two-term-complex",
        ("--max-len", "4", "--pair-len", "2", "--triple-len", "2"),
        DBV_CASES_422,
        "19d5b1636796923626316a6c20501c16094301440d741f06471a56eda75cab4a",
    ),
    "dbv-long": Workload(
        "end-two-term-complex",
        ("--max-len", "7", "--pair-len", "3", "--triple-len", "1"),
        (
            ("d_squared", 21845),
            ("delta_squared", 21845),
            ("d_delta_anticommutator", 21845),
            ("d_derivation", 7225),
            ("bracket_antisymmetry", 7225),
            ("bracket_leibniz", 125),
            ("bracket_jacobi", 125),
            ("delta_order_2", 125),
        ),
        "7b5b19c45b4eec04a151e771901f45a877a097301b1d30fed7c53349db2ffc0f",
    ),
    "ainf-order": Workload(
        "ainf-mu3",
        (),
        (
            ("delta_1_is_d", 364),
            ("degree_delta_1", 364),
            ("order_1_delta_1", 306),
            ("degree_delta_-1", 364),
            ("order_2_delta_-1", 1728),
            ("degree_delta_-3", 364),
            ("order_3_delta_-3", 8343),
            ("sum_relation_n_2", 364),
            ("sum_relation_n_0", 364),
            ("sum_relation_n_-2", 364),
            ("sum_relation_n_-4", 364),
            ("sum_relation_n_-6", 364),
        ),
        "789206bfb2dc955ae6c5b0708f4cfd110dec5ccf45a7d25355b66f488a0d740c",
    ),
    "dbv-triples-j2": Workload(
        "end-two-term-complex",
        ("--max-len", "4", "--pair-len", "2", "--triple-len", "2", "--jobs", "2"),
        DBV_CASES_422,
        "09f419b8e930d9912e3aabed3ff20e591d5d3712e3d8e0c7e3fad7d0313a3d98",
        cpus=2,
    ),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float  # user + system time of the process and its waited-for children
    rss_mb: float
    exit_code: int
    stdout: str
    ref_s: float = 0.0  # cpu_s at the reference speed; set by Run.timed


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(argv: list[str], seed: int, cpus: set[int]) -> Sample:
    """Run one process to completion, pinned to ``cpus``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(seed), stdout=subprocess.PIPE,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        with proc.stdout:
            out = proc.stdout.read()
        # os.wait4 instead of proc.wait, to get the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # SIGTERM or Ctrl-C: leave no child running
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, out.decode())


def report_digest(report: dict) -> str:
    stable = {k: v for k, v in report.items() if k not in ("meta", "input")}
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verify_report(w: Workload, exit_code: int, text: str) -> str | None:
    """Why a check run is wrong, or None if it matches the pinned values."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        report = json.loads(text)
        axioms = tuple((a["name"], a["cases"]) for a in report["axioms"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if axioms != w.axioms:
        return f"case counts {axioms}, expected {w.axioms}"
    digest = report_digest(report)
    if digest != w.digest:
        return f"report digest {digest}, expected {w.digest}"
    return None


def git_commit() -> str:
    """HEAD of the checkout, read without leaving it; 'none' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def kernel_backend(seed: int) -> str:
    code = "import shufflebv; print(getattr(shufflebv, 'KERNEL_BACKEND', 'none'))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(seed),
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def describe(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"min {min(values):.4f}, max {max(values):.4f}, n={len(values)}"
    )


class Run:
    """Counts attempted and failed process runs of one benchmark run.

    Every timed process is pinned to ``cpus``, beside the meter's reference
    processes, and its CPU time is converted to the reference speed.
    """

    def __init__(self, workload: Workload, seed: int, cpus: set[int], meter: Meter):
        self.w = workload
        self.seed = seed
        self.cpus = cpus
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def timed(self, *argvs: list[str]) -> list[Sample]:
        """Run processes one after another; one host-speed reading covers them all."""
        before = self.meter.read()
        samples = [spawn(argv, self.seed, self.cpus) for argv in argvs]
        speed = self.meter.rate(before, self.meter.read()) / REFERENCE_UNITS_PER_S
        for s in samples:
            s.ref_s = s.cpu_s * speed
        return samples

    def verify_validate(self, s: Sample) -> Sample:
        ok = s.exit_code == 0 and s.stdout.strip() == "VALID"
        self.record("validate", None if ok else f"exit {s.exit_code}: {s.stdout.strip()!r}")
        return s

    def verify_check(self, s: Sample) -> Sample:
        problem = verify_report(self.w, s.exit_code, s.stdout)
        self.checks_failed += problem is not None
        self.record("check", problem)
        return s

    def measure(self, seconds: float) -> tuple[list[Sample], list[Sample]]:
        """Closed loop of (validate, check) pairs for about ``seconds``.

        One untimed validate first compiles the bytecode and warms the file
        cache.  The next pair starts only if it should end in time; at least
        one check and SETUP_REPEATS validates run.  Interleaving spreads both
        kinds of sample over the whole run.
        """
        validate = [sys.executable, "-m", "shufflebv.cli", "validate", self.w.path]
        check = [sys.executable, "-m", "shufflebv.cli", "check", self.w.path,
                 *self.w.options, "--report", "json"]
        self.verify_validate(spawn(validate, self.seed, self.cpus))
        setup: list[Sample] = []
        samples: list[Sample] = []
        start = time.perf_counter()
        while not samples or (
            time.perf_counter() - start
            + statistics.median(s.wall_s for s in setup)
            + statistics.median(s.wall_s for s in samples)
            <= seconds
        ):
            v, c = self.timed(validate, check)
            setup.append(self.verify_validate(v))
            samples.append(self.verify_check(c))
        missing = SETUP_REPEATS - len(setup)
        if missing > 0:
            setup += map(self.verify_validate, self.timed(*[validate] * missing))
        return setup, samples

    def traced(self) -> tuple[Sample, dict]:
        argv = [sys.executable, str(BENCH / "tracer.py"), "check", self.w.path,
                *self.w.options, "--report", "json"]
        (s,) = self.timed(argv)
        try:
            out = json.loads(s.stdout)
            problem = verify_report(self.w, out["exit_code"], out["report"])
        except (ValueError, KeyError, TypeError) as exc:
            out, problem = {"metrics": {}, "spans": []}, f"traced run: {exc}"
        if s.exit_code != 0:
            problem = f"tracer exited with {s.exit_code}"
        self.record("traced check", problem)
        return s, out


def end_to_end(w: Workload, setup: list[Sample], samples: list[Sample]) -> dict:
    check_s = statistics.median(s.ref_s for s in samples)
    print(describe("check_s", [s.ref_s for s in samples], "s"))
    print(describe("setup_s", [s.ref_s for s in setup], "s"))
    print(describe("peak_rss_mb", [s.rss_mb for s in samples], "MB"))
    print(describe("raw check wall (not a result metric)", [s.wall_s for s in samples], "s"))
    print(describe("raw check cpu (not a result metric)", [s.cpu_s for s in samples], "s"))
    return {
        "check_s": {"value": check_s, "unit": "s"},
        "cases_per_s": {"value": w.cases / check_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(s.ref_s for s in setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s.rss_mb for s in samples), "unit": "MB"},
    }


def per_layer(run: Run, untraced_s: float) -> dict:
    (sample_a, a), (sample_b, b) = run.traced(), run.traced()
    counts_a = {k: v for k, v in a["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    counts_b = {k: v for k, v in b["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    differ = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    run.record("traced counts repeat", f"counts differ: {differ}" if differ else None)
    if "--jobs" in run.w.options:
        print("note: pool workers' counters are lost; only the parent's spans "
              "and bv.pool.starts are reported")
    for span in a["spans"]:
        if span["name"].startswith(("bv.", "algebra_io.")):
            print(f"span {span['name']}: {span['end'] - span['start']:.4f} s (in {span['parent']})")
    traced_s = statistics.median([sample_a.ref_s, sample_b.ref_s])
    overhead = traced_s - untraced_s
    print(f"tracing overhead: {overhead:.4f} s (traced check_s {traced_s:.4f} s "
          f"- untraced check_s {untraced_s:.4f} s)")
    metrics = {}
    for name, value in a["metrics"].items():
        if not name.endswith(COUNT_SUFFIXES):
            value = statistics.median([value, b["metrics"].get(name, value)])
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.check_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the reference processes are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "shufflebv" / "cli.py").is_file():
        print(f"no shufflebv sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    available = sorted(os.sched_getaffinity(0))
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(available),
        "kernel_backend": kernel_backend(args.seed),
        "commit": git_commit(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    if len(available) < w.cpus:
        print(f"SKIPPED {args.workload}: needs {w.cpus} CPUs, have {len(available)}",
              file=sys.stderr)
        return SKIPPED

    # The last CPUs, away from CPU 0 where the system tends to do its own work.
    cpus = available[-w.cpus:]
    meter = Meter(cpus)
    try:
        run = Run(w, args.seed, set(cpus), meter)
        setup, samples = run.measure(args.seconds)
        print(f"run_fail_ratio: {run.checks_failed / len(samples)} "
              f"({run.checks_failed}/{len(samples)} check runs)")
        if args.trace:
            metrics = per_layer(run, statistics.median(s.ref_s for s in samples))
        else:
            metrics = end_to_end(w, setup, samples)
    finally:
        meter.stop()
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
