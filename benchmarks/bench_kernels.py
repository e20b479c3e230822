"""Benchmark: compiled kernel vs pure-Python fallback.

Two views:
  * micro: raw shuffle enumeration with signs, per backend module;
  * end-to-end: the full dBV axiom suite on the end-two-term-complex
    fixture, re-run in a subprocess with SHUFFLEBV_PURE=1 for the pure lane
    (backend selection happens at import time).

Run as ``python3 benchmarks/bench_kernels.py``; no install is needed.  The
checkout's ``src`` goes first on the path, in the child process too, which
runs this same file.
"""

import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from shufflebv import _kernel_py  # noqa: E402

try:
    from shufflebv import _kernel_c
except ImportError:
    _kernel_c = None


MICRO_CASES = [
    # (u letters, v letters, parities u, parities v, repetitions)
    (("a", "b", "c"), ("d", "e"), (1, 0, 1), (0, 1), 20000),
    (("a", "b", "c", "d"), ("a", "b", "c"), (1, 0, 1, 0), (1, 1, 0), 5000),
    (("a",) * 6, ("b",) * 5, (1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 1), 1000),
]


def bench_micro(mod):
    rows = []
    for u, v, pu, pv, reps in MICRO_CASES:
        start = time.perf_counter()
        for _ in range(reps):
            mod.shuffle_signed(u, v, pu, pv)
        elapsed = time.perf_counter() - start
        rows.append((f"shuffle {len(u), len(v)}", reps, elapsed))
    terms = {tuple("abcdef"[i] for i in (j % 6, (j * 7) % 6, (j * 5) % 6)): j + 1 for j in range(64)}
    reps = 20000
    start = time.perf_counter()
    for i in range(reps):
        mod.merge_scaled(dict(terms), terms, -3)
    elapsed = time.perf_counter() - start
    rows.append(("merge 64t", reps, elapsed))
    return rows


def bench_suite():
    from shufflebv.algebra_io import builtin, validate_dga
    from shufflebv.bv import Bounds, check_dbv

    dga = validate_dga(builtin("end-two-term-complex"))
    start = time.perf_counter()
    reports = check_dbv(dga, Bounds(unary=4, binary=2, ternary=2))
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in reports)
    return elapsed


def main():
    if os.environ.get("_BENCH_SUITE_ONLY") == "1":
        print(f"{bench_suite():.3f}")
        return

    print(f"python {sys.version.split()[0]}")
    backends = [("python", _kernel_py)] + ([("c", _kernel_c)] if _kernel_c else [])
    if _kernel_c is None:
        print("compiled kernel not available; benchmarking the pure kernel only")

    print("\nmicro: kernel primitives")
    print(f"{'case':>16} {'reps':>7} " + " ".join(f"{name:>10}" for name, _ in backends))
    micro = {name: bench_micro(mod) for name, mod in backends}
    for idx, (case, reps, _) in enumerate(micro[backends[0][0]]):
        times = [micro[name][idx][2] for name, _ in backends]
        cells = " ".join(f"{t:>9.3f}s" for t in times)
        speedup = f"  ({times[0] / times[-1]:.1f}x)" if len(times) > 1 else ""
        print(f"{str(case):>16} {reps:>7} {cells}{speedup}")

    print("\nend-to-end: dBV suite on end-two-term-complex (unary 4, pairs 2, triples 2)")
    lanes = [("this interpreter", None)]
    if _kernel_c is not None:
        lanes = [("compiled kernel", "0"), ("pure kernel", "1")]
    results = []
    for label, pure in lanes:
        if pure is None or (pure == "0" and os.environ.get("SHUFFLEBV_PURE") != "1"):
            results.append((label, bench_suite()))
        else:
            env = dict(os.environ, SHUFFLEBV_PURE=pure, _BENCH_SUITE_ONLY="1")
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            results.append((label, float(out.stdout.strip())))
    for label, elapsed in results:
        print(f"  {label:>16}: {elapsed:.3f}s")
    if len(results) == 2:
        print(f"  speedup: {results[1][1] / results[0][1]:.1f}x")


if __name__ == "__main__":
    main()
