"""Reference work that runs beside each timed process, to time the host's speed.

The host's CPU speed drifts by tens of percent within seconds and over
minutes, because other tenants share its cores.  So the benchmark does not
trust a bare wall time.  While a ``check`` runs, a reference process is
pinned to the same CPU and does fixed work in small units.  The scheduler
interleaves the two every few milliseconds, so both see the same slow and
fast spells.  The check's CPU time, times the units the reference process
completed per CPU second over the same interval, is the check's cost in
reference units; dividing by ``REFERENCE_UNITS_PER_S`` gives seconds at a
fixed reference speed.

The reference work resembles the program's inner loops (signed shuffles of
tuple words, merged into dicts of int coefficients) but uses none of its
code, so no change to the package can move it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time

ALPHABET = "abc"
WORDS = [w for n in range(1, 4) for w in itertools.product(ALPHABET, repeat=n)]

# Reference units per CPU second on an idle host (Intel Xeon, 2 vCPUs,
# CPython 3.11).  A fixed unit conversion only: it does not depend on the run.
REFERENCE_UNITS_PER_S = 3.0e5

# Niceness of the reference process: it gets about a tenth of its CPU while a
# check runs there, which is enough to sample the CPU's speed throughout.
NICE = 10


def _shuffles(u: tuple, v: tuple):
    """Every interleaving of u and v, with the sign of its permutation."""
    n = len(u) + len(v)
    for slots in itertools.combinations(range(n), len(u)):
        word = [None] * n
        taken = set(slots)
        for pos, letter in zip(slots, u):
            word[pos] = letter
        rest = iter(v)
        inversions = 0
        seen = 0
        for pos in range(n):
            if pos in taken:
                seen += 1
            else:
                word[pos] = next(rest)
                inversions += len(u) - seen
        yield tuple(word), -1 if inversions & 1 else 1


def reference_unit(u: tuple) -> int:
    """Signed shuffles of u with every word, merged; returns the words made."""
    acc: dict[tuple, int] = {}
    made = 0
    for v in WORDS:
        for w, sign in _shuffles(u, v):
            made += 1
            val = acc.get(w, 0) + sign
            if val:
                acc[w] = val
            else:
                acc.pop(w, None)
    return made


def _reference_loop(cpu: int, progress, parent: int) -> None:
    """Do reference units on ``cpu`` until the parent ends; publish (words made, CPU time)."""
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    done = 0
    for u in itertools.cycle(WORDS):
        if os.getppid() != parent:
            return
        done += reference_unit(u)
        with progress.get_lock():
            progress[0] = done
            progress[1] = time.process_time()


class Meter:
    """One reference process per CPU in ``cpus``, running until stop()."""

    def __init__(self, cpus: list[int]):
        ctx = multiprocessing.get_context("fork")
        self.progress = [ctx.Array("d", 2) for _ in cpus]
        self.procs = [
            ctx.Process(target=_reference_loop, args=(cpu, prog, os.getpid()), daemon=True)
            for cpu, prog in zip(cpus, self.progress)
        ]
        for p in self.procs:
            p.start()

    def read(self) -> list[tuple[float, float]]:
        out = []
        for prog in self.progress:
            with prog.get_lock():
                out.append((prog[0], prog[1]))
        return out

    def rate(self, before, after) -> float:
        """Mean reference units per CPU second between two read()s."""
        rates = [
            (w1 - w0) / (c1 - c0)
            for (w0, c0), (w1, c1) in zip(before, after)
            if c1 > c0
        ]
        if not rates:
            raise RuntimeError("reference process made no progress")
        return sum(rates) / len(rates)

    def stop(self) -> None:
        for p in self.procs:
            p.terminate()
        for p in self.procs:
            p.join()
