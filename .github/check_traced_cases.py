"""Check a traced benchmark run's per-axiom case counts against the pins.

Usage, from the repository root::

    python3 perfbench/run.py --workload dbv-triples --seed 1 --seconds 1 --trace 1 > traced.out
    python3 .github/check_traced_cases.py dbv-triples traced.out

The tracer counts cases in its wrapper of ``bv.run_axiom``.  A hook whose
target is gone reads 0 without an error, so every ``bv.axiom.<name>.cases``
metric must equal the workload's pinned count in ``WORKLOADS`` of
``perfbench/run.py``, and 0 for an axiom the workload does not run.
Exits 1 and names the mismatches if any differ.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import WORKLOADS  # noqa: E402


def main(workload: str, path: str) -> int:
    pinned = dict(WORKLOADS[workload].axioms)
    metrics = json.loads(Path(path).read_text().splitlines()[-1])["metrics"]
    traced = {
        name[len("bv.axiom."):-len(".cases")]: metric["value"]
        for name, metric in metrics.items()
        if name.startswith("bv.axiom.") and name.endswith(".cases")
    }
    wrong = {
        axiom: (traced.get(axiom), pinned.get(axiom, 0))
        for axiom in sorted(set(traced) | set(pinned))
        if traced.get(axiom) != pinned.get(axiom, 0)
    }
    if wrong:
        print(f"{workload}: traced cases differ from the pins, as (traced, pinned): {wrong}")
        return 1
    print(f"{workload}: traced cases match the pins ({sum(pinned.values())} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
