"""Time the three reference points the ROADMAP quotes, one run each.

    python3 perfbench/baseline.py

The corpus run (run_corpus, seed 0), the table build of GF(2)[x]/(x^10), and
the ideal lattice of prod(Z/8,Z/8,Z/8,Z/2).  The first two sit outside the
timed workloads: the table build takes longer than any workload's cap
allows, so queries-tabulated only carries it as a timeout probe.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unitlift.rings import build_ring, enumerate_ideals  # noqa: E402
from unitlift.verify import run_corpus  # noqa: E402

ROADMAP = {"corpus run": "7-9.5 s", "GF(2)[x]/(x^10) table build": "14-18 s",
           "prod(Z/8,Z/8,Z/8,Z/2) ideals": "about 2.7 s"}


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    points = {
        "corpus run": lambda: run_corpus(seed=0),
        "GF(2)[x]/(x^10) table build": lambda: build_ring("GF(2)[x]/(x^10)").tables(),
        "prod(Z/8,Z/8,Z/8,Z/2) ideals":
            lambda: enumerate_ideals(build_ring("prod(Z/8,Z/8,Z/8,Z/2)")),
    }
    for name, fn in points.items():
        print(f"{name:32s} {timed(fn):7.2f} s   (ROADMAP: {ROADMAP[name]})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
