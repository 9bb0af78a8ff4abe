"""Single-call reference timings for the README: the baseline cells.

    python3 bench/cells.py

Times ``linearize`` at n = 12/48/96/192, ``certifying_family`` at
n = 12/24/48 and ``check_order`` at n = 96, each on inputs of a stated
make-up (shape, blocks, density), and prints one row per cell with the
median of a few calls and the work done.  These figures depend strongly on
density and shape, which is why each row names its input.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fuzzorder import FuzzyRelation, certifying_family, check_order, linearize  # noqa: E402
import fuzzorder.oracle  # noqa: E402
from inputs import OrderSource, Shape  # noqa: E402

CELLS = [
    ("linearize", Shape("block", 12, 0.3)),
    ("linearize", Shape("disjoint", 48, 0.3)),
    ("linearize", Shape("disjoint", 96, 0.3)),
    ("linearize", Shape("disjoint", 192, 0.3)),
    ("linearize", Shape("ordinal", 192, 0.3)),
    ("certifying_family", Shape("block", 12, 0.3)),
    ("certifying_family", Shape("disjoint", 24, 0.6)),
    ("certifying_family", Shape("disjoint", 48, 0.6)),
    ("check_order", Shape("disjoint", 96, 0.5)),
]


def work(name, result) -> str:
    if name == "linearize":
        return f"k={result.k} pivots, m={result.m}"
    if name == "certifying_family":
        return f"{len(result)} members"
    return "valid" if result.is_order else "invalid"


def main() -> None:
    functions = {"linearize": linearize, "certifying_family": certifying_family,
                 "check_order": check_order}
    for name, shape in CELLS:
        slow = name == "certifying_family" and shape.n == 48  # about half a minute per call
        labels, grid = OrderSource(fuzzorder.oracle, 0, 1).order(shape)
        r = FuzzyRelation(tuple(labels), grid)
        times = []
        for _ in range(1 if slow else 5):
            start = time.perf_counter()
            result = functions[name](r)
            times.append(time.perf_counter() - start)
        print(f"{name:18} n={shape.n:<4} {shape.kind:8} {len(shape.blocks)} blocks "
              f"d={shape.density}: {statistics.median(times) * 1e3:10.1f} ms  ({work(name, result)})")


if __name__ == "__main__":
    main()
