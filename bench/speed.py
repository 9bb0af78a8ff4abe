"""The machine's speed during a run, from a fixed reference workload.

The benchmark runs on a shared host whose speed swings by up to 2x over
seconds to minutes: in one 90-second stretch ``certifying_family`` on a
12-element order took 41 to 93 ms of CPU time, alternating between fast and
slow spells, and whole 30-second runs of identical work differed by 1.3x.
Medians inside a run absorb short spells but not a run that falls mostly into
a slow or a fast one.

So every run also times :func:`reference_work` between its operations.  It
does not touch ``fuzzorder``: it repeats the kind of work the library does
(max-min products of numpy matrices, pair searches, a Python loop over the
hits), on fixed data.  A change to the program cannot move it; a change in the
machine's speed moves it as it moves the program.  The runner scales each
operation's time by the reference's nominal time over its times around the
operation, which gives it in milliseconds at the speed the host showed in its
fast spells.

Slow spells slow small-array, interpreter-bound work more than large-array
work (2.1x against 1.6x in the stretch above), so each workload's reference
works on matrices of the size its operations work on.  Measured in 8-call
chunks over that stretch, the ratio of operation to reference spread by 0.07
(``certifying_family`` at n = 12 against n = 24) and 0.04 (``linearize`` at
n = 168 against n = 160) as a share of its median, and by 0.16 and 0.14
with the sizes swapped.
"""

from __future__ import annotations

import statistics

import numpy as np

# Workload: (matrix size, steps, nominal CPU time in ns).  The nominal time
# is the reference's time in the host's fast spells; it only fixes the unit.
REFERENCES = {
    "linearize-large": (160, 6, 1_720_000),
    "certify": (24, 40, 1_080_000),
    "cli-files": (64, 24, 1_580_000),
}


def reference_grid(n: int) -> np.ndarray:
    rng = np.random.default_rng(20240601)
    grid = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
    np.fill_diagonal(grid, 1.0)
    return grid


def reference_work(grid: np.ndarray, steps: int) -> int:
    n = len(grid)
    found = 0
    for step in range(steps):
        ia, ib = (7 * step) % n, (11 * step + 5) % n
        grid = np.maximum(grid, np.minimum.outer(grid[:, ia], grid[ib, :]))
        zero = np.triu((grid == 0.0) & (grid.T == 0.0), k=1)
        for x, y in np.argwhere(zero)[:40]:
            found += (int(x) ^ int(y)) & 1
    return found


class Speed:
    """Reference times taken between timed sections, and the scale they give.

    ``mark()`` times one reference_work() call.  A section timed between
    marks is scaled by the nominal time over the median of the marks nearest
    to it, so it is corrected by the machine's speed around it and not by
    that of the whole run.  One mark jitters by about a tenth, so a few are
    pooled.
    """

    REACH = 2  # marks pooled on each side of a section

    def __init__(self, clock_ns, workload: str):
        n, self.steps, self.nominal_ns = REFERENCES[workload]
        self.grid = reference_grid(n)
        self.clock_ns = clock_ns
        self.samples: list[int] = []

    def mark(self) -> int:
        start = self.clock_ns()
        reference_work(self.grid, self.steps)
        self.samples.append(self.clock_ns() - start)
        return self.samples[-1]

    def scales(self, marks: list[int]) -> list[float]:
        """Scale for each section between consecutive ``marks``."""
        return [self.nominal_ns / statistics.median(marks[max(0, i + 1 - self.REACH): i + 1 + self.REACH])
                for i in range(len(marks) - 1)]
