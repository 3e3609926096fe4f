"""The machine's speed while a pass runs, from a fixed reference workload.

On a shared host the speed this process gets swings by up to a half over
tens of seconds, and process CPU time swings with it (the process is not
descheduled; it runs slower).  Ten runs of one seed gave times 30% apart.
A pass's wall time is therefore put next to the time of a fixed reference
workload taken at the pass's stage boundaries: after set-up and after
each solver.  ``speed`` is NOMINAL_S over the reference time averaged
across the pass, so a time multiplied by it reads as on a machine where
the reference takes NOMINAL_S.  On repeated passes of one graph this
cut the coefficient of variation of the pass time from 0.23 to 0.07 in a
noisy stretch, and from 0.07 to 0.05 in a quiet one.

The reference runs no lapeig code, so no change to lapeig can move it.
It mixes the two kinds of work that take the solvers' time: a sparse
product with a random gather, and a projection on a block of columns.
Its arrays (about 9 MB) are allocated once, when the meter is made, and
a slice allocates nothing.  They add a constant to the pipeline's peak
RSS; a slice does not move the peak or fragment the heap.
"""

import time

import numpy as np

# the reference's time on a quiet 2-core Intel Xeon VM (numpy 2.4, one
# BLAS thread): about the fastest tenth of its slices there
NOMINAL_S = 0.025

N = 20000
DEGREE = 7
COLUMNS = 32
STEPS = 26
SLICES = 3  # reference slices per mark
WARM_UP = 3  # slices run and discarded before the first mark

clock = time.perf_counter


class Reference:
    """One fixed unit of work on arrays built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.integers(0, N, size=N * DEGREE)
        self.vals = rng.random(N * DEGREE)
        self.starts = np.arange(0, N * DEGREE, DEGREE)
        self.block = rng.standard_normal((N, COLUMNS)) / np.sqrt(N)
        self.x0 = rng.standard_normal(N)
        self.x = np.empty(N)
        self.y = np.empty(N)
        self.z = np.empty(N)
        self.gathered = np.empty(N * DEGREE)
        self.coef = np.empty(COLUMNS)

    def __call__(self):
        """Run the unit; returns its wall time."""
        t0 = clock()
        x, y, z = self.x, self.y, self.z
        x[:] = self.x0
        for _ in range(STEPS):
            np.take(x, self.cols, out=self.gathered, mode="clip")  # unbuffered
            self.gathered *= self.vals
            np.add.reduceat(self.gathered, self.starts, out=y)
            np.dot(self.block.T, y, out=self.coef)
            np.dot(self.block, self.coef, out=z)
            y -= z
            np.divide(y, np.linalg.norm(y), out=x)
        return clock() - t0


class SpeedMeter:
    """Reference slices taken between the stages of the measured passes."""

    def __init__(self):
        self.marks = []  # (clock when the mark started, its reference seconds)
        self.reference = Reference()
        # a process's first slices run slow (page faults, cold caches)
        for _ in range(WARM_UP):
            self.reference()

    def mark(self):
        """Take the median of a few slices, which ignores a slice that a
        brief burst on the host slowed down; returns the wall time the mark
        took, for the caller to leave out of its own timing."""
        t0 = clock()
        slices = sorted(self.reference() for _ in range(SLICES))
        self.marks.append((t0, slices[SLICES // 2]))
        return clock() - t0

    def speed(self, first, last=None):
        """NOMINAL_S over the reference time averaged from mark ``first`` to
        mark ``last`` (the latest if None), each gap between two marks
        weighted by its length."""
        marks = self.marks[first:None if last is None else last + 1]
        weighted = span = 0.0
        for (ta, sa), (tb, sb) in zip(marks, marks[1:]):
            weighted += (tb - ta) * (sa + sb) / 2
            span += tb - ta
        return NOMINAL_S / (weighted / span)
