"""No-fill incomplete Cholesky preconditioning.

The factor keeps exactly the lower-triangular sparsity pattern of the
input matrix.  Graph Laplacians deflated only through projection stay
singular, so factorization targets A + alpha * diag(A) and retries with
escalating alpha whenever a pivot collapses.

The factorization has two phases.  The symbolic phase runs once per
call.  It takes the strictly lower entries (i, k) of A and lists each
entry's triangles: every p < k with (i, p) and (k, p) both stored,
found by scanning the shorter of rows i and k.  It then gives each row
a level, 0 for a row with no lower entries and otherwise 1 + the
highest level among its lower neighbours k.  Row i's pivot needs only
the entries of row i, whose columns all have lower levels than i.
Entry (i, k) needs row k's pivot and the entries (i, p) and (k, p) of
its triangles, whose columns p have lower levels than k.  So level r
takes two steps: the pivots of the rows at level r, then the entries
whose column is at level r.  Rows and entries keep A's own numbering;
a level is four index arrays into it, each in increasing index order:
its rows, the entries of those rows (for the pivot updates), the
entries whose column is at level r, and their triangle updates, grouped
by entry in increasing p.

The numeric phase runs once per shift alpha and walks the levels.  An
entry starts at a_ik, has its triangle products l_ip * l_kp subtracted
in increasing p, and is divided by l_kk.  A pivot starts at
a_ii * (1 + alpha), has the squares of its row subtracted in increasing
column order, passes the pivot test and takes a square root.
np.subtract.at applies repeated targets one after another in index
order, so every value gets the same operations in the same order as in
a row-by-row loop, and the factor is the same bit for bit.

Cost: memory is O(m) in the m stored lower entries, plus the triangles
and the scan that finds them.  The scan visits min(t, c) candidates for
an entry that has t entries before it in row i and c entries in row k,
so a hub has no O(n^2) scan even as the last row.  Each phase makes a
fixed number of numpy calls per level.  Random and geometric graphs
have a few dozen levels, but a path numbered in order has n, and there
the per-level calls cost more than a plain loop over the rows.

The factor's apply solves L y = r and then L^T z = y, each with one call
of scipy's C csr_matvec.  With each row scaled by 1/l_ii and its
off-diagonal entries negated, y = r / diag(L) + F y for a strictly lower
F.  csr_matvec(n, n, F, x, y) sets y[i] += F[i, :] @ x for i = 0, 1, ...
in turn, adding each row's entries in stored order, so with x and y the
same array one call is a whole substitution if every row is stored
after the rows it reads.  The forward sweep stores the rows of L by
level upwards (row i reads rows of lower levels), the backward sweep
the rows of L^T by level downwards (row k of L^T reads the rows i > k
of column k of L, of higher levels), and each level, whose rows read
none of each other, by row length: csr_matvec ends a row on a
data-dependent exit, and rows of equal length side by side spare the
branch mispredictions that the scattered lengths of a graph's rows
cost.  The levels are the plan's, or found anew for a factor built from
L alone.  Rows keep their entries in increasing index, renumbered to
positions in the sweep; L keeps each row's diagonal last, so F is every
entry but the last.  Three gathers take r into forward order, y into
backward order and z back.  Every row sees the same operations in the
same order as in a row-by-row loop, so the bits are the same; there is
no per-level call, no BLAS and no state kept between calls.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvec

from .sparse import CsrMatrix, _grouped, _inverse, _ranges, _rows_in_order

# retry shifts, tried in order until the factorization completes
SHIFT_SCHEDULE = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2)
_PIVOT_FLOOR = 1e-14


class Ic0Error(RuntimeError):
    """Factorization failed at every shift in the schedule."""


class Ic0Factor:
    """Lower-triangular incomplete Cholesky factor with its metadata.

    apply(r) solves (L L^T) z = r by two in-place csr_matvec calls, one
    per triangle, over copies of L's off-diagonal entries scaled by their
    row's pivot (see the module docstring).  r is left untouched.  l must
    be lower triangular with every diagonal entry stored, the last entry
    of its row; otherwise the constructor raises ValueError.
    """

    __slots__ = ("l", "shift", "attempts", "_gathers", "_forward", "_backward")

    def __init__(self, l, shift, attempts, *, _level=None):
        self.l = l
        self.shift = float(shift)
        self.attempts = int(attempts)
        n = l.n
        # each row of L ends with its diagonal: the check that every row's
        # last entry is in its own column also fails for an empty row
        last = l.row_ptr[1:] - 1
        if l.nnz < n or not np.array_equal(l.col_idx[last], np.arange(n)):
            raise ValueError("L must be lower triangular with every diagonal entry stored")
        ptr = l.row_ptr - np.arange(n + 1)
        row = np.repeat(np.arange(n), np.diff(ptr))
        off = np.arange(row.size) + row  # rows before row i hold i diagonals
        col, val = l.col_idx[off], l.values[off]
        d = l.values[last]
        # ic0_factorize passes the levels its plan found for this pattern
        level, nlev = _levels(n, ptr, row, col) if _level is None else _level
        # rows of L by level upwards, rows of L^T (columns of L) downwards
        p1 = _sweep_order(level, nlev, np.diff(ptr))
        p2 = _sweep_order(nlev - 1 - level, nlev, np.bincount(col, minlength=n))
        q1, q2 = _inverse(p1), _inverse(p2)
        # row i of L scaled by 1/l_ii, row k of L^T by 1/l_kk, in sweep positions
        self._forward = _rows_in_order(p1, ptr, q1[col], -val / d[row])
        order, bptr = _grouped(q2[col], n)
        itype = self._forward[0].dtype
        self._backward = bptr.astype(itype), q2[row[order]].astype(itype), (-val / d[col])[order]
        self._gathers = p1, 1.0 / d[p1], q1[p2], 1.0 / d[p2], q2

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        n = self.l.n
        if r.shape != (n,):
            raise ValueError("vector length does not match factor dimension")
        p1, d1, p12, d2, out = self._gathers
        y = r[p1] * d1
        csr_matvec(n, n, *self._forward, y, y)
        w = y[p12] * d2
        csr_matvec(n, n, *self._backward, w, w)
        return w[out]


def _sweep_order(level, nlev, length):
    """Rows by level, then by length, then by index: two stable sorts."""
    by_length = _grouped(length, int(length.max(initial=0)) + 1)[0]
    return by_length[_grouped(level[by_length], nlev)[0]]


def _levels(n, ptr, row, col):
    """Level of each row: 1 + the highest level of its lower neighbours."""
    order, ustart = _grouped(col, n)
    users = row[order]  # rows holding column k, by k
    ucount = np.diff(ustart)
    waiting = np.diff(ptr)  # lower neighbours without a level yet
    level = np.empty(n, dtype=np.int64)
    front = np.flatnonzero(waiting == 0)
    nlev = 0
    while front.size:
        level[front] = nlev
        nlev += 1
        touched = users[_ranges(ustart[front], ucount[front])]
        np.subtract.at(waiting, touched, 1)
        ready = touched[waiting[touched] == 0]
        # a row is listed once per neighbour in front: keep one copy by
        # tagging each copy and keeping the one whose tag stuck
        tag = np.arange(-1, -1 - ready.size, -1)
        waiting[ready] = tag
        front = ready[waiting[ready] == tag]
    return level, nlev


def _strict_lower(a):
    """Positions of a's strictly lower entries, their rows and columns, and
    their CSR row pointer."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = np.flatnonzero(a.col_idx < rows)
    row, col = rows[lower], a.col_idx[lower]
    ptr = np.zeros(a.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=a.n), out=ptr[1:])
    return lower, row, col, ptr


class _Plan:
    """Symbolic phase: the pattern of L and the level schedule."""

    def __init__(self, a):
        n = a.n
        lower, row, col, ptr = _strict_lower(a)
        m = row.size

        # triangles (e, ip, kp): positions of (i, k), (i, p) and (k, p),
        # grouped by e in increasing p
        before = np.arange(m) - ptr[row]  # entries of row i left of (i, k)
        in_k = ptr[col + 1] - ptr[col]
        scan_i = before <= in_k
        count = np.where(scan_i, before, in_k)
        cand = _ranges(np.where(scan_i, ptr[row], ptr[col]), count)
        e = np.repeat(np.arange(m), count)
        del before, in_k, count
        # 1 + position of each stored lower entry, 0 where none is stored;
        # scipy returns a sparse array for empty index arrays, hence the guard
        position = csr_array((np.arange(1, m + 1), col, ptr), shape=(n, n))
        hit = (position[np.where(scan_i, col, row)[e], col[cand]] if e.size else e) - 1
        # a mask this irregular is several times slower to index with than
        # the positions it selects
        found = np.flatnonzero(hit >= 0)
        del position
        e, cand, hit = e[found], cand[found], hit[found]
        first = scan_i[e]
        ip = np.where(first, cand, hit)
        kp = np.where(first, hit, cand)
        del scan_i, found, first, cand, hit

        level, nlev = _levels(n, ptr, row, col)
        self.level, self.nlev = level, nlev
        self.start = a.values[lower]
        # each level's rows, and their entries for the pivot updates
        self.rows, rptr = _grouped(level, nlev)
        self.square, dptr = _grouped(level[row], nlev)
        self.pivot = row[self.square]
        # entries whose column is at the level, and their triangle updates
        step = level[col]
        self.entries, eptr = _grouped(step, nlev)
        self.pivot_of = col[self.entries]
        torder, tptr = _grouped(step[e], nlev)
        self.target, self.ip, self.kp = e[torder], ip[torder], kp[torder]
        del e, ip, kp, step, torder
        self.rptr, self.dptr, self.eptr, self.tptr = (
            p.tolist() for p in (rptr, dptr, eptr, tptr))

        # L's pattern is A's lower triangle with the diagonal last in each row
        self.n = n
        self.lptr = ptr + np.arange(n + 1)
        self.lcol = np.insert(col, ptr[1:], np.arange(n))
        self.off_at = np.arange(m) + row
        self.diag_at = self.lptr[1:] - 1

    def factor(self, diag, alpha):
        """L for A + alpha * diag(A), or None if a pivot fails."""
        d = diag * (1.0 + alpha)
        floor = _PIVOT_FLOOR * np.abs(d)
        v = self.start.copy()
        for r in range(self.nlev):
            lo, hi = self.dptr[r], self.dptr[r + 1]
            x = v[self.square[lo:hi]]
            np.subtract.at(d, self.pivot[lo:hi], x * x)
            rows = self.rows[self.rptr[r]:self.rptr[r + 1]]
            dr = d[rows]
            # floor >= 0, so this also demands dr > 0, and NaN fails it
            if not (dr > floor[rows]).all():
                return None
            d[rows] = np.sqrt(dr)
            lo, hi = self.tptr[r], self.tptr[r + 1]
            np.subtract.at(v, self.target[lo:hi], v[self.ip[lo:hi]] * v[self.kp[lo:hi]])
            lo, hi = self.eptr[r], self.eptr[r + 1]
            v[self.entries[lo:hi]] /= d[self.pivot_of[lo:hi]]
        vals = np.empty(self.lcol.size)
        vals[self.off_at] = v
        vals[self.diag_at] = d
        return CsrMatrix(self.n, self.lptr, self.lcol, vals)


def ic0_factorize(a):
    """Incomplete Cholesky of a + alpha * diag(a) on the pattern of a.

    Tries alpha = 0 first, then walks SHIFT_SCHEDULE, finishing with
    0.1 * max diagonal entry as a last resort.  Each retry repeats the
    numeric phase from scratch.  Raises Ic0Error when every shift
    fails.
    """
    if not a.symmetric:
        raise ValueError("incomplete Cholesky needs a symmetric matrix")
    diag = a.diagonal()
    dmax = float(diag.max()) if a.n else 0.0
    shifts = [0.0, *SHIFT_SCHEDULE]
    last = 0.1 * dmax
    if last > shifts[-1]:
        shifts.append(last)
    plan = _Plan(a)
    for attempts, alpha in enumerate(shifts, start=1):
        l = plan.factor(diag, alpha)
        if l is not None:
            return Ic0Factor(l, alpha, attempts, _level=(plan.level, plan.nlev))
    raise Ic0Error(
        f"pivot breakdown at every shift in {[f'{s:.1e}' for s in shifts]}"
    )


def identity_factor(n):
    """Factor whose application is the identity, for unpreconditioned runs."""
    return Ic0Factor(CsrMatrix.identity(n), 0.0, 0)
