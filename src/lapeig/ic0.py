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

The apply solves L y = r and L^T w = y in one in-place call of scipy's C
csr_matvec over 2n stacked rows and one buffer [y | w | r].
csr_matvec(n_row, n_col, S, x, y) sets y[i] += S[i, :] @ x for i = 0, 1,
... in turn, each row's entries in stored order, so with x and y one
array a row reads the rows before it as solved.  Rows 0..n-1 are L's
rows by level upwards: a leading 1/l_ii on r_i, then -l_ij / l_ii on y
in increasing j.  Rows n..2n-1 are L^T's by level downwards: 1/l_kk on y
at row k's place, then -l_ik / l_kk on w in increasing i.  A level's
rows, which read none of each other, go by length: csr_matvec ends a row
on a data-dependent exit, which mispredicts where lengths scatter.  y
and w start at -0.0, the exact additive identity (-0.0 + t == t for
every t; a +0.0 start would turn a -0.0 sum into +0.0), and one gather
takes w back to row order.  Each row sees the same operations in the
same order as a row-by-row loop, so the bits are the same; there is no
per-level call, no BLAS and no state kept between calls.  The stacked
system is all the factor keeps: no L is assembled on the way.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec

from .sparse import CsrMatrix, _grouped, _inverse, _ranges

# retry shifts, tried in order until the factorization completes
SHIFT_SCHEDULE = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2)
_PIVOT_FLOOR = 1e-14


class Ic0Error(RuntimeError):
    """Factorization failed at every shift in the schedule."""


class Ic0Factor:
    """Incomplete Cholesky factor L, kept only as its stacked system.

    Built by ic0_factorize and identity_factor from a plan and the values
    of L in the plan's entry order, v strictly below the diagonal and d on
    it.  apply(r) solves (L L^T) z = r by one in-place csr_matvec call
    (see the module docstring), leaving r untouched.
    """

    __slots__ = ("n", "shift", "attempts", "_system", "_out")

    def __init__(self, plan, v, d, shift, attempts):
        self.shift = float(shift)
        self.attempts = int(attempts)
        self.n = n = plan.n
        row, col, m = plan.row, plan.col, plan.row.size
        # rows of L by level upwards, rows of L^T (columns of L) downwards
        p1 = _sweep_order(plan.level, plan.nlev, np.diff(plan.ptr))
        p2 = _sweep_order(plan.nlev - 1 - plan.level, plan.nlev, np.bincount(col, minlength=n))
        # rows 0..n-1 solve L y = r, rows n..2n-1 L^T w = y: row i of L at
        # q1[i] leads with r_i, row k of L^T at n + q2[k] with y at q1[k];
        # coo_tocsr is a stable counting sort by row, so each lead stays first
        itype = np.int32 if max(3 * n, 2 * (n + m)) < 2**31 else np.int64
        q1, q2 = _inverse(p1).astype(itype), _inverse(p2).astype(itype)
        dinv, nnz = 1.0 / d, 2 * (n + m)
        self._system = np.empty(2 * n + 1, dtype=itype), np.empty(nnz, dtype=itype), np.empty(nnz)
        coo_tocsr(2 * n, 3 * n, nnz, np.concatenate((q1, n + q2, q1[row], n + q2[col])),
                  np.concatenate((np.arange(2 * n, 3 * n, dtype=itype), q1, q1[col], n + q2[row])),
                  np.concatenate((dinv, dinv, -v / d[row], -v / d[col])), *self._system)
        self._out = (n + q2).astype(np.intp)  # numpy converts other indices before a gather

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        n = self.n
        if r.shape != (n,):
            raise ValueError("vector length does not match factor dimension")
        # [y | w | r], y and w starting at -0.0, the additive identity
        buf = np.empty(3 * n)
        buf[:2 * n] = -0.0
        buf[2 * n:] = r
        csr_matvec(2 * n, 3 * n, *self._system, buf, buf)
        return buf[self._out]


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
    """Symbolic phase: the pattern of L and the level schedule.

    L's strictly lower entries are A's, in A's order: entry e in row
    row[e] and column col[e], with row i's entries at ptr[i]:ptr[i + 1].
    """

    def __init__(self, a):
        self.n = n = a.n
        lower, row, col, ptr = _strict_lower(a)
        self.row, self.col, self.ptr = row, col, ptr
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

    def factor(self, diag, alpha):
        """L for A + alpha * diag(A) as (v, d), its strictly lower values in
        the plan's entry order and its pivots, or None if a pivot fails."""
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
        return v, d


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
        values = plan.factor(diag, alpha)
        if values is not None:
            return Ic0Factor(plan, *values, alpha, attempts)
    raise Ic0Error(
        f"pivot breakdown at every shift in {[f'{s:.1e}' for s in shifts]}"
    )


def identity_factor(n):
    """Factor whose application is the identity, for unpreconditioned runs."""
    # the plan of I factors at shift 0 to L = I exactly
    plan = _Plan(CsrMatrix.identity(n))
    return Ic0Factor(plan, *plan.factor(np.ones(n), 0.0), 0.0, 0)
