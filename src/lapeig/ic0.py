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
whose column is at level r.

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
in turn, so with x and y the same array row i reads the rows before it
already solved: one call is the whole forward substitution.  L^T is
stored with its rows and columns numbered n-1-k, which makes it lower
triangular too.  Every row sees the same operations in the same order
as in a row-by-row loop; there is no per-level call, no BLAS and no
state kept between calls.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvec

from .sparse import CsrMatrix

# retry shifts, tried in order until the factorization completes
SHIFT_SCHEDULE = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2)
_PIVOT_FLOOR = 1e-14


class Ic0Error(RuntimeError):
    """Factorization failed at every shift in the schedule."""


class Ic0Factor:
    """Lower-triangular incomplete Cholesky factor with its metadata.

    apply(r) solves (L L^T) z = r by two in-place csr_matvec calls, one
    per triangle, over copies of L's off-diagonal entries scaled by their
    row's pivot (see the module docstring).  r is left untouched.
    """

    __slots__ = ("l", "shift", "attempts", "_dinv", "_lower", "_upper")

    def __init__(self, l, shift, attempts):
        self.l = l
        self.shift = float(shift)
        self.attempts = int(attempts)
        n = l.n
        lower, row, col, ptr = _strict_lower(l)
        val = l.values[lower]
        d = l.diagonal()
        self._dinv = 1.0 / d
        # row i of L scaled by 1/l_ii; row k of L^T by 1/l_kk, numbered n-1-k
        self._lower = ptr, col, -val / d[row]
        self._upper = _csr_by_row(n, n - 1 - col, n - 1 - row, -val / d[col])

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        n = self.l.n
        if r.shape != (n,):
            raise ValueError("vector length does not match factor dimension")
        y = r * self._dinv
        csr_matvec(n, n, *self._lower, y, y)
        w = y[::-1] * self._dinv[::-1]
        csr_matvec(n, n, *self._upper, w, w)
        return w[::-1].copy()


def _csr_by_row(n, row, col, val):
    """CSR arrays (ptr, col, val) of the entries (row, col, val), each row
    keeping the order the entries came in."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    order = _stable_order(row)
    return ptr, col[order], val[order]


def _ranges(starts, counts):
    """Concatenated arange(s, s + c) over the pairs (s, c), in order."""
    ends = counts.cumsum()
    total = ends[-1] if ends.size else 0
    return np.repeat(starts + counts - ends, counts) + np.arange(total)


def _stable_order(keys):
    """np.argsort(keys, kind="stable") for nonnegative integer keys.

    Sorting the distinct values keys * size + index is several times
    faster than numpy's stable argsort on int64.
    """
    size = keys.size
    return np.sort(keys * size + np.arange(size)) % size


def _bounds(keys, nlev):
    """Start of each level's run in keys sorted by level, as a list."""
    ptr = np.zeros(nlev + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nlev), out=ptr[1:])
    return ptr.tolist()


def _levels(n, ptr, row, col):
    """Level of each row: 1 + the highest level of its lower neighbours."""
    users = row[_stable_order(col)]  # rows holding column k, by k
    ucount = np.bincount(col, minlength=n)
    ustart = ucount.cumsum() - ucount
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
    """Mask of a's strictly lower entries, their rows and columns, and
    their CSR row pointer."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = a.col_idx < rows
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
        found = hit >= 0
        del position
        e, cand, hit = e[found], cand[found], hit[found]
        first = scan_i[e]
        ip = np.where(first, cand, hit)
        kp = np.where(first, hit, cand)
        del scan_i, found, first, cand, hit

        level, nlev = _levels(n, ptr, row, col)
        self.nlev = nlev
        # pivots, stored in level order
        self.rorder = _stable_order(level)
        rpos = np.empty(n, dtype=np.int64)
        rpos[self.rorder] = np.arange(n)
        self.rptr = _bounds(level, nlev)
        # entries, stored in order of their column's level
        step = level[col]
        eorder = _stable_order(step)
        epos = np.empty(m, dtype=np.int64)
        epos[eorder] = np.arange(m)
        self.eptr = _bounds(step, nlev)
        self.start = a.values[lower][eorder]
        self.pivot_of = rpos[col[eorder]]
        # triangle updates, in step order and grouped by entry in increasing p
        tstep = step[e]
        torder = _stable_order(tstep)
        self.tptr = _bounds(tstep, nlev)
        self.target = epos[e[torder]]
        self.ip = epos[ip[torder]]
        self.kp = epos[kp[torder]]
        del e, ip, kp, tstep, torder, step
        # pivot updates: the entries of each level's rows in (row, col) order
        in_row = np.diff(ptr)
        dorder = _ranges(ptr[self.rorder], in_row[self.rorder])
        self.dptr = _bounds(level[row], nlev)
        self.square = epos[dorder]
        self.pivot = rpos[row[dorder]]
        del dorder

        # L's pattern is A's lower triangle with the diagonal last in each row
        self.n = n
        self.lptr = ptr + np.arange(n + 1)
        diag_at = self.lptr[1:] - 1
        off_at = np.arange(m) + row
        self.lcol = np.empty(m + n, dtype=np.int64)
        self.lcol[off_at] = col
        self.lcol[diag_at] = np.arange(n)
        self.entry_at = off_at[eorder]
        self.pivot_at = diag_at[self.rorder]

    def factor(self, diag, alpha):
        """L for A + alpha * diag(A), or None if a pivot fails."""
        d = diag[self.rorder] * (1.0 + alpha)
        floor = _PIVOT_FLOOR * np.abs(d)
        v = self.start.copy()
        for r in range(self.nlev):
            lo, hi = self.dptr[r], self.dptr[r + 1]
            if lo < hi:
                x = v[self.square[lo:hi]]
                np.subtract.at(d, self.pivot[lo:hi], x * x)
            lo, hi = self.rptr[r], self.rptr[r + 1]
            dr = d[lo:hi]
            # floor >= 0, so this also demands dr > 0, and NaN fails it
            if not (dr > floor[lo:hi]).all():
                return None
            np.sqrt(dr, out=dr)
            lo, hi = self.tptr[r], self.tptr[r + 1]
            if lo < hi:
                np.subtract.at(v, self.target[lo:hi], v[self.ip[lo:hi]] * v[self.kp[lo:hi]])
            lo, hi = self.eptr[r], self.eptr[r + 1]
            v[lo:hi] /= d[self.pivot_of[lo:hi]]
        vals = np.empty(self.lcol.size)
        vals[self.entry_at] = v
        vals[self.pivot_at] = d
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
            return Ic0Factor(l, alpha, attempts)
    raise Ic0Error(
        f"pivot breakdown at every shift in {[f'{s:.1e}' for s in shifts]}"
    )


def identity_factor(n):
    """Factor whose application is the identity, for unpreconditioned runs."""
    return Ic0Factor(CsrMatrix.identity(n), 0.0, 0)
