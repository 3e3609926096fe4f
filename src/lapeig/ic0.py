"""No-fill incomplete Cholesky preconditioning.

The factor keeps exactly the lower-triangular sparsity pattern of the
input matrix.  Graph Laplacians deflated only through projection stay
singular, so factorization targets A + alpha * diag(A) and retries with
escalating alpha whenever a pivot collapses.
"""

import numpy as np
from scipy.sparse.linalg import splu

from .sparse import CsrMatrix

# retry shifts, tried in order until the factorization completes
SHIFT_SCHEDULE = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2)
_PIVOT_FLOOR = 1e-14


class Ic0Error(RuntimeError):
    """Factorization failed at every shift in the schedule."""


class Ic0Factor:
    """Lower-triangular incomplete Cholesky factor with its metadata.

    apply(r) solves (L L^T) z = r through two triangular solves.
    """

    __slots__ = ("l", "shift", "attempts", "_lu")

    def __init__(self, l, shift, attempts):
        self.l = l
        self.shift = float(shift)
        self.attempts = int(attempts)
        # natural ordering with pivoting suppressed keeps the factor triangular
        self._lu = splu(l.csr.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.l.n,):
            raise ValueError("vector length does not match factor dimension")
        y = self._lu.solve(r, trans="N")
        return self._lu.solve(y, trans="T")


def _attempt(n, diag, lower_cols, lower_vals, alpha):
    """One no-fill factorization pass; returns row dicts or None on failure."""
    rows = []
    lmax_floor = _PIVOT_FLOOR
    for i in range(n):
        li = {}
        cols_i = lower_cols[i]
        vals_i = lower_vals[i]
        for t in range(cols_i.size):
            k = int(cols_i[t])
            s = vals_i[t]
            row_k = rows[k]
            if len(li) <= len(row_k):
                for p, lip in li.items():
                    lkp = row_k.get(p)
                    if lkp is not None:
                        s -= lip * lkp
            else:
                for p, lkp in row_k.items():
                    lip = li.get(p)
                    if lip is not None:
                        s -= lip * lkp
            li[k] = s / rows[k][k]
        d = diag[i] * (1.0 + alpha)
        for lip in li.values():
            d -= lip * lip
        if d <= lmax_floor * abs(diag[i] * (1.0 + alpha)) or d <= 0.0:
            return None
        li[i] = np.sqrt(d)
        rows.append(li)
    return rows


def ic0_factorize(a, shift0=0.0, schedule=SHIFT_SCHEDULE):
    """Incomplete Cholesky of a + alpha * diag(a) on the pattern of a.

    Tries alpha = shift0 first, then walks the schedule, finishing with
    0.1 * max diagonal entry as a last resort.  Each retry restarts the
    factorization from scratch.  Raises Ic0Error when every shift
    fails.
    """
    if not a.symmetric:
        raise ValueError("incomplete Cholesky needs a symmetric matrix")
    n = a.n
    diag = np.zeros(n)
    lower_cols = []
    lower_vals = []
    for i in range(n):
        cols, vals = a.row(i)
        below = np.searchsorted(cols, i)
        lower_cols.append(cols[:below])
        lower_vals.append(vals[:below])
        if below < cols.size and cols[below] == i:
            diag[i] = vals[below]
    dmax = float(diag.max()) if n else 0.0
    shifts = [float(shift0)]
    shifts += [s for s in schedule if s > shift0]
    last = 0.1 * dmax
    if dmax > 0 and (not shifts or last > shifts[-1]):
        shifts.append(last)
    attempts = 0
    for alpha in shifts:
        attempts += 1
        rows = _attempt(n, diag, lower_cols, lower_vals, alpha)
        if rows is not None:
            return Ic0Factor(_rows_to_csr(n, rows), alpha, attempts)
    raise Ic0Error(
        f"pivot breakdown at every shift in {[f'{s:.1e}' for s in shifts]}"
    )


def _rows_to_csr(n, rows):
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    cols = np.empty(int(ptr[-1]), dtype=np.int64)
    vals = np.empty(int(ptr[-1]))
    for i, r in enumerate(rows):
        cs = np.fromiter(r.keys(), dtype=np.int64, count=len(r))
        vv = np.fromiter(r.values(), dtype=np.float64, count=len(r))
        order = np.argsort(cs)
        cols[ptr[i] : ptr[i + 1]] = cs[order]
        vals[ptr[i] : ptr[i + 1]] = vv[order]
    return CsrMatrix(n, ptr, cols, vals)


def identity_factor(n):
    """Factor whose application is the identity, for unpreconditioned runs."""
    return Ic0Factor(CsrMatrix.identity(n), 0.0, 0)

