"""Compressed sparse row matrices and the counted matrix-vector product.

CsrMatrix validates and freezes its CSR arrays and wraps them, without a
copy, in a scipy.sparse.csr_array that does the arithmetic.  Every
solver in this package charges its work to matrix-vector products with
the operator, so the product is funneled through a single function,
spmv, that ticks a shared counter under the kind of work it serves and
runs scipy's C product on the frozen arrays.
"""

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse._sparsetools import csr_matvec


class MvpCounter:
    """The cost ledger: matrix-vector products, tallied by the layer that spends them.

    outer counts products outside inner iterations (and the count given
    to the constructor), inner one per PCG or DACG iteration, verify the
    fresh acceptance products; solves counts inner solves, one per
    pcg_solve call, and restarts the solvers' subspace restarts.  count
    is the sum of the three product tallies.  open_run marks the tallies
    at a solver run's entry and keeps that run's effective settings, so
    a report, a failed run's too, reads both off the counter.
    """

    __slots__ = ("outer", "inner", "verify", "solves", "restarts", "marks", "settings")

    def __init__(self, count=0):
        self.outer = int(count)
        self.inner = self.verify = self.solves = self.restarts = 0
        self.marks, self.settings = (0, 0, 0, 0, 0), {}

    @property
    def count(self):
        return self.outer + self.inner + self.verify

    def increment(self, k=1, kind="outer"):
        setattr(self, kind, getattr(self, kind) + k)

    def tallies(self):
        """(outer, inner, verify, solves, restarts), a snapshot to subtract later."""
        return self.outer, self.inner, self.verify, self.solves, self.restarts

    def open_run(self, **settings):
        """Mark the tallies at a solver run's entry and keep its settings."""
        self.marks, self.settings = self.tallies(), settings

    def __repr__(self):
        return (f"MvpCounter(outer={self.outer}, inner={self.inner}, "
                f"verify={self.verify}, solves={self.solves}, restarts={self.restarts})")


class CsrMatrix:
    """Square sparse matrix in compressed sparse row form.

    Arrays are validated on construction and frozen afterwards: row_ptr
    must be a nondecreasing array of length n + 1 starting at 0, column
    indices must lie in [0, n) and be strictly increasing inside each
    row (which also rules out duplicate entries).  The csr attribute is
    a scipy.sparse.csr_array sharing those arrays.
    """

    __slots__ = ("n", "row_ptr", "col_idx", "values", "symmetric", "csr")

    def __init__(self, n, row_ptr, col_idx, values, symmetric=False):
        n = int(n)
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if n < 0:
            raise ValueError("matrix dimension must be nonnegative")
        if row_ptr.ndim != 1 or row_ptr.shape[0] != n + 1:
            raise ValueError("row_ptr must have length n + 1")
        if row_ptr[0] != 0:
            raise ValueError("row_ptr must start at 0")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        nnz = int(row_ptr[-1])
        if col_idx.shape != (nnz,) or values.shape != (nnz,):
            raise ValueError("col_idx and values must match row_ptr[-1] in length")
        if nnz and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("column index out of range")
        csr = csr_array((values, col_idx, row_ptr), shape=(n, n))
        if not csr.has_canonical_format:
            raise ValueError("column indices must increase strictly within each row")
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.symmetric = bool(symmetric)
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.setflags(write=False)
        self.csr = csr

    @property
    def nnz(self):
        return int(self.row_ptr[-1])

    @classmethod
    def from_coo(cls, n, rows, cols, vals, symmetric=False):
        """Build from unordered triplets; duplicate positions are an error."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and vals must be 1-D arrays of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        # scipy sorts each row and sums repeats, so a repeat shortens the result
        csr = coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
        if csr.nnz < rows.size:
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            k = int(np.flatnonzero((np.diff(rows) == 0) & (np.diff(cols) == 0))[0])
            raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        return cls(n, csr.indptr, csr.indices, csr.data, symmetric=symmetric)

    @classmethod
    def identity(cls, n):
        return cls(n, np.arange(n + 1), np.arange(n), np.ones(n), symmetric=True)

    def diagonal(self):
        return self.csr.diagonal()

    def row(self, i):
        """Column indices and values of row i (views, do not mutate)."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    def toarray(self):
        return self.csr.toarray()


def spmv(a, x, counter=None, kind="outer"):
    """y = A x for a CsrMatrix, charging one product to the counter's kind tally."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n,):
        raise ValueError(f"vector length {x.shape} does not match matrix dimension {a.n}")
    if counter is not None:
        counter.increment(1, kind)
    # what a.csr @ x runs, without scipy's dispatch
    y = np.zeros(a.n)
    csr_matvec(a.n, a.n, a.row_ptr, a.col_idx, a.values, x, y)
    return y
