"""Compressed sparse row matrices and the counted matrix-vector product.

CsrMatrix validates and freezes its CSR arrays and wraps them, without a
copy, in a scipy.sparse.csr_array that does the arithmetic.  Every
solver in this package charges its work to matrix-vector products with
the operator, so the product is funneled through a single function,
spmv, that ticks a shared counter.
"""

import numpy as np
from scipy.sparse import csr_array


class MvpCounter:
    """Mutable tally of matrix-vector products."""

    __slots__ = ("count",)

    def __init__(self, count=0):
        self.count = int(count)

    def increment(self, k=1):
        self.count += k

    def __repr__(self):
        return f"MvpCounter(count={self.count})"


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
        if nnz > 1:
            jumps = np.diff(col_idx)
            # positions ending a row are exempt from the ordering check
            interior = np.ones(nnz - 1, dtype=bool)
            ends = row_ptr[1:-1]
            interior[ends[(ends > 0) & (ends < nnz)] - 1] = False
            if np.any(jumps[interior] <= 0):
                raise ValueError("column indices must increase strictly within each row")
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.symmetric = bool(symmetric)
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.setflags(write=False)
        self.csr = csr_array((values, col_idx, row_ptr), shape=(n, n))

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
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(n, row_ptr, cols, vals, symmetric=symmetric)

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

    def symmetry_defect(self):
        return float(abs(self.csr - self.csr.T).max()) if self.n else 0.0


def spmv(a, x, counter=None):
    """y = A x for a CsrMatrix, charging one product to the counter."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n,):
        raise ValueError(f"vector length {x.shape} does not match matrix dimension {a.n}")
    if counter is not None:
        counter.increment()
    return a.csr @ x
