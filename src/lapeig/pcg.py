"""Preconditioned conjugate gradients on the complement of a deflation basis.

Graph Laplacians are singular, so linear solves run inside the
orthogonal complement of the kernel (and of any locked eigenvectors).
A DeflationBasis holds that subspace in one preallocated column-major
buffer that a solver grows in place; its project_out, one block step
v - Q (Q' v) on the columns in use, is the package's only projection.
PCG runs on a CsrMatrix A, optionally shifted to A - theta I; it
projects the right-hand side once and then, per iteration, the shifted
product and the preconditioned residual, so residual and search
direction stay in the complement, where the matrix is effectively
definite.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _norm
from .sparse import spmv

_ORTHO_TOL = 1e-10


class DeflationBasis:
    """Orthonormal columns spanning the subspace to project out.

    buffer is a column-major n x capacity array whose first k columns
    are in use; columns is a read-only view of them.  The constructor
    checks the given columns; push adds one in place and prefix views
    the leading ones, neither with a recheck.
    """

    __slots__ = ("buffer", "k")

    def __init__(self, columns, capacity=None):
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim != 2:
            raise ValueError("columns must be a 2-D array")
        n, k = columns.shape
        if k:
            gram = columns.T @ columns
            if np.abs(gram - np.eye(k)).max() > _ORTHO_TOL:
                raise ValueError("deflation columns are not orthonormal")
        self.buffer = np.zeros((n, max(k, capacity or 0)), order="F")
        self.buffer[:, :k] = columns
        self.k = k

    @property
    def n(self):
        return self.buffer.shape[0]

    @property
    def columns(self):
        view = self.buffer[:, : self.k]
        view.flags.writeable = False
        return view

    def push(self, u):
        """Add the unit vector u, orthogonal to the span, as column k."""
        self.buffer[:, self.k] = u
        self.k += 1

    def prefix(self, k):
        """The first k columns as an unchecked basis on this buffer, to project with."""
        view = object.__new__(DeflationBasis)
        view.buffer = self.buffer[:, :k]
        view.k = k
        return view

    def project_out(self, v):
        """v minus its orthogonal projection onto the basis span."""
        v = np.asarray(v, dtype=np.float64)
        q = self.buffer[:, : self.k]
        # np.dot, not @: for one column @ skips BLAS, same bits either way
        return v - np.dot(q, np.dot(q.T, v))


def kernel_basis(n, labels=None):
    """Orthonormal basis of the Laplacian kernel.

    With labels (a component id per node, 0 to count - 1, each used)
    one normalized indicator per component; without, the single
    constant vector e / sqrt(n).
    """
    if labels is None:
        return DeflationBasis(np.full((n, 1), 1.0 / np.sqrt(n)))
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels must have one entry per node")
    if (labels < 0).any():
        raise ValueError("labels must be nonnegative component ids")
    sizes = np.bincount(labels)
    if not sizes.all():
        raise ValueError(f"component {int(np.argmin(sizes))} has no node")
    cols = np.zeros((n, sizes.shape[0]))
    cols[np.arange(n), labels] = 1.0 / np.sqrt(sizes[labels])
    return DeflationBasis(cols)


@dataclass
class PcgOutcome:
    solution: np.ndarray
    iterations: int
    final_relres: float
    converged: bool
    indefinite: bool = False


def pcg_solve(a, precond, b, tol, maxit, deflation=None, counter=None, shift=0.0):
    """Conjugate gradients for (A - shift I) x = b on the deflation complement.

    a is a CsrMatrix; the call counts one solve on the counter, and each
    iteration one inner spmv, less shift * p when shift is nonzero.
    precond is None (identity) or an object with an apply method, such
    as an Ic0Factor.  Neither needs to project: pcg_solve projects b once and
    then, per iteration, the shifted product and the preconditioned
    residual, which keeps residuals, directions and iterates in the
    complement.  A nonpositive curvature p' (A - shift I) p stops the
    iteration immediately and flags the outcome indefinite.  Stopped at
    maxit, indefinite covers only the iterations that ran; the last forms no z.
    """
    if counter is not None:
        counter.solves += 1
    if deflation is None or deflation.k == 0:
        project = lambda v: v
    else:
        project = deflation.project_out
    psolve = (lambda r: r) if precond is None else precond.apply
    r = project(np.array(b, dtype=np.float64))
    normb = _norm(r)
    n = r.shape[0]
    if normb == 0.0:
        return PcgOutcome(np.zeros(n), 0, 0.0, True)
    x = np.zeros(n)
    z = project(psolve(r))
    rz = float(r @ z)
    p = z.copy()
    relres = 1.0
    it = 0
    indefinite = False
    converged = False
    while it < maxit:
        ap = spmv(a, p, counter, "inner")
        if shift:
            ap -= shift * p
        ap = project(ap)
        it += 1
        pap = float(p @ ap)
        if pap <= 0.0:
            indefinite = True
            break
        gamma = rz / pap
        x += gamma * p
        r -= gamma * ap
        relres = _norm(r) / normb
        converged = bool(relres <= tol)
        if converged or it == maxit:
            break
        z = project(psolve(r))
        rz_next = float(r @ z)
        if rz_next <= 0.0:
            # preconditioner lost definiteness on the complement
            indefinite = True
            break
        p *= rz_next / rz
        p += z
        rz = rz_next
    return PcgOutcome(x, it, relres, converged, indefinite)


def jd_correction_solve(a, theta, q, residual, f, tol, itmax, counter=None):
    """Approximate solve of the projected shifted system used by Jacobi-Davidson.

    Solves (I - QQ')(A - theta I)(I - QQ') s = -residual by PCG on the
    complement of Q, handing pcg_solve the matrix, the shift theta and
    the preconditioner f (None for none); pcg_solve does the projecting.
    The iterate reached at itmax is returned even when the tolerance
    was not met; an immediate indefinite direction falls back to the
    projected preconditioned residual so the outer iteration always
    receives a usable expansion vector.
    """
    residual = np.asarray(residual, dtype=np.float64)
    out = pcg_solve(a, f, -residual, tol, itmax, deflation=q, counter=counter,
                    shift=theta)
    s = out.solution
    if np.linalg.norm(s) == 0.0 and np.linalg.norm(residual) > 0.0:
        rhs = q.project_out(-residual)
        return q.project_out(f.apply(rhs)) if f is not None else rhs
    return s
