"""Small dense kernels shared by the sparse eigensolvers.

Contains block Gram-Schmidt with conditional reorthogonalization and
the symmetric eigensolvers for projected matrices: LAPACK through
numpy.linalg.eigh for dense ones and scipy.linalg.eigh_tridiagonal for
tridiagonal ones.  The dense solver is only ever applied to projected
matrices of modest size, so the dimension is capped.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

_REORTH_FACTOR = 0.7
_BREAKDOWN_REL = 1e-14
DENSE_EIG_MAX_DIM = 512


class GramSchmidtBreakdown(RuntimeError):
    """The candidate vector lies numerically inside the basis span."""


def mgs_orthonormalize(v, basis):
    """Orthonormalize v against the orthonormal columns of basis.

    One block Gram-Schmidt sweep v - B (B' v) over the whole basis,
    repeated once more when the first sweep shrank the vector by more
    than the classical 0.7 factor (two sweeps are enough).  Returns
    (unit vector, norm before normalization).  Raises
    GramSchmidtBreakdown when the remainder falls below 1e-14 of the
    input norm.
    """
    v = np.array(v, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1)
    if basis.size and basis.shape[0] != v.shape[0]:
        raise ValueError("basis rows must match vector length")
    norm_in = np.linalg.norm(v)
    if norm_in == 0.0:
        raise GramSchmidtBreakdown("zero vector cannot be orthonormalized")
    before = norm_in
    for _ in range(2 if basis.size else 0):
        v -= basis @ (basis.T @ v)
        after = np.linalg.norm(v)
        if after >= _REORTH_FACTOR * before:
            break
        before = after
    norm_out = np.linalg.norm(v)
    if norm_out < _BREAKDOWN_REL * norm_in:
        raise GramSchmidtBreakdown(
            f"vector collapsed to {norm_out:.3e} of its input norm {norm_in:.3e}"
        )
    return v / norm_out, norm_out


def orthonormal_columns(x):
    """Thin-QR basis of x's columns, each signed to match its source column."""
    q, r = np.linalg.qr(x)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def tridiag_eig(alpha, beta):
    """Eigendecomposition of a symmetric tridiagonal matrix.

    alpha has length m, beta length m - 1 with beta[i] coupling
    alpha[i] and alpha[i+1].  Returns (values ascending, vectors with
    matching columns).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = alpha.shape[0]
    if m == 0:
        raise ValueError("empty tridiagonal")
    if beta.shape[0] != m - 1:
        raise ValueError("beta must be one entry shorter than alpha")
    return eigh_tridiagonal(alpha, beta)


def dense_sym_eig(h, max_dim=DENSE_EIG_MAX_DIM):
    """All eigenpairs of a dense symmetric matrix, values ascending.

    Input must be symmetric to 1e-12 relative and no larger than
    max_dim on a side.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    n = h.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n > max_dim:
        raise ValueError(f"dimension {n} exceeds dense solver cap {max_dim}")
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    return np.linalg.eigh(0.5 * (h + h.T))
