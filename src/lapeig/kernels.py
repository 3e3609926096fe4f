"""Small dense kernels shared by the sparse eigensolvers.

Contains _norm (every vector 2-norm in the package), Gram-Schmidt against a
DeflationBasis with conditional reorthogonalization and the dense symmetric
eigensolver for projected matrices (LAPACK through numpy.linalg.eigh): JD's
Rayleigh-Ritz step and DACG's 2x2 plane.  Its dimension is capped at
DENSE_EIG_MAX_DIM, which bounds JD's search space and IRLM's basis.
"""

import math

import numpy as np

_REORTH_FACTOR = 0.7
_BREAKDOWN_REL = 1e-14
DENSE_EIG_MAX_DIM = 512


class GramSchmidtBreakdown(RuntimeError):
    """The candidate vector lies numerically inside the basis span."""


def _norm(v):
    """np.linalg.norm(v) without its dispatch, its bits on any 1-D float64 v, views too."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def mgs_orthonormalize(v, basis):
    """Orthonormalize v against a DeflationBasis.

    One block sweep basis.project_out(v), repeated once more when the
    first sweep shrank the vector by more than the classical 0.7 factor
    (two sweeps are enough).  Returns (unit vector, norm before
    normalization).  Raises GramSchmidtBreakdown when the remainder
    falls below 1e-14 of the input norm.
    """
    v = np.asarray(v, dtype=np.float64)
    norm_in = norm_out = _norm(v)
    if norm_in == 0.0:
        raise GramSchmidtBreakdown("zero vector cannot be orthonormalized")
    for _ in range(2 if basis.k else 0):
        v = basis.project_out(v)
        before, norm_out = norm_out, _norm(v)
        if norm_out >= _REORTH_FACTOR * before:
            break
    if norm_out < _BREAKDOWN_REL * norm_in:
        raise GramSchmidtBreakdown(
            f"vector collapsed to {norm_out:.3e} of its input norm {norm_in:.3e}"
        )
    return v / norm_out, norm_out


def dense_sym_eig(h):
    """All eigenpairs of a dense symmetric matrix, values ascending.

    Input must be symmetric to 1e-12 relative and no larger than
    DENSE_EIG_MAX_DIM on a side.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    n = h.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n > DENSE_EIG_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds dense solver cap {DENSE_EIG_MAX_DIM}")
    if not (h == h.T).all():  # else 0.5 * (h + h.T) is h bit for bit, short of overflow
        scale = max(1.0, float(np.abs(h).max()))
        if float(np.abs(h - h.T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric to 1e-12 relative")
        h = 0.5 * (h + h.T)
    return np.linalg.eigh(h)
