"""Shared oracles and fixture graphs for the test suite."""

import numpy as np
import pytest

from lapeig.graphs import build_laplacian
from lapeig.results import EigenPairSet
from lapeig.sparse import CsrMatrix


def dense_positive_pairs(edges, neig=None):
    """Dense-oracle positive eigenpairs of the Laplacian of an edge list.

    Returns (EigenPairSet, CsrMatrix).  Kernel eigenvalues are dropped
    with a 1e-9 cutoff, which is exact for the small fixtures used here.
    """
    l = build_laplacian(edges)
    w, v = np.linalg.eigh(l.toarray())
    keep = w > 1e-9
    w, v = w[keep], v[:, keep]
    if neig is not None:
        w, v = w[:neig], v[:, :neig]
    pairs = EigenPairSet(values=w, vectors=v, residuals=np.zeros(w.size))
    return pairs, l


def random_spd(n, rng, density=0.3):
    """Random sparse-ish SPD matrix as a dense array (test oracle input)."""
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) > density] = 0.0
    a = a @ a.T
    return a + n * np.eye(n)


def negated_laplacian(edges):
    """-L: symmetric, with the Laplacian's kernel and every other value negative."""
    l = build_laplacian(edges)
    return CsrMatrix(l.n, l.row_ptr, l.col_idx, -l.values, symmetric=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
