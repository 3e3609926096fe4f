"""The frame shared by the three eigensolvers.

Result containers, plus the three steps every solver runs the same
way: the set-up (argument checks, then the defaults), the acceptance
test of a candidate pair with one fresh product, and the assembly of
the sorted pairs and the report.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .ic0 import ic0_factorize
from .pcg import DeflationBasis, kernel_basis
from .sparse import MvpCounter, spmv


class SolverError(RuntimeError):
    """An eigensolver could not reach the requested accuracy."""


@dataclass
class EigenPairSet:
    """Converged eigenpairs, values ascending.

    vectors holds one orthonormal column per value.  residuals are the
    relative residuals ||A u - theta u|| / theta measured with a fresh
    product at acceptance time.  When includes_kernel is set the first
    column is the constant vector with value 0.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    includes_kernel: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.residuals = np.asarray(self.residuals, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.values.shape[0]:
            raise ValueError("vectors must have one column per value")
        if self.residuals.shape != self.values.shape:
            raise ValueError("residuals must align with values")

    def __len__(self):
        return int(self.values.shape[0])

    def positive(self):
        """(values, vectors, residuals) with any kernel column dropped."""
        if self.includes_kernel:
            return self.values[1:], self.vectors[:, 1:], self.residuals[1:]
        return self.values, self.vectors, self.residuals

    def with_kernel(self):
        """Copy with the normalized constant vector prepended."""
        if self.includes_kernel:
            return self
        n = self.vectors.shape[0]
        e = np.full((n, 1), 1.0 / np.sqrt(n))
        return EigenPairSet(
            values=np.concatenate(([0.0], self.values)),
            vectors=np.hstack([e, self.vectors]),
            residuals=np.concatenate(([0.0], self.residuals)),
            includes_kernel=True,
        )

    def gram_defect(self):
        v = self.vectors
        return float(np.abs(v.T @ v - np.eye(v.shape[1])).max()) if v.size else 0.0

    def kernel_overlap(self):
        """max_j |u_j' e| / sqrt(n) over the positive pairs."""
        _, vecs, _ = self.positive()
        if not vecs.size:
            return 0.0
        n = vecs.shape[0]
        return float(np.abs(vecs.sum(axis=0)).max() / np.sqrt(n))


@dataclass
class SolverReport:
    """Cost and convergence accounting for one solver run.

    Every solver's config holds the ledger keys mvp_outer (products
    outside the inner iterations: JD's expansions, DACG's start
    products, none for IRLM), mvp_verify (fresh acceptance products),
    restarts and seed, next to its own settings.  The ledger accounts
    for every product: mvp == mvp_outer + inner_its_total + mvp_verify.
    """

    solver: str
    neig: int
    delta: float
    mvp: int
    outer_its: int
    inner_its_total: int
    wall_seconds: float
    converged: bool
    per_pair_residuals: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def solver_setup(a, neig, counter, null_basis, f, room):
    """Check the arguments, then default the counter, kernel basis and factor.

    null_basis must have a.n rows and neig must lie in [1, a.n -
    null_basis.k], both checked before the costly IC(0) default.  Returns
    (counter, guard, f); guard copies null_basis with room for room more
    columns, so growing it never touches the caller's basis.
    """
    if null_basis is None:
        null_basis = kernel_basis(a.n)
    if null_basis.n != a.n:
        raise ValueError(f"null_basis has {null_basis.n} rows but the matrix "
                         f"has {a.n}")
    if neig < 1:
        raise ValueError("neig must be at least 1")
    usable = a.n - null_basis.k
    if neig > usable:
        raise ValueError(f"asked for {neig} pairs but only {usable} exist "
                         "outside the kernel")
    if counter is None:
        counter = MvpCounter()
    if f is None:
        f = ic0_factorize(a)
    guard = DeflationBasis(null_basis.columns, null_basis.k + room)
    return counter, guard, f


def fresh_accept(a, u, delta, counter):
    """Judge the unit candidate u with one fresh product w = A u.

    Returns (accepted, theta, relres, w) with theta = u'w and relres =
    ||w - theta u|| / theta, or inf when theta <= 0; u is accepted when
    theta > 0 and relres <= delta.
    """
    w = spmv(a, u, counter)
    theta = float(u @ w)
    res = float(np.linalg.norm(w - theta * u))
    relres = res / theta if theta > 0 else np.inf
    return relres <= delta, theta, relres, w


def solver_result(solver, delta, counter, t0, vals, vecs, resids, *,
                  outer_its, inner_its_total, mvp_outer, mvp_verify,
                  restarts, seed, **settings):
    """Sort the accepted pairs into an EigenPairSet and report the run.

    vals, vecs and resids list the accepted pairs in any order, one
    unit vector per value; t0 is the run's perf_counter start.  The
    config holds the ledger keys, then the solver's own settings.
    """
    order = np.argsort(vals, kind="stable")
    pairs = EigenPairSet(np.asarray(vals)[order],
                         np.column_stack(vecs)[:, order],
                         np.asarray(resids)[order])
    report = SolverReport(
        solver=solver,
        neig=len(pairs),
        delta=delta,
        mvp=counter.count,
        outer_its=outer_its,
        inner_its_total=inner_its_total,
        wall_seconds=time.perf_counter() - t0,
        converged=True,
        per_pair_residuals=pairs.residuals.tolist(),
        eigenvalues=pairs.values.tolist(),
        config=dict(mvp_outer=mvp_outer, mvp_verify=mvp_verify,
                    restarts=restarts, seed=seed, **settings),
    )
    return pairs, report


def rayleigh_residuals(a, vectors, counter=None):
    """Rayleigh quotients and relative residuals, one fresh product per column."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors.reshape(-1, 1)
    thetas = np.zeros(vectors.shape[1])
    resids = np.zeros(vectors.shape[1])
    for k in range(vectors.shape[1]):
        u = vectors[:, k]
        w = spmv(a, u, counter)
        nrm2 = float(u @ u)
        theta = float(u @ w) / nrm2
        denom = abs(theta) if theta != 0 else 1.0
        resids[k] = float(np.linalg.norm(w - theta * u)) / (np.sqrt(nrm2) * denom)
        thetas[k] = theta
    return thetas, resids
