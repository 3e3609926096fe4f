"""The frame shared by the three eigensolvers.

Result containers, plus the steps every solver runs the same way:
the settings check (check_settings, which run_graph also runs before
any set-up), the set-up (that check, then the defaults), the start
vector off the guard, the acceptance of a candidate pair, which judges
it with one fresh product and locks it when it passes (its vector kept
once, in the guard), and the assembly of the sorted pairs and the report.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ic0 import ic0_factorize
from .kernels import DENSE_EIG_MAX_DIM, GramSchmidtBreakdown, _norm, mgs_orthonormalize
from .pcg import DeflationBasis, kernel_basis
from .sparse import MvpCounter, spmv


class SolverError(RuntimeError):
    """An eigensolver could not reach the requested accuracy."""


@dataclass
class EigenPairSet:
    """Converged eigenpairs, values ascending.

    vectors holds one orthonormal column per value.  residuals are the
    relative residuals ||A u - theta u|| / theta measured with a fresh
    product at acceptance time.  The solvers store only strictly
    positive pairs, never the kernel.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

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
        """(values, vectors, residuals), the positive pairs."""
        return self.values, self.vectors, self.residuals

    def gram_defect(self):
        v = self.vectors
        return float(np.abs(v.T @ v - np.eye(v.shape[1])).max()) if v.size else 0.0

    def kernel_overlap(self):
        """max_j |u_j' e| / sqrt(n) over the positive pairs."""
        v = self.vectors
        return float(np.abs(v.sum(axis=0)).max() / np.sqrt(v.shape[0])) if v.size else 0.0


@dataclass
class SolverReport:
    """Cost and convergence accounting for one solver run.

    The cost fields come from the run's MvpCounter tallies (see run_report),
    so mvp == mvp_outer + inner_its_total + mvp_verify by construction;
    config holds mvp_outer, mvp_verify, restarts and seed, then the
    solver's own settings, then what the run found.
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


def check_settings(n, neig, delta=None, delta_pcg=None, itmax_inner=None, m_min=None,
                   m_max=None, seed=None, **settings):
    """Refuse settings no run on an n-node matrix could use.

    neig must be at least 1.  Of the settings that are set, delta and
    delta_pcg must be finite and positive, itmax_inner and an integer seed
    nonnegative, and JD's restart bounds 0 < m_min < m_max <= DENSE_EIG_MAX_DIM;
    IRLM's, the ones with an ncv key, need a basis of neig + 2 columns, or n,
    within that cap.  Any other setting passes.
    """
    if neig < 1:
        raise ValueError("neig must be at least 1")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    for name, tol in (("delta", delta), ("delta_pcg", delta_pcg)):
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"{name} must be finite and positive, not {tol}")
    if itmax_inner is not None and itmax_inner < 0:
        raise ValueError(f"itmax_inner must be nonnegative, not {itmax_inner}")
    if m_max is not None and not 0 < m_min < m_max:
        raise ValueError("need 0 < m_min < m_max")
    if m_max is not None and m_max > DENSE_EIG_MAX_DIM:
        raise ValueError(f"m_max {m_max} exceeds the dense cap {DENSE_EIG_MAX_DIM}")
    if "ncv" in settings and min(neig + 2, n) > DENSE_EIG_MAX_DIM:
        raise ValueError(f"neig {neig} needs a basis of {neig + 2}, above the "
                         f"dense solver cap {DENSE_EIG_MAX_DIM}")


def solver_setup(a, neig, counter, null_basis, f, room, *, delta, seed, **settings):
    """Check the arguments, open the run, then default the factor and guard.

    null_basis must have a.n rows and at most a.n - null_basis.k pairs
    are asked for; then check_settings runs, all before the counter is
    touched and the costly IC(0) default.  Returns (counter, guard, f);
    guard copies null_basis with room for room more columns, so growing
    it never touches the caller's basis.  The run opens before the
    default factor, so its clock includes it, and the counter keeps the
    seed and the solver's effective settings for run_report.
    """
    if null_basis is None:
        null_basis = kernel_basis(a.n)
    if null_basis.n != a.n:
        raise ValueError(f"null_basis has {null_basis.n} rows but the matrix "
                         f"has {a.n}")
    usable = a.n - null_basis.k
    if neig > usable:
        raise ValueError(f"asked for {neig} pairs but only {usable} exist "
                         "outside the kernel")
    check_settings(a.n, neig, delta, seed=seed, **settings)
    if counter is None:
        counter = MvpCounter()
    counter.open_run(seed=seed, **settings)
    if f is None:
        f = ic0_factorize(a)
    return counter, DeflationBasis(null_basis.columns, null_basis.k + room), f


def start_vector(rng, guard, pair, v0=None):
    """v0, or else a normal draw, orthonormalized against guard; SolverError in its span."""
    v = rng.standard_normal(guard.n) if v0 is None else v0
    try:
        return mgs_orthonormalize(v, guard)[0]
    except GramSchmidtBreakdown as exc:
        raise SolverError(f"pair {pair}: start vector lies in the deflated subspace") from exc


def fresh_accept(a, u, delta, counter):
    """Judge the unit candidate u with one fresh verify product w = A u.

    Returns (accepted, theta, relres, w) with theta = u'w and relres =
    ||w - theta u|| / theta, or inf when theta <= 0; u is accepted when
    theta > 0 and relres <= delta.
    """
    w = spmv(a, u, counter, "verify")
    theta = float(u @ w)
    res = _norm(w - theta * u)
    relres = res / theta if theta > 0 else np.inf
    return relres <= delta, theta, relres, w


def accept_candidate(a, x, guard, delta, counter, basis=None):
    """(accepted, u, theta, relres, w): fresh_accept on u, x orthonormalized against
    basis (default guard).  The only lock: an accepted u joins guard and
    (theta, relres) counter.locked."""
    u, _ = mgs_orthonormalize(x, guard if basis is None else basis)
    ok, theta, relres, w = fresh_accept(a, u, delta, counter)
    if ok:
        guard.push(u)
        counter.locked.append((theta, relres))
    return ok, u, theta, relres, w


def run_report(solver, neig, delta, counter, pairs=None, **found):
    """The report of the run open on counter, converged when pairs is given.

    Cost and wall_seconds count from the run's entry; the config holds
    mvp_outer, mvp_verify and restarts, the settings the run opened
    with, then found (DACG's iterations per pair, a failed run's error).
    """
    outer, inner, verify, solves, restarts = (
        t - m for t, m in zip(counter.tallies(), counter.marks))
    done = pairs is not None
    return SolverReport(
        solver=solver, neig=neig, delta=delta, mvp=outer + inner + verify,
        outer_its=solves, inner_its_total=inner,
        wall_seconds=time.perf_counter() - counter.started, converged=done,
        per_pair_residuals=pairs.residuals.tolist() if done else [],
        eigenvalues=pairs.values.tolist() if done else [],
        config=dict(mvp_outer=outer, mvp_verify=verify, restarts=restarts,
                    **counter.settings, **found))


def solver_result(solver, delta, counter, guard, **found):
    """Sort the run's locked pairs into an EigenPairSet and report the run.

    The vectors are guard's last columns, one per entry of counter.locked;
    they are copied once, sorted.  found goes to run_report.
    """
    vals, resids = np.array(counter.locked).T
    order = np.argsort(vals, kind="stable")
    pairs = EigenPairSet(vals[order], guard.buffer[:, guard.k - order.size + order],
                         resids[order])
    return pairs, run_report(solver, len(pairs), delta, counter, pairs, **found)


def rayleigh_residuals(a, vectors, counter=None):
    """fresh_accept's theta and relres (inf where theta <= 0) per normalized column."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors.reshape(-1, 1)
    thetas = np.zeros(vectors.shape[1])
    resids = np.zeros(vectors.shape[1])
    for k, u in enumerate(vectors.T):
        u = u / _norm(u)
        _, thetas[k], resids[k], _ = fresh_accept(a, u, np.inf, counter)
    return thetas, resids
