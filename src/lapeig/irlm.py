"""Smallest eigenpairs by Lanczos on the inverse operator.

Each Lanczos step applies A^{-1} through a deflated PCG solve, so the
wanted eigenvalues (smallest positive of A) become the dominant ones of
the projected matrix.  When the basis reaches ncv a thick restart keeps
the best neig + 1 Ritz vectors and the trailing residual direction; the
projected matrix then carries an arrowhead head block plus a fresh
tridiagonal tail.
"""

import time

import numpy as np

from .kernels import (GramSchmidtBreakdown, dense_sym_eig, mgs_orthonormalize,
                      orthonormal_columns)
from .pcg import DeflationBasis, pcg_solve
from .results import SolverError, fresh_accept, solver_result, solver_setup
from .sparse import spmv

_BREAKDOWN_ABS = 1e-12

# subspace sizes paired with eigenpair counts, interpolated in between
_NCV_ANCHORS = ((1, 15), (5, 30), (20, 60), (50, 120))


def ncv_for(neig):
    """Default ncv for a given number of wanted pairs."""
    if neig < 1:
        raise ValueError("neig must be at least 1")
    if neig <= _NCV_ANCHORS[0][0]:
        return _NCV_ANCHORS[0][1]
    for (x0, y0), (x1, y1) in zip(_NCV_ANCHORS, _NCV_ANCHORS[1:]):
        if neig <= x1:
            return int(round(y0 + (y1 - y0) * (neig - x0) / (x1 - x0)))
    x1, y1 = _NCV_ANCHORS[-1]
    return y1 + 2 * (neig - x1)


class LanczosState:
    """Basis and projected matrix of the inverse-operator Lanczos process.

    The basis is a DeflationBasis with room for ncv + 1 columns, grown
    in place by push, so every orthogonalization is a block step on one
    contiguous slice.  It always holds one more column than the
    projected matrix covers: the trailing column is the normalized
    residual waiting to be expanded (absent right after a breakdown).
    After a thick restart the projected matrix is
    arrowhead-plus-tridiagonal: retained Ritz values on the head
    diagonal, a coupling vector between the head and the first tail
    column, then the usual alpha/beta tail.
    """

    def __init__(self, v1, ncv):
        v1 = np.asarray(v1, dtype=np.float64)
        self.ncv = int(ncv)
        self.basis = DeflationBasis(v1.reshape(-1, 1), self.ncv + 1)
        self.head_vals = np.zeros(0)
        self.head_coupling = np.zeros(0)
        self.alpha = []
        self.beta = []
        self.breakdown = False
        self.last_inner_its = 0

    @property
    def m(self):
        """Dimension of the completed projected matrix."""
        return self.head_vals.shape[0] + len(self.alpha)

    @property
    def has_pending(self):
        return self.basis.k == self.m + 1

    def projected_matrix(self):
        k = self.head_vals.shape[0]
        t = len(self.alpha)
        h = np.diag(np.concatenate((self.head_vals, self.alpha)))
        if k and t:
            h[:k, k] = self.head_coupling
            h[k, :k] = self.head_coupling
        tail = np.arange(k, k + t - 1)
        h[tail, tail + 1] = self.beta[: tail.shape[0]]
        h[tail + 1, tail] = self.beta[: tail.shape[0]]
        return h


def inverse_lanczos_step(state, a, f, delta_pcg, null_basis, counter=None,
                         maxit_inner=5000):
    """Expand the pending basis vector by one inverse-operator application.

    Solves A w = v by deflated PCG, records the new diagonal entry
    w'v, runs the three-term recurrence followed by full two-pass
    reorthogonalization, and either appends the normalized remainder or
    flags breakdown when its norm drops below 1e-12 of the solution
    scale.
    """
    if not state.has_pending:
        raise SolverError("no pending vector to expand (breakdown not handled)")
    vmat = state.basis.columns
    v = vmat[:, -1]

    def op(x, c):
        return spmv(a, x, c)

    out = pcg_solve(op, f, v, delta_pcg, maxit_inner,
                    deflation=null_basis, counter=counter)
    state.last_inner_its = out.iterations
    if not out.converged:
        raise SolverError(
            f"inner PCG stalled at relative residual {out.final_relres:.3e} "
            f"after {out.iterations} iterations (target {delta_pcg:.1e})"
        )
    w = out.solution
    scale = max(1.0, float(np.linalg.norm(w)))
    alpha_j = float(w @ v)
    w = w - alpha_j * v
    k = state.head_vals.shape[0]
    if state.alpha:
        w -= state.beta[-1] * vmat[:, -2]
    elif k:
        w -= vmat[:, :k] @ state.head_coupling
    # full reorthogonalization, two block sweeps over kernel and basis
    for _ in range(2):
        w = state.basis.project_out(null_basis.project_out(w))
    b = float(np.linalg.norm(w))
    state.alpha.append(alpha_j)
    if b < _BREAKDOWN_ABS * scale:
        state.breakdown = True
    else:
        state.beta.append(b)
        state.basis.push(w / b)
    return state


def _sorted_ritz(state):
    """Ritz data ordered by decreasing inverse-operator value."""
    h = state.projected_matrix()
    mu, y = dense_sym_eig(h)
    order = np.argsort(mu, kind="stable")[::-1]
    return mu[order], y[:, order]


def _check_convergence(state, ritz, a, neig, delta, counter):
    """Verify the leading Ritz pairs of ritz = _sorted_ritz(state).

    Returns ((values, vectors, residuals) or None, verify_mvps); every
    pair must pass the fresh-product acceptance test.
    """
    if state.m < neig:
        return None, 0
    _, y = ritz
    vmat = state.basis.columns[:, : state.m]
    thetas, vecs, resids = [], [], []
    for i in range(neig):
        u = vmat @ y[:, i]
        u /= np.linalg.norm(u)
        ok, theta, relres, _ = fresh_accept(a, u, delta, counter)
        if not ok:
            return None, i + 1
        thetas.append(theta)
        vecs.append(u)
        resids.append(relres)
    return (thetas, vecs, resids), neig


def _thick_restart(state, ritz, neig, null_basis):
    """Contract the basis to the best neig + 1 Ritz vectors plus residual.

    ritz is _sorted_ritz(state).
    """
    m = state.m
    keep = min(neig + 1, m - 1)
    mu, y = ritz
    basis = state.basis
    heads = null_basis.project_out(basis.columns[:, :m] @ y[:, :keep])
    basis.buffer[:, :keep] = orthonormal_columns(heads)
    basis.k = keep
    residual = basis.project_out(null_basis.project_out(basis.buffer[:, m]))
    basis.push(residual / np.linalg.norm(residual))
    state.head_vals = mu[:keep].copy()
    state.head_coupling = state.beta[-1] * y[m - 1, :keep]
    state.alpha = []
    state.beta = []
    return state


def _insert_random(state, null_basis, rng):
    """Replace a vanished residual direction with a random orthogonal one."""
    for _ in range(3):
        cand = null_basis.project_out(rng.standard_normal(state.basis.n))
        try:
            v, _ = mgs_orthonormalize(cand, state.basis.columns)
        except GramSchmidtBreakdown:
            continue
        state.beta.append(0.0)
        state.basis.push(v)
        state.breakdown = False
        return True
    return False


def irlm_smallest(a, neig, ncv=None, delta=1e-6, delta_pcg=None, f=None,
                  null_basis=None, *, seed=0, maxit_inner=5000,
                  max_restarts=200, counter=None, v0=None):
    """neig smallest strictly positive eigenpairs of a, values ascending.

    Inner solves run at tolerance delta_pcg (default delta / 100).
    Acceptance requires every pair to satisfy
    ||A u - theta u|| / theta <= delta with freshly computed products.
    """
    t0 = time.perf_counter()
    counter, null_basis, f = solver_setup(a, neig, counter, null_basis, f, 0)
    if delta_pcg is None:
        delta_pcg = 1e-2 * delta
    ncv_eff = ncv_for(neig) if ncv is None else int(ncv)
    ncv_eff = min(max(ncv_eff, neig + 2), a.n - null_basis.k)
    rng = np.random.default_rng(seed)

    if v0 is not None:
        start = np.asarray(v0, dtype=np.float64)
    else:
        start = rng.standard_normal(a.n)
    v1, _ = mgs_orthonormalize(start, null_basis.columns)
    state = LanczosState(v1, ncv_eff)

    solves = 0
    inner_total = 0
    verify_total = 0
    restarts = 0
    for _cycle in range(max_restarts + 1):
        while state.m < ncv_eff and not state.breakdown:
            inverse_lanczos_step(state, a, f, delta_pcg, null_basis,
                                 counter=counter, maxit_inner=maxit_inner)
            solves += 1
            inner_total += state.last_inner_its
        # a vanished residual can hide extra copies of an eigenvalue,
        # so resume with a random direction before judging convergence
        if state.breakdown and _insert_random(state, null_basis, rng):
            continue
        ritz = _sorted_ritz(state)
        found, used = _check_convergence(state, ritz, a, neig, delta, counter)
        verify_total += used
        if found is not None:
            break
        if state.breakdown:
            raise SolverError(
                f"subspace exhausted at dimension {state.m} before "
                f"{neig} pairs reached tolerance {delta:.1e}"
            )
        if _cycle == max_restarts:
            raise SolverError(
                f"no convergence after {max_restarts} restarts "
                f"(subspace {ncv_eff}, delta {delta:.1e})"
            )
        _thick_restart(state, ritz, neig, null_basis)
        restarts += 1

    return solver_result(
        "irlm", delta, counter, t0, *found,
        outer_its=solves, inner_its_total=inner_total,
        mvp_outer=0, mvp_verify=verify_total, restarts=restarts, seed=seed,
        ncv=ncv_eff, delta_pcg=delta_pcg, maxit_inner=maxit_inner)
