"""Smallest eigenpairs by Lanczos on the inverse operator.

Each Lanczos step applies A^{-1} through a deflated PCG solve, so the
wanted eigenvalues (smallest positive of A) become the dominant ones of
the projected matrix.  When the basis reaches ncv a thick restart keeps
the best neig + 1 Ritz vectors and the trailing residual direction; the
projected matrix then carries an arrowhead head block plus a fresh
tridiagonal tail.  That matrix is kept dense, as one symmetric array
filled in place, as in Wu and Simon's thick-restart Lanczos and
Stewart's Krylov-Schur form.
"""

import numpy as np

from .kernels import (DENSE_EIG_MAX_DIM, GramSchmidtBreakdown, dense_sym_eig,
                      mgs_orthonormalize, orthonormal_columns)
from .pcg import DeflationBasis, pcg_solve
from .results import SolverError, fresh_accept, solver_result, solver_setup

_BREAKDOWN_ABS = 1e-12
# PCG iterations per inverse-operator solve, and thick restarts per run
_MAXIT_INNER = 5000
_MAX_RESTARTS = 200

# subspace sizes paired with eigenpair counts, interpolated in between
# and growing by two per pair past the last one
_NCV_NEIG = (1, 5, 20, 50)
_NCV_SIZE = (15, 30, 60, 120)


def ncv_for(neig):
    """Default ncv for a given number of wanted pairs."""
    if neig < 1:
        raise ValueError("neig must be at least 1")
    return int(round(np.interp(neig, _NCV_NEIG, _NCV_SIZE))) + 2 * max(0, neig - 50)


class LanczosState:
    """Basis and projected matrix of the inverse-operator Lanczos process.

    The basis is a DeflationBasis with room for ncv + 1 columns, grown
    in place by push, so every orthogonalization is a block step on one
    contiguous slice.  It always holds one more column than the
    projected matrix covers: the trailing column is the normalized
    residual waiting to be expanded (absent right after a breakdown).
    h is a column-major (ncv + 1) x (ncv + 1) array filled in place;
    its leading m x m block is the projected matrix and h[m, m - 1]
    couples it to the pending column.  After a thick restart that block
    is arrowhead-plus-tridiagonal: retained Ritz values on the head
    diagonal, a coupling vector between the head and the first tail
    column, then the usual tridiagonal tail.
    """

    def __init__(self, v1, ncv):
        v1 = np.asarray(v1, dtype=np.float64)
        self.basis = DeflationBasis(v1.reshape(-1, 1), ncv + 1)
        self.h = np.zeros((ncv + 1, ncv + 1), order="F")
        self.m = 0
        self.breakdown = False

    @property
    def has_pending(self):
        return self.basis.k == self.m + 1

    def projected_matrix(self):
        """The leading m x m block of h, as a view."""
        return self.h[: self.m, : self.m]


def inverse_lanczos_step(state, a, f, delta_pcg, null_basis, counter=None):
    """Expand the pending basis vector by one inverse-operator application.

    Solves A w = v by deflated PCG, records the new diagonal entry
    w'v, runs the recurrence against the filled column of h followed
    by full two-pass reorthogonalization, and either appends the
    normalized remainder or flags breakdown when its norm drops below
    1e-12 of the solution scale.
    """
    if not state.has_pending:
        raise SolverError("no pending vector to expand (breakdown not handled)")
    m, h = state.m, state.h
    vmat = state.basis.columns
    v = vmat[:, m]
    out = pcg_solve(a, f, v, delta_pcg, _MAXIT_INNER,
                    deflation=null_basis, counter=counter)
    if not out.converged:
        raise SolverError(
            f"inner PCG stalled at relative residual {out.final_relres:.3e} "
            f"after {out.iterations} iterations (target {delta_pcg:.1e})"
        )
    w = out.solution
    scale = max(1.0, float(np.linalg.norm(w)))
    h[m, m] = w @ v
    w = w - h[m, m] * v
    # column m holds the previous beta, or the head coupling after a restart
    w -= vmat[:, :m] @ h[:m, m]
    # full reorthogonalization, two block sweeps over kernel and basis
    for _ in range(2):
        w = state.basis.project_out(null_basis.project_out(w))
    b = float(np.linalg.norm(w))
    state.m = m + 1
    if b < _BREAKDOWN_ABS * scale:
        state.breakdown = True
    else:
        h[m, m + 1] = h[m + 1, m] = b
        state.basis.push(w / b)


def _sorted_ritz(state):
    """Ritz data ordered by decreasing inverse-operator value."""
    h = state.projected_matrix()
    mu, y = dense_sym_eig(h)
    order = np.argsort(mu, kind="stable")[::-1]
    return mu[order], y[:, order]


def _check_convergence(state, ritz, a, neig, delta, counter):
    """Verify the leading Ritz pairs of ritz = _sorted_ritz(state).

    Returns (values, vectors, residuals), or None unless every pair
    passes the fresh-product acceptance test.
    """
    if state.m < neig:
        return None
    _, y = ritz
    vmat = state.basis.columns[:, : state.m]
    thetas, vecs, resids = [], [], []
    for i in range(neig):
        u = vmat @ y[:, i]
        u /= np.linalg.norm(u)
        ok, theta, relres, _ = fresh_accept(a, u, delta, counter)
        if not ok:
            return None
        thetas.append(theta)
        vecs.append(u)
        resids.append(relres)
    return thetas, vecs, resids


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
    h = state.h
    coupling = h[m, m - 1] * y[m - 1, :keep]
    h.fill(0.0)
    h[range(keep), range(keep)] = mu[:keep]
    h[:keep, keep] = h[keep, :keep] = coupling
    state.m = keep
    return state


def _insert_random(state, null_basis, rng):
    """Replace a vanished residual direction with a random orthogonal one."""
    for _ in range(3):
        cand = null_basis.project_out(rng.standard_normal(state.basis.n))
        try:
            v, _ = mgs_orthonormalize(cand, state.basis)
        except GramSchmidtBreakdown:
            continue
        state.basis.push(v)
        state.breakdown = False
        return True
    return False


def irlm_smallest(a, neig, ncv=None, delta=1e-6, delta_pcg=None, f=None,
                  null_basis=None, *, seed=0, counter=None, v0=None):
    """neig smallest strictly positive eigenpairs of a, values ascending.

    Inner solves run at tolerance delta_pcg (default delta / 100).
    The basis is capped at the dense solver's DENSE_EIG_MAX_DIM columns.
    Acceptance requires every pair to satisfy
    ||A u - theta u|| / theta <= delta with freshly computed products.
    """
    # the cap is checked before solver_setup factors IC(0); a neig above
    # usable is left to solver_setup's own message
    usable = a.n - (1 if null_basis is None else null_basis.k)
    if neig <= usable and min(neig + 2, usable) > DENSE_EIG_MAX_DIM:
        raise ValueError(f"neig {neig} needs a basis of {neig + 2}, above the "
                         f"dense solver cap {DENSE_EIG_MAX_DIM}")
    counter, null_basis, f, start = solver_setup(a, neig, counter, null_basis, f, 0)
    if delta_pcg is None:
        delta_pcg = 1e-2 * delta
    ncv_eff = ncv_for(neig) if ncv is None else int(ncv)
    ncv_eff = min(max(ncv_eff, neig + 2), usable, DENSE_EIG_MAX_DIM)
    rng = np.random.default_rng(seed)

    if v0 is None:
        v0 = rng.standard_normal(a.n)
    try:
        v1, _ = mgs_orthonormalize(v0, null_basis)
    except GramSchmidtBreakdown as exc:
        raise SolverError("pair 0: start vector lies in the deflated subspace") from exc
    state = LanczosState(v1, ncv_eff)

    for _cycle in range(_MAX_RESTARTS + 1):
        while state.m < ncv_eff and not state.breakdown:
            inverse_lanczos_step(state, a, f, delta_pcg, null_basis, counter=counter)
        # a vanished residual can hide extra copies of an eigenvalue,
        # so resume with a random direction before judging convergence
        if state.breakdown and _insert_random(state, null_basis, rng):
            continue
        ritz = _sorted_ritz(state)
        found = _check_convergence(state, ritz, a, neig, delta, counter)
        if found is not None:
            break
        if state.breakdown:
            raise SolverError(
                f"subspace exhausted at dimension {state.m} before "
                f"{neig} pairs reached tolerance {delta:.1e}"
            )
        if _cycle == _MAX_RESTARTS:
            raise SolverError(
                f"no convergence after {_MAX_RESTARTS} restarts "
                f"(subspace {ncv_eff}, delta {delta:.1e})"
            )
        _thick_restart(state, ritz, neig, null_basis)
        counter.increment(1, "restarts")

    return solver_result(
        "irlm", delta, counter, start, *found, seed=seed,
        ncv=ncv_eff, delta_pcg=delta_pcg, maxit_inner=_MAXIT_INNER)
