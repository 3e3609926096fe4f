"""Jacobi-Davidson with sequential deflation.

Each outer iteration enlarges a search space by one vector, extracts
the smallest Ritz pair of the projected matrix, and asks a projected
shifted PCG solve (the correction equation) for the next expansion
direction.  Converged eigenvectors are locked into the projector used
by later pairs.
"""

import time

import numpy as np

from .kernels import (GramSchmidtBreakdown, dense_sym_eig, mgs_orthonormalize,
                      orthonormal_columns)
from .pcg import jd_correction_solve
from .results import SolverError, fresh_accept, solver_result, solver_setup
from .sparse import spmv


class JdWorkspace:
    """Search basis V, its image W = A V and projected matrix H = V'AV."""

    def __init__(self, n, m_min, m_max):
        if not 0 < m_min < m_max:
            raise ValueError("need 0 < m_min < m_max")
        self.m_min = int(m_min)
        self.m_max = int(m_max)
        self.v = np.zeros((n, 0))
        self.w = np.zeros((n, 0))
        self.h = np.zeros((0, 0))
        self.theta = None
        self.u = None

    @property
    def m(self):
        return self.v.shape[1]

    def append(self, v_new, w_new):
        """Grow the basis by an orthonormal column and its image.

        The projected matrix gains the matching bordered row/column and
        is symmetrized, since the row and column estimates differ only
        by roundoff.
        """
        col = self.v.T @ w_new
        row = v_new @ self.w
        diag = float(v_new @ w_new)
        m = self.m
        h = np.zeros((m + 1, m + 1))
        h[:m, :m] = self.h
        h[:m, m] = col
        h[m, :m] = row
        h[m, m] = diag
        self.h = 0.5 * (h + h.T)
        self.v = np.hstack([self.v, v_new.reshape(-1, 1)])
        self.w = np.hstack([self.w, w_new.reshape(-1, 1)])


def rayleigh_ritz_extract(workspace, ritz):
    """Smallest Ritz pair of the current search space.

    ritz is dense_sym_eig(workspace.h).  Returns (theta, u, r) with u
    the unit Ritz vector and r = A u - theta u assembled from the
    stored image basis, so no product with A is spent.
    """
    vals, vecs = ritz
    y = vecs[:, 0]
    theta = float(vals[0])
    u = workspace.v @ y
    nrm = float(np.linalg.norm(u))
    u /= nrm
    r = workspace.w @ y / nrm - theta * u
    workspace.theta = theta
    workspace.u = u
    return theta, u, r


def keep_ritz(workspace, ritz, cols):
    """Rebuild V, W and H from the Ritz vectors in the slice cols.

    ritz is dense_sym_eig(workspace.h).  The kept Ritz vectors keep W =
    A V exact and make H diagonal, so no products with A are needed.
    """
    vals, vecs = ritz
    workspace.v = workspace.v @ vecs[:, cols]
    workspace.w = workspace.w @ vecs[:, cols]
    workspace.h = np.diag(vals[cols])


def jd_restart(workspace, ritz):
    """Contract the basis to the m_min best Ritz vectors of ritz."""
    if workspace.m <= workspace.m_min:
        raise SolverError("restart called below the retention size")
    keep_ritz(workspace, ritz, slice(0, workspace.m_min))
    # polish orthonormality lost to roundoff
    workspace.v = orthonormal_columns(workspace.v)
    return workspace


def jd_smallest(a, neig, delta=1e-6, delta_pcg=1e-2, itmax_inner=20,
                m_min=5, m_max=10, f=None, null_basis=None, *, seed=0,
                max_outer_per_pair=300, stagnation_window=60,
                counter=None, v0=None):
    """neig smallest strictly positive eigenpairs of a by Jacobi-Davidson.

    The outer iteration for a pair stops once ||r|| < delta * theta;
    the pair is locked when a fresh product confirms
    ||A u - theta u|| / theta <= delta.
    The correction equation runs at fixed relative tolerance delta_pcg
    with at most itmax_inner PCG iterations, preconditioned by f
    projected onto the complement of kernel, locked pairs and the
    current Ritz vector.
    """
    t0 = time.perf_counter()
    counter, null_basis, f = solver_setup(a, neig, counter, null_basis, f)
    rng = np.random.default_rng(seed)

    guard = null_basis
    locked_vals = []
    locked_vecs = []
    locked_res = []
    outer_solves = 0
    inner_total = 0
    outer_mvps = 0
    verify_mvps = 0
    restarts = 0

    workspace = JdWorkspace(a.n, m_min, m_max)
    cand = np.asarray(v0, dtype=np.float64) if v0 is not None \
        else rng.standard_normal(a.n)
    best_res = np.inf
    since_best = 0
    outer_here = 0
    while len(locked_vals) < neig:
        pair_idx = len(locked_vals)
        outer_here += 1
        if outer_here > max_outer_per_pair:
            raise SolverError(
                f"pair {pair_idx}: no convergence within "
                f"{max_outer_per_pair} outer iterations "
                f"(best residual {best_res:.3e})"
            )
        # once guard and search space saturate the whole space there is
        # no room left for unseen eigenvalue copies; extract directly
        saturated = guard.k + workspace.m >= a.n
        if not saturated:
            block = np.hstack([guard.columns, workspace.v])
            try:
                v_new, _ = mgs_orthonormalize(cand, block)
            except GramSchmidtBreakdown:
                cand = rng.standard_normal(a.n)
                try:
                    v_new, _ = mgs_orthonormalize(cand, block)
                except GramSchmidtBreakdown as exc:
                    raise SolverError(
                        f"pair {pair_idx}: search space saturated the "
                        "complement without meeting the tolerance"
                    ) from exc
            w_new = spmv(a, v_new, counter)
            outer_mvps += 1
            workspace.append(v_new, w_new)
        ritz = dense_sym_eig(workspace.h)
        theta, u, r = rayleigh_ritz_extract(workspace, ritz)
        if theta <= 0:
            # projected matrix contaminated by kernel leakage
            raise SolverError(f"pair {pair_idx}: nonpositive Ritz value {theta}")
        res = float(np.linalg.norm(r))
        if res < best_res * (1 - 1e-3):
            best_res = res
            since_best = 0
        else:
            since_best += 1
        if res < delta * theta:
            u_fix, _ = mgs_orthonormalize(u, guard.columns)
            ok, theta_fix, relres, _ = fresh_accept(a, u_fix, delta, counter)
            verify_mvps += 1
            if ok:
                locked_vals.append(theta_fix)
                locked_vecs.append(u_fix)
                locked_res.append(relres)
                guard = guard.appended(u_fix)
                best_res = np.inf
                since_best = 0
                outer_here = 0
                # carry the remaining Ritz directions over to the next pair;
                # they are orthogonal to the locked vector to roundoff and
                # keep W = A V exact, costing no products.  The next
                # expansion is random so a repeated eigenvalue whose second
                # copy lies outside the carried span still gets seen.
                keep_ritz(workspace, ritz, slice(1, None))
                cand = rng.standard_normal(a.n)
                continue
        if saturated:
            raise SolverError(
                f"pair {pair_idx}: exhausted the whole space at residual "
                f"{res:.3e} (target {delta * theta:.3e})"
            )
        if since_best > stagnation_window:
            raise SolverError(
                f"pair {pair_idx}: stagnated for {since_best} outer "
                f"iterations at residual {best_res:.3e} "
                f"(target {delta * theta:.3e})"
            )
        if workspace.m == m_max:
            jd_restart(workspace, ritz)
            restarts += 1
        q = guard.appended(workspace.u / np.linalg.norm(workspace.u))
        before = counter.count
        cand = jd_correction_solve(a, theta, q, r, f, delta_pcg,
                                   itmax_inner, counter)
        outer_solves += 1
        inner_total += counter.count - before

    return solver_result(
        "jd", delta, counter, t0, locked_vals, locked_vecs, locked_res,
        outer_its=outer_solves, inner_its_total=inner_total,
        mvp_outer=outer_mvps, mvp_verify=verify_mvps, restarts=restarts,
        seed=seed, delta_pcg=delta_pcg, itmax_inner=itmax_inner,
        m_min=m_min, m_max=m_max)
