"""Jacobi-Davidson with sequential deflation.

Each outer iteration enlarges a search space by one vector, extracts
the smallest Ritz pair of the projected matrix, and asks a projected
shifted PCG solve (the correction equation) for the next expansion
direction.  Converged eigenvectors are locked into the projector used
by later pairs.
"""

import time

import numpy as np

from .ic0 import ic0_factorize
from .kernels import (GramSchmidtBreakdown, dense_sym_eig, mgs_orthonormalize,
                      orthonormal_columns)
from .pcg import jd_correction_solve, kernel_basis
from .results import EigenPairSet, SolverError, SolverReport
from .sparse import MvpCounter, spmv


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


def rayleigh_ritz_extract(workspace):
    """Smallest Ritz pair of the current search space.

    Returns (theta, u, r) with u the unit Ritz vector and r = A u -
    theta u assembled from the stored image basis, so no product with A
    is spent.
    """
    vals, vecs = dense_sym_eig(workspace.h)
    y = vecs[:, 0]
    theta = float(vals[0])
    u = workspace.v @ y
    nrm = float(np.linalg.norm(u))
    u /= nrm
    r = workspace.w @ y / nrm - theta * u
    workspace.theta = theta
    workspace.u = u
    return theta, u, r


def jd_restart(workspace):
    """Contract the basis to the m_min best Ritz vectors.

    Ritz vectors of the retained values rebuild V, W and H exactly
    (H becomes diagonal), so no products with A are needed.
    """
    if workspace.m <= workspace.m_min:
        raise SolverError("restart called below the retention size")
    vals, vecs = dense_sym_eig(workspace.h)
    keep = vecs[:, : workspace.m_min]
    workspace.v = workspace.v @ keep
    workspace.w = workspace.w @ keep
    workspace.h = np.diag(vals[: workspace.m_min])
    # polish orthonormality lost to roundoff
    workspace.v = orthonormal_columns(workspace.v)
    return workspace


def jd_smallest(a, neig, delta=1e-6, delta_pcg=1e-2, itmax_inner=20,
                m_min=5, m_max=10, f=None, null_basis=None, *, seed=0,
                max_outer_per_pair=300, stagnation_window=60,
                counter=None, v0=None):
    """neig smallest strictly positive eigenpairs of a by Jacobi-Davidson.

    The outer iteration for a pair stops once ||r|| < delta * theta,
    after which the pair is verified with a fresh product and locked.
    The correction equation runs at fixed relative tolerance delta_pcg
    with at most itmax_inner PCG iterations, preconditioned by f
    projected onto the complement of kernel, locked pairs and the
    current Ritz vector.
    """
    t0 = time.perf_counter()
    if counter is None:
        counter = MvpCounter()
    if null_basis is None:
        null_basis = kernel_basis(a.n)
    if f is None:
        f = ic0_factorize(a)
    if neig < 1:
        raise ValueError("neig must be at least 1")
    usable = a.n - null_basis.k
    if neig > usable:
        raise ValueError(f"asked for {neig} pairs but only {usable} exist "
                         "outside the kernel")
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
        theta, u, r = rayleigh_ritz_extract(workspace)
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
            w_fix = spmv(a, u_fix, counter)
            verify_mvps += 1
            theta_fix = float(u_fix @ w_fix)
            res_fix = float(np.linalg.norm(w_fix - theta_fix * u_fix))
            if res_fix < delta * theta_fix:
                locked_vals.append(theta_fix)
                locked_vecs.append(u_fix)
                locked_res.append(res_fix / theta_fix)
                guard = guard.appended(u_fix)
                best_res = np.inf
                since_best = 0
                outer_here = 0
                # carry the remaining Ritz directions over to the next pair;
                # they are orthogonal to the locked vector to roundoff and
                # keep W = A V exact, costing no products.  The next
                # expansion is random so a repeated eigenvalue whose second
                # copy lies outside the carried span still gets seen.
                vals, vecs = dense_sym_eig(workspace.h)
                workspace.v = workspace.v @ vecs[:, 1:]
                workspace.w = workspace.w @ vecs[:, 1:]
                workspace.h = np.diag(vals[1:])
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
            jd_restart(workspace)
            restarts += 1
        q = guard.appended(workspace.u / np.linalg.norm(workspace.u))
        before = counter.count
        cand = jd_correction_solve(a, theta, q, r, f, delta_pcg,
                                   itmax_inner, counter)
        outer_solves += 1
        inner_total += counter.count - before

    order = np.argsort(locked_vals, kind="stable")
    vals = np.asarray(locked_vals)[order]
    vecs = np.column_stack(locked_vecs)[:, order]
    resids = np.asarray(locked_res)[order]
    pairs = EigenPairSet(vals, vecs, resids)
    report = SolverReport(
        solver="jd",
        neig=neig,
        delta=delta,
        mvp=counter.count,
        outer_its=outer_solves,
        inner_its_total=inner_total,
        wall_seconds=time.perf_counter() - t0,
        converged=True,
        per_pair_residuals=resids.tolist(),
        eigenvalues=vals.tolist(),
        config={
            "delta_pcg": delta_pcg,
            "itmax_inner": itmax_inner,
            "m_min": m_min,
            "m_max": m_max,
            "seed": seed,
            "restarts": restarts,
            "mvp_outer": outer_mvps,
            "mvp_verify": verify_mvps,
        },
    )
    return pairs, report
