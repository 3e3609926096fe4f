"""Jacobi-Davidson with sequential deflation.

Each outer iteration enlarges a search space by one vector, extracts
the smallest Ritz pair of the projected matrix, and asks a projected
shifted PCG solve (the correction equation) for the next expansion
direction.  Converged eigenvectors are locked into the projector used
by later pairs.

One DeflationBasis buffer holds the guard (kernel, then locked
vectors) and, right after it, the search basis V in Ritz order: each
Rayleigh-Ritz step rotates V and W = A V so that H = V'AV is diagonal
and the Ritz vector u is V's first column.  The expansion block
[guard, V] and the correction projector [guard, u] are then prefixes
of the buffer, a restart keeps V's first m_min columns, and a lock
writes the verified vector over u and grows the guard by one.
"""

import time

import numpy as np

from .kernels import GramSchmidtBreakdown, dense_sym_eig, mgs_orthonormalize
from .pcg import jd_correction_solve
from .results import SolverError, fresh_accept, solver_result, solver_setup
from .sparse import spmv


class JdWorkspace:
    """Search basis V after the guard, its image W = A V and H = V'AV.

    guard needs room for m_max more columns; V is the m buffer columns
    after guard.k, W the first m columns of its own n x m_max buffer.
    """

    def __init__(self, guard, m_min, m_max):
        if not 0 < m_min < m_max:
            raise ValueError("need 0 < m_min < m_max")
        self.guard = guard
        self.m_min = int(m_min)
        self.w_buf = np.zeros((guard.n, m_max), order="F")
        self.h = np.zeros((0, 0))

    @property
    def m(self):
        return self.h.shape[0]

    @property
    def block(self):
        """[guard, V], a prefix of the guard's buffer."""
        return self.guard.buffer[:, : self.guard.k + self.m]

    @property
    def v(self):
        return self.block[:, self.guard.k:]

    @property
    def w(self):
        return self.w_buf[:, : self.m]

    def append(self, v_new, w_new):
        """Grow V by an orthonormal column and W by its image.

        H gains the bordered row and column, symmetrized since the two
        estimates differ only by roundoff.
        """
        m = self.m
        h = np.zeros((m + 1, m + 1))
        h[:m, :m] = self.h
        h[:m, m] = self.v.T @ w_new
        h[m, :m] = v_new @ self.w
        h[m, m] = float(v_new @ w_new)
        self.h = 0.5 * (h + h.T)
        self.guard.buffer[:, self.guard.k + m] = v_new
        self.w_buf[:, m] = w_new

    def rotate(self, ritz):
        """Rotate V and W into Ritz coordinates; ritz is dense_sym_eig(h).

        Returns (theta, u, r) for the smallest pair: u is V's first
        column and r = A u - theta u comes from W, costing no product.
        """
        vals, vecs = ritz
        v = self.v
        v[:] = v @ vecs
        self.w[:] = self.w @ vecs
        self.h = np.diag(vals)
        theta = float(vals[0])
        return theta, v[:, 0], self.w_buf[:, 0] - theta * v[:, 0]

    def restart(self):
        """Contract V to its first m_min Ritz vectors, the best ones."""
        if self.m <= self.m_min:
            raise SolverError("restart called below the retention size")
        self.h = self.h[: self.m_min, : self.m_min]

    def lock(self, u):
        """Write the unit vector u over V's first column and guard it."""
        self.guard.push(u)
        self.w_buf[:, : self.m - 1] = self.w_buf[:, 1 : self.m]
        self.h = self.h[1:, 1:]


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
    counter, guard, f = solver_setup(a, neig, counter, null_basis, f,
                                     neig + m_max)
    rng = np.random.default_rng(seed)

    locked_vals, locked_vecs, locked_res = [], [], []
    outer_solves = 0
    inner_total = 0
    outer_mvps = 0
    verify_mvps = 0
    restarts = 0

    workspace = JdWorkspace(guard, m_min, m_max)
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
            block = workspace.block
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
        theta, u, r = workspace.rotate(ritz)
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
                best_res = np.inf
                since_best = 0
                outer_here = 0
                # carry the remaining Ritz directions over to the next pair;
                # they are orthogonal to the locked vector to roundoff and
                # keep W = A V exact, costing no products.  The next
                # expansion is random so a repeated eigenvalue whose second
                # copy lies outside the carried span still gets seen.
                workspace.lock(u_fix)
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
            workspace.restart()
            restarts += 1
        # the correction projects out [guard, u]: u is the column after
        # the guard, so the guard's prefix grows by one for the solve
        before = counter.count
        guard.k += 1
        cand = jd_correction_solve(a, theta, guard, r, f, delta_pcg,
                                   itmax_inner, counter)
        guard.k -= 1
        outer_solves += 1
        inner_total += counter.count - before

    return solver_result(
        "jd", delta, counter, t0, locked_vals, locked_vecs, locked_res,
        outer_its=outer_solves, inner_its_total=inner_total,
        mvp_outer=outer_mvps, mvp_verify=verify_mvps, restarts=restarts,
        seed=seed, delta_pcg=delta_pcg, itmax_inner=itmax_inner,
        m_min=m_min, m_max=m_max)
