"""Smallest eigenpairs by implicitly restarted Lanczos on the inverse operator.

ARPACK's method (Sorensen 1992; Lehoucq and Sorensen 1996), run by
scipy.sparse.linalg.eigsh on the pseudo-inverse of A, which a deflated
PCG solve applies, so the smallest positive eigenvalues of A become the
largest of the operator.  ARPACK judges its Ritz pairs at the inner
tolerance delta_pcg, the accuracy the inexact inverse can resolve; each
pair it returns is then judged against A with a fresh product, off the
kernel, and a pass locks it into the guard (the kernel and the pairs
locked before it, made only once ARPACK has returned, so as not to raise
its peak).  A pair that fails is given one inverse-iteration step,
orthonormalized against the guard, and judged once more.
ARPACK does not count its restarts, so the restarts tally stays 0, and a
restart shows as more than ncv + 1 solves.
"""

import inspect

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .kernels import DENSE_EIG_MAX_DIM, GramSchmidtBreakdown
from .pcg import DeflationBasis, pcg_solve
from .results import SolverError, accept_candidate, solver_result, solver_setup, start_vector

# PCG iterations per inverse-operator solve, and ARPACK restarts per run
_MAXIT_INNER = 5000
_MAX_RESTARTS = 200
# eigsh draws ARPACK's restart vectors from a given generator only where it takes rng
_EIGSH_TAKES_RNG = "rng" in inspect.signature(eigsh).parameters

# subspace sizes paired with eigenpair counts, interpolated in between
# and growing by two per pair past the last one
_NCV_NEIG = (1, 5, 20, 50)
_NCV_SIZE = (15, 30, 60, 120)


def ncv_for(neig):
    """Default ncv for a given number of wanted pairs."""
    if neig < 1:
        raise ValueError("neig must be at least 1")
    return int(round(np.interp(neig, _NCV_NEIG, _NCV_SIZE))) + 2 * max(0, neig - 50)


def irlm_smallest(a, neig, ncv=None, delta=1e-6, delta_pcg=None, f=None,
                  null_basis=None, *, seed=0, counter=None, v0=None):
    """neig smallest strictly positive eigenpairs of a, values ascending.

    ARPACK runs with a basis of ncv columns (default ncv_for(neig)),
    capped at a.n and at the dense solver's DENSE_EIG_MAX_DIM, and at
    tolerance delta_pcg (default delta / 100), which the inner solves
    share.  Acceptance requires every pair to satisfy
    ||A u - theta u|| / theta <= delta with freshly computed products.
    """
    delta_pcg = 1e-2 * delta if delta_pcg is None else delta_pcg
    # ARPACK's restart vectors reach into the kernel, so the basis may hold
    # a kernel column: capped at n - k it can miss a copy of a repeated value;
    # a neig below 1 is left to solver_setup's message
    ncv_eff = ncv_for(max(neig, 1)) if ncv is None else int(ncv)
    ncv_eff = min(max(ncv_eff, neig + 2), a.n, DENSE_EIG_MAX_DIM)
    counter, kernel, f = solver_setup(
        a, neig, counter, null_basis, f, 0, delta=delta, seed=seed, ncv=ncv_eff,
        delta_pcg=delta_pcg, maxit_inner=_MAXIT_INNER)
    rng = np.random.default_rng(seed)
    v1 = start_vector(rng, kernel, 0, v0)

    def apply_inverse(v):
        # the target is relative to v itself, kernel part included: relative
        # to a near-kernel v's small complement part, PCG can stall
        norm_pv = np.linalg.norm(kernel.project_out(v))
        tol = delta_pcg * np.linalg.norm(v) / norm_pv if norm_pv else delta_pcg
        out = pcg_solve(a, f, v, tol, _MAXIT_INNER, deflation=kernel, counter=counter)
        if not out.converged:
            raise SolverError(
                f"inner PCG stalled at relative residual {out.final_relres:.3e} "
                f"after {out.iterations} iterations (target {tol:.1e})"
            )
        return out.solution

    inverse = LinearOperator((a.n, a.n), matvec=apply_inverse, dtype=np.float64)
    try:
        _, ritz = eigsh(inverse, neig, which="LA", v0=v1, ncv=ncv_eff, tol=delta_pcg,
                        maxiter=_MAX_RESTARTS + 1,
                        **({"rng": rng} if _EIGSH_TAKES_RNG else {}))
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverError(f"ARPACK, ncv {ncv_eff} and tol {delta_pcg:.1e}: {exc}") from exc

    guard = DeflationBasis(kernel.columns, kernel.k + neig)
    # eigsh lists the operator's values ascending, so the smallest of A last
    for pair, u in enumerate(ritz[:, ::-1].T):
        try:
            ok, u, _, relres, _ = accept_candidate(a, u, guard, delta, counter, basis=kernel)
            if not ok:
                # one inverse-iteration step off the kernel and the pairs locked so far
                ok, _, _, relres, _ = accept_candidate(a, apply_inverse(u), guard, delta,
                                                       counter)
        except GramSchmidtBreakdown as exc:
            raise SolverError(f"pair {pair}: Ritz vector lies in the span of the "
                              "kernel and the pairs accepted before it") from exc
        if not ok:
            raise SolverError(f"pair {pair}: Ritz vector has residual {relres:.3e} "
                              f"against delta {delta:.1e}")
    return solver_result("irlm", delta, counter, guard)
