"""Deflation-accelerated conjugate gradient eigensolver.

Minimizes the Rayleigh quotient by preconditioned nonlinear CG over the
complement of the kernel and of previously accepted eigenvectors.  No
linear systems are solved: every iteration costs exactly one product
with the operator (plus one per pair at start and acceptance).

The loop keeps the iterate x at unit norm with ax = A x, and projects
each search direction p onto the complement of x, so every step is one
2x2 Rayleigh-Ritz problem on the orthonormal pair (x, p / ||p||),
solved by dense_sym_eig.  Its eigenvector is oriented to keep x's sign:
a flip would turn CG's previous direction against the iterate and slow
convergence more than tenfold.  A direction whose projection leaves at
most _PARALLEL_TOL of its norm has collapsed onto x.  Each new iterate
is projected off the kernel, which costs no product since A maps the
kernel to zero; without it, roundoff lets the iterate drift into the
kernel on badly scaled graphs.
"""

import numpy as np

from .kernels import _norm, dense_sym_eig
from .results import SolverError, accept_candidate, solver_result, solver_setup, start_vector
from .sparse import spmv

_PARALLEL_TOL = 1e-6
_MAXIT_PER_PAIR = 20000


def _plane_minimize(x, ax, q, p, ap, pn):
    """Smallest Rayleigh quotient over span{x, p}: a 2x2 Rayleigh-Ritz step.

    x is a unit vector with image ax and q = x'ax, p a nonzero vector
    orthogonal to it with image ap and pn = ||p||.  Returns (mu, alpha,
    beta) with the quotient mu attained at the unit vector alpha * x +
    beta * p, alpha >= 0.
    """
    a12 = 0.5 * (float(x @ ap) + float(p @ ax)) / pn
    vals, vecs = dense_sym_eig(np.array([[q, a12], [a12, float(p @ ap) / pn**2]]))
    # LAPACK's sign is arbitrary; keep x's (see the module docstring)
    c = -vecs[:, 0] if vecs[0, 0] < 0 else vecs[:, 0]
    return float(vals[0]), float(c[0]), float(c[1]) / pn


def dacg_smallest(a, neig, delta=1e-6, f=None, null_basis=None, *, seed=0,
                  counter=None, x0=None):
    """neig smallest strictly positive eigenpairs by Rayleigh quotient descent.

    Each accepted iterate is normalized, verified with a fresh product
    against the per-pair test ||A x - q x|| / q <= delta, and locked
    into the guard for subsequent pairs.  Raises SolverError when a
    pair's start vector lies in the deflated span, when no search
    direction survives the collapse test, or when the pair exceeds
    _MAXIT_PER_PAIR iterations.
    """
    counter, guard, f = solver_setup(a, neig, counter, null_basis, f, neig, delta=delta,
                                     seed=seed, maxit_per_pair=_MAXIT_PER_PAIR)
    kernel = guard.prefix(guard.k)  # before any pair is locked
    rng = np.random.default_rng(seed)
    # beta = 0 every reset_period steps: Powell's (1977) n-step period up to
    # n = 50, so a small graph is not run as steepest descent (which stalls
    # where two eigenvalues nearly coincide), and n // 10 on large graphs
    reset_period = max(a.n // 10, min(a.n, 50))

    per_pair = []
    for pair_idx in range(neig):
        x = start_vector(rng, guard, pair_idx, x0 if pair_idx == 0 else None)
        ax = spmv(a, x, counter)
        q = float(x @ ax)
        p = z_prev = g_prev = None
        its = since_reset = 0
        res = np.inf
        while its < _MAXIT_PER_PAIR:
            r = ax - q * x
            res = _norm(r)
            if q > 0 and res / q <= delta:
                # candidate passes on cached data; confirm with a fresh product
                ok, xc, theta, _, w = accept_candidate(a, x, guard, delta, counter)
                if ok:
                    break
                x, ax, q = xc, w, theta
                r = ax - q * x
            grad = 2.0 * r
            z = guard.project_out(f.apply(grad))
            if g_prev is None or since_reset >= reset_period:
                beta = 0.0
                since_reset = 0
            else:
                denom = float(g_prev @ z_prev)
                beta = float((grad - g_prev) @ z) / denom if denom != 0 else 0.0
                if beta < 0.0:
                    beta = 0.0
            # z and the previous direction are both in the complement already
            if beta != 0.0 and p is not None:
                p *= beta
                p -= z
            else:
                p = -z
            # a direction that collapses onto x falls back to steepest
            # descent, then to at most two random directions
            retries = 0
            while True:
                before = _norm(p)
                p -= (x @ p) * x
                pn = _norm(p)
                if pn > _PARALLEL_TOL * before:
                    break
                retries += 1
                if retries > 3:
                    raise SolverError(
                        f"pair {pair_idx}: no usable search direction at "
                        f"iteration {its}"
                    )
                p = guard.project_out(-z if retries == 1 else rng.standard_normal(a.n))
            ap = spmv(a, p, counter, "inner")
            mu, al, be = _plane_minimize(x, ax, q, p, ap, pn)
            x_new = kernel.project_out(al * x + be * p)
            ax_new = al * ax + be * ap
            nrm = _norm(x_new)
            x_new /= nrm
            ax_new /= nrm
            q_new = float(x_new @ ax_new)
            if q_new > q + 1e-14 * max(1.0, abs(q)):
                raise SolverError(
                    f"pair {pair_idx}: Rayleigh quotient increased from "
                    f"{q!r} to {q_new!r}"
                )
            g_prev = grad
            z_prev = z
            x, ax, q = x_new, ax_new, q_new
            its += 1
            since_reset += 1
        else:
            raise SolverError(
                f"pair {pair_idx}: iteration cap {_MAXIT_PER_PAIR} reached "
                f"(residual {res / q if q else np.inf:.3e}, "
                f"target {delta:.1e})"
            )
        per_pair.append(its)

    return solver_result("dacg", delta, counter, guard, iterations_per_pair=per_pair)
