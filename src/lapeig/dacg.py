"""Deflation-accelerated conjugate gradient eigensolver.

Minimizes the Rayleigh quotient by preconditioned nonlinear CG over the
complement of the kernel and of previously accepted eigenvectors.  No
linear systems are solved: every iteration costs exactly one product
with the operator (plus one per pair at start and acceptance).
"""

import time

import numpy as np

from .results import EigenPairSet, SolverError, fresh_accept, solver_result, solver_setup
from .sparse import spmv

_PARALLEL_TOL = 1e-12


class DacgState:
    """Iterate, gradient and direction data for one pair's minimization."""

    __slots__ = ("x", "ax", "q", "grad", "p", "iterations")

    def __init__(self, x, ax):
        self.x = x
        self.ax = ax
        self.q = float(x @ ax)
        self.grad = 2.0 * (ax - self.q * x)
        self.p = None
        self.iterations = 0


def _is_parallel(x, p):
    bxx = float(x @ x)
    bpp = float(p @ p)
    bxp = float(x @ p)
    return bpp == 0.0 or bxx * bpp - bxp * bxp <= _PARALLEL_TOL * bxx * bpp


def _plane_minimize(x, ax, p, ap):
    """Smallest Rayleigh quotient over span{x, p}.

    Solves the 2x2 generalized pencil of the plane after orthogonalizing
    its basis, which keeps the arithmetic well conditioned even when p
    is almost parallel to x.  Returns (mu, alpha, beta) with the
    quotient mu attained at alpha * x + beta * p.  Raises on a
    degenerate plane.
    """
    sx = float(np.linalg.norm(x))
    pnorm = float(np.linalg.norm(p))
    if sx == 0.0 or pnorm == 0.0:
        raise ValueError("degenerate plane: direction is parallel to the iterate")
    xb = x / sx
    axb = ax / sx
    cproj = float(xb @ p)
    pt = p - cproj * xb
    spt = float(np.linalg.norm(pt))
    if spt <= np.sqrt(_PARALLEL_TOL) * pnorm:
        raise ValueError("degenerate plane: direction is parallel to the iterate")
    pb = pt / spt
    apb = (ap - cproj * axb) / spt
    a11 = float(xb @ axb)
    a22 = float(pb @ apb)
    a12 = 0.5 * (float(xb @ apb) + float(pb @ axb))
    half = 0.5 * (a11 + a22)
    rad = float(np.hypot(0.5 * (a11 - a22), a12))
    mu = half - rad
    r1 = (a11 - mu, a12)
    r2 = (a12, a22 - mu)
    row = r1 if np.hypot(*r1) >= np.hypot(*r2) else r2
    cb, cp = row[1], -row[0]
    nrm = np.hypot(cb, cp)
    if nrm == 0.0:
        cb, cp, nrm = 1.0, 0.0, 1.0
    cb /= nrm
    cp /= nrm
    # map coefficients from the orthonormal plane basis back to (x, p)
    alpha = cb / sx - cp * cproj / (spt * sx)
    beta = cp / spt
    scale = np.hypot(alpha, beta)
    return float(mu), alpha / scale, beta / scale


def dacg_smallest(a, neig, delta=1e-6, f=None, null_basis=None,
                  maxit_per_pair=20000, *, seed=0, counter=None, x0=None):
    """neig smallest strictly positive eigenpairs by Rayleigh quotient descent.

    Each accepted iterate is normalized, verified with a fresh product
    against the per-pair test ||A x - q x|| / q <= delta, and joined to
    the deflation set for subsequent pairs.  Raises with partial
    results attached when a pair exceeds maxit_per_pair.
    """
    t0 = time.perf_counter()
    counter, guard, f = solver_setup(a, neig, counter, null_basis, f, neig)
    rng = np.random.default_rng(seed)
    reset_period = max(1, a.n // 10)

    vals, vecs, resids, per_pair = [], [], [], []
    outer_mvps = 0
    verify_mvps = 0

    for pair_idx in range(neig):
        if pair_idx == 0 and x0 is not None:
            x = np.asarray(x0, dtype=np.float64).copy()
        else:
            x = rng.standard_normal(a.n)
        x = guard.project_out(x)
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise SolverError(f"pair {pair_idx}: start vector lies in the "
                              "deflated subspace")
        x /= nrm
        ax = spmv(a, x, counter)
        outer_mvps += 1
        state = DacgState(x, ax)
        z_prev = None
        g_prev = None
        since_reset = 0
        accepted = None
        res = np.inf
        while state.iterations < maxit_per_pair:
            res = float(np.linalg.norm(state.ax - state.q * state.x))
            if state.q > 0 and res / state.q <= delta:
                # candidate passes on cached data; confirm with a fresh product
                xc = guard.project_out(state.x)
                xc /= np.linalg.norm(xc)
                ok, theta, relres, w = fresh_accept(a, xc, delta, counter)
                verify_mvps += 1
                if ok:
                    accepted = (theta, xc, relres)
                    break
                state.x, state.ax = xc, w
                state.q = theta
                state.grad = 2.0 * (w - theta * xc)
            z = guard.project_out(f.apply(state.grad))
            if g_prev is None or since_reset >= reset_period:
                beta = 0.0
                since_reset = 0
            else:
                denom = float(g_prev @ z_prev)
                beta = float((state.grad - g_prev) @ z) / denom if denom != 0 else 0.0
                if beta < 0.0:
                    beta = 0.0
            # z and the previous direction are both in the complement already
            p = -z + beta * state.p if (beta != 0.0 and state.p is not None) else -z
            p -= (state.x @ p) * state.x
            # a collapsed direction falls back to steepest descent, then random
            retries = 0
            while _is_parallel(state.x, p):
                retries += 1
                if retries == 1:
                    p = guard.project_out(-z)
                elif retries <= 3:
                    p = guard.project_out(rng.standard_normal(a.n))
                else:
                    raise SolverError(
                        f"pair {pair_idx}: no usable search direction at "
                        f"iteration {state.iterations}"
                    )
                p -= (state.x @ p) * state.x
            ap = spmv(a, p, counter)
            mu, al, be = _plane_minimize(state.x, state.ax, p, ap)
            x_new = al * state.x + be * p
            ax_new = al * state.ax + be * ap
            nrm = float(np.linalg.norm(x_new))
            x_new /= nrm
            ax_new /= nrm
            q_new = float(x_new @ ax_new)
            if q_new > state.q + 1e-14 * max(1.0, abs(state.q)):
                raise SolverError(
                    f"pair {pair_idx}: Rayleigh quotient increased from "
                    f"{state.q!r} to {q_new!r}"
                )
            g_prev = state.grad
            z_prev = z
            state.x, state.ax, state.q = x_new, ax_new, q_new
            state.grad = 2.0 * (ax_new - q_new * x_new)
            state.p = p
            state.iterations += 1
            since_reset += 1
        if accepted is None:
            found = guard.columns[:, guard.k - len(vals):].copy()
            partial = EigenPairSet(np.asarray(vals), found, np.asarray(resids))
            err = SolverError(
                f"pair {pair_idx}: iteration cap {maxit_per_pair} reached "
                f"(residual {res / state.q if state.q else np.inf:.3e}, "
                f"target {delta:.1e})"
            )
            err.partial = partial
            err.stalled_pair = pair_idx
            raise err
        theta, u, rres = accepted
        vals.append(theta)
        vecs.append(u)
        resids.append(rres)
        per_pair.append(state.iterations)
        guard.push(u)

    return solver_result(
        "dacg", delta, counter, t0, vals, vecs, resids,
        outer_its=0, inner_its_total=int(np.sum(per_pair)),
        mvp_outer=outer_mvps, mvp_verify=verify_mvps, restarts=0, seed=seed,
        maxit_per_pair=maxit_per_pair, iterations_per_pair=per_pair)
