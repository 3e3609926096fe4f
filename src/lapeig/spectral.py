"""Uses of the small Laplacian eigenpairs.

Connectivity (Fiedler value and vector), relaxed two-way partitioning,
spectral gap diagnostics, and truncated / shifted pseudoinverse operators
for resistance and centrality workloads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bench import SOLVERS
from .graphs import csr_connected_components
from .results import EigenPairSet
from .sparse import spmv


def fiedler(a, solver="jd", delta=1e-6, f=None, *, seed=0, counter=None):
    """Algebraic connectivity lambda_2 and its unit eigenvector.

    Raises ValueError on a disconnected graph: lambda_2 of the Laplacian
    is positive exactly when the graph is connected, so the smallest
    positive eigenvalue of a disconnected graph is not the Fiedler value.
    """
    ncomp, _ = csr_connected_components(a)
    if ncomp != 1:
        raise ValueError(
            f"graph has {ncomp} components; lambda_2 > 0 holds only for a "
            "connected graph, so the Fiedler pair is undefined here"
        )
    try:
        solve = SOLVERS[solver]
    except KeyError:
        raise ValueError(
            f"unknown solver {solver!r}; pick one of {', '.join(SOLVERS)}"
        ) from None
    pairs, _ = solve(a, 1, delta=delta, f=f, seed=seed, counter=counter)
    values, vectors, _ = pairs.positive()
    return float(values[0]), vectors[:, 0].copy()


def fiedler_order(vector):
    """Permutation sorting nodes by Fiedler coordinate (profile reduction)."""
    return np.argsort(np.asarray(vector, dtype=np.float64), kind="stable")


def partition_relaxed(pairs, n1, n2):
    """Continuous relaxation of the balanced (n1, n2) cut problem.

    Returns (x, relaxed_value) with

        x = ((n1 - n2) / (2 n)) e + sqrt(n1 n2 / n) v_2

    which minimizes the quadratic form x' L x subject to x' x = n / 4 and
    e' x = (n1 - n2) / 2, attaining the value (n1 n2 / n) lambda_2.  That
    value is a lower bound on the weight of any cut separating n1 nodes
    from the other n2.
    """
    values, vectors, _ = pairs.positive()
    if len(values) == 0:
        raise ValueError("need at least the lambda_2 pair")
    n = vectors.shape[0]
    n1, n2 = int(n1), int(n2)
    if n1 <= 0 or n2 <= 0 or n1 + n2 != n:
        raise ValueError(f"invalid split ({n1}, {n2}) of {n} nodes")
    x = ((n1 - n2) / (2.0 * n)) * np.ones(n)
    x += math.sqrt(n1 * n2 / n) * vectors[:, 0]
    relaxed_value = (n1 * n2 / n) * float(values[0])
    return x, relaxed_value


def sign_partition(x, n1, n2):
    """Round a relaxed cut vector: the n1 largest entries form side 1.

    Ties go to the smaller node index.  Returns labels in {1, 2}.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    n1, n2 = int(n1), int(n2)
    if n1 <= 0 or n2 <= 0 or n1 + n2 != n:
        raise ValueError(f"invalid split ({n1}, {n2}) of {n} nodes")
    order = np.argsort(-x, kind="stable")
    labels = np.full(n, 2, dtype=np.int64)
    labels[order[:n1]] = 1
    return labels


def cut_weight(edges, labels):
    """Total weight of the edges whose endpoints carry different labels."""
    labels = np.asarray(labels)
    cross = labels[edges.i] != labels[edges.j]
    return float(edges.w[cross].sum())


def estimate_lambda_max(a, iters=20, *, seed=0, counter=None):
    """Largest eigenvalue estimate by a short power iteration."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(a.n)
    x /= np.linalg.norm(x)
    theta = 0.0
    for _ in range(int(iters)):
        y = spmv(a, x, counter)
        theta = float(x @ y)
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            return 0.0
        x = y / nrm
    return theta


@dataclass(frozen=True)
class PinvApprox:
    """Pseudoinverse approximation from the k smallest positive pairs.

    kind "truncated" is the rank-k operator sum_j (1/lambda_j) v_j v_j'
    over the first k positive pairs; with all n-1 positive pairs it is the
    exact pseudoinverse.  kind "shifted" treats the unresolved tail as if
    it sat at a single shift sigma:

        (1/sigma) (I - e e'/n) + sum_j (1/lambda_j - 1/sigma) v_j v_j'

    Any sigma at least half the largest tail eigenvalue makes the shifted
    operator at least as close to the pseudoinverse as the truncated one.
    """

    kind: str
    k: int
    pairs: EigenPairSet
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("truncated", "shifted"):
            raise ValueError(f"unknown kind {self.kind!r}")
        available = len(self.pairs.positive()[0])
        if not 0 <= self.k <= available:
            raise ValueError(f"k={self.k} exceeds the {available} available pairs")
        if self.kind == "shifted" and (self.sigma is None or self.sigma <= 0):
            raise ValueError("shifted kind needs sigma > 0")

    @property
    def n(self):
        return int(self.pairs.vectors.shape[0])


def make_pinv(pairs, k, kind="truncated", sigma="midpoint", a=None, *, seed=0):
    """Build a PinvApprox, resolving the shift policy for the shifted kind.

    sigma may be a positive number, "lambdak" (the largest resolved
    eigenvalue) or "midpoint" (halfway between the largest resolved and
    the largest overall eigenvalue; the latter is estimated by a short
    power iteration, so the operator a must be supplied).
    """
    k = int(k)
    if kind == "truncated":
        return PinvApprox(kind="truncated", k=k, pairs=pairs)
    values = pairs.positive()[0]
    if isinstance(sigma, str):
        if not 1 <= k <= len(values):
            raise ValueError("sigma policies need at least one resolved pair")
        lam_k = float(values[k - 1])
        if sigma == "lambdak":
            sigma_val = lam_k
        elif sigma == "midpoint":
            if a is None:
                raise ValueError("midpoint policy needs the operator for lambda_max")
            sigma_val = 0.5 * (lam_k + estimate_lambda_max(a, seed=seed))
        else:
            raise ValueError(f"unknown sigma policy {sigma!r}")
    else:
        sigma_val = float(sigma)
    return PinvApprox(kind="shifted", k=k, pairs=pairs, sigma=sigma_val)


def pinv_apply(p, v):
    """Apply the pseudoinverse approximation to a vector, matrix free."""
    v = np.asarray(v, dtype=np.float64)
    values, vectors, _ = p.pairs.positive()
    if v.shape != (vectors.shape[0],):
        raise ValueError(f"expected a vector of length {vectors.shape[0]}")
    if p.k > len(values):
        raise ValueError(f"k={p.k} exceeds the {len(values)} available pairs")
    lam = values[: p.k]
    vk = vectors[:, : p.k]
    coeff = vk.T @ v
    if p.kind == "truncated":
        return vk @ (coeff / lam)
    out = (v - v.sum() / v.shape[0]) / p.sigma
    out += vk @ (coeff * (1.0 / lam - 1.0 / p.sigma))
    return out


def pinv_dense(p, max_n=2000):
    """Materialize the approximation column by column.  Refused for n > max_n."""
    n = p.n
    if n > max_n:
        raise ValueError(f"refusing to materialize a dense {n} x {n} matrix")
    out = np.empty((n, n))
    eye = np.eye(n)
    for j in range(n):
        out[:, j] = pinv_apply(p, eye[:, j])
    return out


def gap_ratios(values):
    """Spread and separation diagnostics of an ascending positive spectrum.

    Returns (gap, xi) with gap = largest / smallest and
    xi_j = lambda_j / (lambda_{j+1} - lambda_j).  Small xi means the pair
    is well separated; an exactly repeated value yields math.inf in that
    slot, since multiplicities are legitimate rather than an error.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a nonempty 1-d value list")
    if values[0] <= 0.0 or np.any(np.diff(values) < 0.0):
        raise ValueError("values must be positive and ascending")
    gap = float(values[-1] / values[0])
    xi = []
    for j in range(values.size - 1):
        d = float(values[j + 1] - values[j])
        xi.append(float(values[j]) / d if d > 0.0 else math.inf)
    return gap, xi
