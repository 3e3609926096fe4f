"""Untimed set-up: write each graph of a run's batch to a file and compute
its oracle eigenvalues.

This runs in its own process so that the measured pipeline process never
holds generator arrays (``geometric_graph`` builds an O(n^2) distance
matrix, which would otherwise set the pipeline's peak RSS).  Results are
cached under ``.perfbench/inputs``, keyed by the workload and the lapeig
sources, so a repeated seed skips this step.  Up to two graphs are
prepared at once, each in its own process.

The oracle runs no lapeig solver.  It assembles the Laplacian with
``scipy.sparse`` straight from the generated edge arrays and computes the
smallest eigenvalues either densely with ``numpy.linalg.eigvalsh`` or with
``scipy.sparse.linalg.lobpcg`` (Jacobi preconditioner, constant vector as
constraint).  Shift-invert ``eigsh`` is not used: the sparse LU of a random
small-world graph fills in to gigabytes.

Usage: python3 perfbench/prepare.py --workload NAME --seed N
(from the checkout root, with src on PYTHONPATH); prints a JSON manifest.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lobpcg

from lapeig import generators
from workloads import WORKLOADS

# largest LOBPCG residual norm accepted for a wanted pair
LOBPCG_RESIDUAL = 1e-7
MAX_WORKERS = 2


def cache_dir(root, workload):
    w = workload
    digest = hashlib.sha256(repr((w.generator, w.params, w.format, w.neig, w.oracle)).encode())
    for path in sorted((root / "src" / "lapeig").glob("*.py")):
        digest.update(path.read_bytes())
    return root / ".perfbench" / "inputs" / workload.name / digest.hexdigest()[:16]


def write_graph(g, path, fmt):
    """Edge list ('n' then 'i j w') or symmetric Matrix Market (lower
    triangle, 1-based); %.17g round-trips every weight exactly."""
    if fmt == "edgelist":
        head = f"{g.n_nodes}\n"
        rows = zip(g.i.tolist(), g.j.tolist(), g.w.tolist())
    else:
        head = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            f"{g.n_nodes} {g.n_nodes} {g.m}\n"
        )
        rows = zip((g.j + 1).tolist(), (g.i + 1).tolist(), g.w.tolist())
    text = head + "".join(f"{r} {c} {w:.17g}\n" for r, c, w in rows)
    atomic_write(path, text)
    return hashlib.sha256(text.encode()).hexdigest()


def atomic_write(path, text):
    """A killed run leaves a stray .tmp file, never a truncated input."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def scipy_laplacian(g):
    n = g.n_nodes
    rows = np.concatenate([g.i, g.j])
    cols = np.concatenate([g.j, g.i])
    adj = sp.csr_matrix((np.concatenate([g.w, g.w]), (rows, cols)), shape=(n, n))
    return (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


def dense_oracle(lap, neig):
    vals = np.linalg.eigvalsh(lap.toarray())
    # backward-stable eigensolver: error of order n * eps * ||L||
    err = lap.shape[0] * np.finfo(float).eps * float(vals[-1])
    return vals[1 : neig + 1], err


def lobpcg_oracle(lap, neig, seed):
    n = lap.shape[0]
    diag = lap.diagonal()
    jacobi = LinearOperator(
        (n, n), matvec=lambda x: x.ravel() / diag, matmat=lambda x: x / diag[:, None],
        dtype=float,
    )
    kernel = np.full((n, 1), 1.0 / np.sqrt(n))
    rng = np.random.default_rng(seed)
    for extra, maxiter in ((4, 500), (10, 2000)):
        x = rng.standard_normal((n, neig + extra))
        with warnings.catch_warnings():
            # non-convergence is judged below from explicit residuals
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs = lobpcg(lap, x, M=jacobi, Y=kernel, tol=1e-8,
                                maxiter=maxiter, largest=False)
        order = np.argsort(vals)[:neig]
        vals, vecs = vals[order], vecs[:, order]
        resid = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
        if resid.max() <= LOBPCG_RESIDUAL:
            return vals, float(resid.max())
    raise RuntimeError(f"lobpcg oracle did not converge (residual {resid.max():.2e})")


def prepare_graph(workload, seed, directory):
    suffix = "txt" if workload.format == "edgelist" else "mtx"
    path = directory / f"g{seed}.{suffix}"
    meta_path = directory / f"g{seed}.json"
    if meta_path.is_file() and path.is_file():
        meta = json.loads(meta_path.read_text())
        meta["cached"] = True
        return meta
    make = getattr(generators, workload.generator)
    g = make(**workload.params, seed=seed)
    sha = write_graph(g, path, workload.format)
    lap = scipy_laplacian(g)
    neig = min(workload.neig, g.n_nodes - 1)
    if workload.oracle == "dense":
        values, err = dense_oracle(lap, neig)
    else:
        values, err = lobpcg_oracle(lap, neig, seed)
    meta = {
        "seed": seed,
        "path": str(path),
        "format": workload.format,
        "n": g.n_nodes,
        "m": g.m,
        "sha256": sha,
        "oracle": values.tolist(),
        "oracle_err": err,
    }
    atomic_write(meta_path, json.dumps(meta))
    meta["cached"] = False
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--graphs", type=int, help="prepare only the batch's first N graphs")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    directory = cache_dir(Path("."), workload)
    directory.mkdir(parents=True, exist_ok=True)
    seeds = workload.graph_seeds(args.seed)[: args.graphs]
    # graphs are independent, so they are prepared side by side, at most
    # one process per usable core; nothing is measured while this runs
    workers = min(len(seeds), len(os.sched_getaffinity(0)), MAX_WORKERS)
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            graphs = list(pool.map(prepare_graph, [workload] * len(seeds), seeds,
                                   [directory] * len(seeds)))
    else:
        graphs = [prepare_graph(workload, s, directory) for s in seeds]
    print(json.dumps({"graphs": graphs, "prepare_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    sys.exit(main())
