"""Deterministic graph families used by tests, demos and benchmarks."""

import numpy as np

from .graphs import EdgeList, connected_components


def path_graph(n, weight=1.0):
    idx = np.arange(n - 1)
    return EdgeList(n, idx, idx + 1, np.full(n - 1, weight))


def cycle_graph(n, weight=1.0):
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    i = np.arange(n)
    return EdgeList(n, i, (i + 1) % n, np.full(n, weight))


def complete_graph(n, weight=1.0):
    i, j = np.triu_indices(n, k=1)
    return EdgeList(n, i, j, np.full(i.size, weight))


def star_graph(leaves, weight=1.0):
    """Hub node 0 joined to the given number of leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    j = np.arange(1, leaves + 1)
    return EdgeList(leaves + 1, np.zeros(leaves, dtype=np.int64), j, np.full(leaves, weight))


def grid_graph(rows, cols, weight=1.0):
    """rows x cols lattice; node r * cols + c joins its right and lower neighbours."""
    node = np.arange(rows * cols).reshape(rows, cols)
    i = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    j = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    return EdgeList(rows * cols, i, j, np.full(i.size, weight))


def random_connected_graph(n, extra_edges=0, seed=0, weighted=True):
    """Random tree plus extra chords; connected by construction.

    Chords are uniform node pairs, drawn until there are n - 1 +
    extra_edges edges or 50 * (extra_edges + 1) draws were made, so the
    cap can leave fewer edges.  A block of as many draws as edges are
    missing can reach the target only at its last draw, so blocks draw
    what one draw at a time would.  Edges are kept as sorted keys
    i * n + j, O(n + m) memory; weights follow in that order.
    """
    rng = np.random.default_rng(seed)
    v = np.arange(1, n)
    keys = np.sort(rng.integers(0, v) * n + v)
    want, cap, attempts = n - 1 + extra_edges, 50 * (extra_edges + 1), 0
    while keys.size < want and attempts < cap:
        block = min(want - keys.size, cap - attempts)
        attempts += block
        a, b = np.sort(rng.integers(0, n, size=(block, 2)), axis=1).T
        keys = np.union1d(keys, (a * n + b)[a != b])
    w = rng.uniform(0.5, 1.5, size=keys.size) if weighted else np.ones(keys.size)
    return EdgeList(n, keys // n, keys % n, w)


def geometric_graph(n, radius, seed=0, weighted=False):
    """Random points in the unit square joined when closer than radius.

    Isolated clusters are stitched together afterwards through their
    nearest cross-pair, so the result is always connected.  The cluster
    structure gives these graphs small, poorly separated leading
    eigenvalues, which makes them useful stress fixtures.

    A k-d tree proposes the pairs, with a margin for its own rounding.
    Each stitch step computes only the distances from component 0 to the
    rest, so memory is O(n + m) plus that one block.
    """
    # imported here: scipy.spatial adds 7 MB to every process that imports lapeig
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    i, j = cKDTree(pts).query_pairs(abs(radius) * (1 + 1e-9), output_type="ndarray").T
    d2 = ((pts[i] - pts[j]) ** 2).sum(-1)
    close = d2 < radius * radius
    w = 1.0 / (1.0 + np.sqrt(d2[close])) if weighted else np.ones(close.sum())
    g = EdgeList(n, i[close], j[close], w)
    while True:
        count, labels = connected_components(g)
        if count == 1:
            return g
        # join component 0 to the nearest node outside it
        inside = np.flatnonzero(labels == labels[0])
        outside = np.flatnonzero(labels != labels[0])
        cross = ((pts[inside, None] - pts[outside]) ** 2).sum(-1)
        k = int(np.argmin(cross))
        a, b = sorted((inside[k // outside.size], outside[k % outside.size]))
        wt = 1.0 / (1.0 + np.sqrt(cross.flat[k])) if weighted else 1.0
        g = EdgeList(n, np.append(g.i, a), np.append(g.j, b), np.append(g.w, wt))
