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
    """Random tree plus extra chords; connected by construction."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        pairs.add((parent, v))
    attempts = 0
    while len(pairs) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        attempts += 1
        if a == b:
            continue
        pairs.add((min(a, b), max(a, b)))
    triples = sorted(pairs)
    if weighted:
        w = rng.uniform(0.5, 1.5, size=len(triples))
    else:
        w = np.ones(len(triples))
    i = np.array([t[0] for t in triples], dtype=np.int64)
    j = np.array([t[1] for t in triples], dtype=np.int64)
    return EdgeList(n, i, j, w)


def geometric_graph(n, radius, seed=0, weighted=False):
    """Random points in the unit square joined when closer than radius.

    Isolated clusters are stitched together afterwards through their
    nearest cross-pair, so the result is always connected.  The cluster
    structure gives these graphs small, poorly separated leading
    eigenvalues, which makes them useful stress fixtures.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    iu, ju = np.triu_indices(n, k=1)
    close = d2[iu, ju] < radius * radius
    i, j = iu[close], ju[close]
    if weighted:
        w = 1.0 / (1.0 + np.sqrt(d2[i, j]))
    else:
        w = np.ones(i.size)
    g = EdgeList(n, i, j, w)
    while True:
        count, labels = connected_components(g)
        if count == 1:
            return g
        # join component 0 to the nearest node outside it
        inside = np.flatnonzero(labels == labels[0])
        outside = np.flatnonzero(labels != labels[0])
        cross = d2[np.ix_(inside, outside)]
        k = int(np.argmin(cross))
        a = int(inside[k // outside.size])
        b = int(outside[k % outside.size])
        wt = 1.0 / (1.0 + np.sqrt(d2[a, b])) if weighted else 1.0
        g = EdgeList(
            n,
            np.concatenate([g.i, [min(a, b)]]),
            np.concatenate([g.j, [max(a, b)]]),
            np.concatenate([g.w, [wt]]),
        )
