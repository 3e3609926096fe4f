"""Tests for the deterministic graph family generators."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lapeig
from lapeig.generators import (
    complete_graph,
    cycle_graph,
    geometric_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import EdgeList, connected_components, stats


def reference_grid(rows, cols, weight=1.0):
    """The grid built edge by edge, as a test oracle."""
    triples = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                triples.append((r * cols + c, r * cols + c + 1, weight))
            if r + 1 < rows:
                triples.append((r * cols + c, (r + 1) * cols + c, weight))
    return EdgeList.from_pairs(rows * cols, triples)


def reference_random_connected_graph(n, extra_edges=0, seed=0, weighted=True):
    """One parent and one chord attempt per Python step, as a test oracle."""
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


def reference_geometric_graph(n, radius, seed=0, weighted=False):
    """The geometric graph from the full n x n distance matrix, as a test oracle."""
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


def assert_same_bytes(g, ref):
    assert g.n_nodes == ref.n_nodes
    for got, want in ((g.i, ref.i), (g.j, ref.j), (g.w, ref.w)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def random_graph_cases():
    """(n, extra_edges, seed, weighted) from a seeded sweep: every n from 1 to
    60, extra_edges from 0 to 3n + 3 (the top end uses up the attempt cap
    on small n), alternately weighted."""
    pick = np.random.default_rng(2024)
    cases = [(2, 5, 0, True), (2, 5, 1, False), (1, 4, 3, True)]
    for n in range(1, 61):
        for extra in sorted({0, 3 * n + 3, *pick.integers(0, 3 * n + 4, size=3).tolist()}):
            cases.append((n, extra, int(pick.integers(0, 2**32)), len(cases) % 2 == 0))
    return cases


def geometric_graph_cases():
    """(n, radius, seed, weighted) from a seeded sweep: n from 1 to 150 and
    radius zero, negative, 0.01 to 0.5 and above the unit square's diagonal."""
    pick = np.random.default_rng(2025)
    cases = []
    for n in range(1, 151):
        radii = [pick.uniform(0.01, 0.5)]
        if n % 10 == 0:
            radii += [0.0, -pick.uniform(0.01, 0.5), 1.5]
        for radius in radii:
            cases.append((n, float(radius), int(pick.integers(0, 2**32)), len(cases) % 2 == 0))
    return cases


class TestFixedFamilies:
    def test_path(self):
        g = path_graph(5)
        assert (g.n_nodes, g.m) == (5, 4)
        assert connected_components(g)[0] == 1

    def test_cycle(self):
        g = cycle_graph(6)
        assert (g.n_nodes, g.m) == (6, 6)
        assert connected_components(g)[0] == 1
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert (g.n_nodes, g.m) == (5, 10)
        assert connected_components(g)[0] == 1

    def test_star(self):
        g = star_graph(4)
        assert (g.n_nodes, g.m) == (5, 4)
        assert np.all(g.i == 0)
        with pytest.raises(ValueError):
            star_graph(0)

    def test_grid(self):
        rows, cols = 3, 4
        g = grid_graph(rows, cols)
        assert g.n_nodes == rows * cols
        assert g.m == rows * (cols - 1) + cols * (rows - 1)
        assert connected_components(g)[0] == 1

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (3, 4), (4, 3)])
    def test_grid_matches_edge_by_edge_oracle(self, rows, cols):
        g = grid_graph(rows, cols, weight=2.5)
        ref = reference_grid(rows, cols, weight=2.5)
        assert g.n_nodes == ref.n_nodes
        for got, want in ((g.i, ref.i), (g.j, ref.j), (g.w, ref.w)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_custom_weight_propagates(self):
        g = path_graph(4, weight=2.5)
        assert np.all(g.w == 2.5)


class TestRandomConnectedGraph:
    def test_size_and_connectivity(self):
        g = random_connected_graph(50, extra_edges=60, seed=7)
        assert g.n_nodes == 50
        assert g.m == 49 + 60
        assert connected_components(g)[0] == 1

    def test_weighted_range(self):
        g = random_connected_graph(30, extra_edges=20, seed=1, weighted=True)
        assert np.all(g.w >= 0.5)
        assert np.all(g.w <= 1.5)
        assert np.unique(g.w).size > 1

    def test_unweighted_edges_are_unit(self):
        g = random_connected_graph(30, extra_edges=20, seed=1, weighted=False)
        assert np.all(g.w == 1.0)

    def test_seed_determinism(self):
        g1 = random_connected_graph(40, extra_edges=25, seed=4)
        g2 = random_connected_graph(40, extra_edges=25, seed=4)
        assert np.array_equal(g1.i, g2.i)
        assert np.array_equal(g1.j, g2.j)
        assert np.array_equal(g1.w, g2.w)

    def test_different_seeds_differ(self):
        g1 = random_connected_graph(40, extra_edges=25, seed=4)
        g2 = random_connected_graph(40, extra_edges=25, seed=5)
        same = (np.array_equal(g1.i, g2.i) and np.array_equal(g1.j, g2.j)
                and np.array_equal(g1.w, g2.w))
        assert not same

    def test_tree_when_no_extra_edges(self):
        g = random_connected_graph(25, extra_edges=0, seed=2)
        assert g.m == 24
        assert connected_components(g)[0] == 1


class TestAgainstOneStepOracles:
    def test_random_connected_graph_matches_the_one_draw_at_a_time_oracle(self):
        for n, extra, seed, weighted in random_graph_cases():
            ref = reference_random_connected_graph(n, extra, seed, weighted)
            assert_same_bytes(random_connected_graph(n, extra, seed, weighted), ref)

    def test_attempt_cap_leaves_fewer_edges(self):
        # two nodes hold one edge; 300 attempts cannot add the five chords
        g = random_connected_graph(2, extra_edges=5, seed=0)
        assert g.m == 1

    def test_geometric_graph_matches_the_full_distance_matrix_oracle(self):
        for n, radius, seed, weighted in geometric_graph_cases():
            ref = reference_geometric_graph(n, radius, seed, weighted)
            assert_same_bytes(geometric_graph(n, radius, seed, weighted), ref)

    def test_medium_graphs_match_the_oracles(self):
        ref = reference_random_connected_graph(2000, 5000, seed=11)
        assert_same_bytes(random_connected_graph(2000, 5000, seed=11), ref)
        ref = reference_geometric_graph(800, 0.04, seed=12, weighted=True)
        assert_same_bytes(geometric_graph(800, 0.04, seed=12, weighted=True), ref)


class TestBenchmarkInputs:
    # graph 1000 of each benchmark workload (perfbench/workloads.py); the
    # benchmark's cached inputs and oracle values rest on these bytes
    @pytest.mark.parametrize("make, args, digest", [
        (random_connected_graph, (20000, 50000),
         "31a62fed63e4b7b99b89a2c4e9b3ee160356816b1bdf8ab218436d311d8b9d6f"),
        (geometric_graph, (3000, 0.04),
         "1c27a863a9e9fda88d85ebfd1cb0d61240b684ef61414a369a8e6b34c63b44b9"),
    ])
    def test_edge_bytes_are_pinned(self, make, args, digest):
        g = make(*args, seed=1000)
        assert hashlib.sha256(g.i.tobytes() + g.j.tobytes() + g.w.tobytes()).hexdigest() == digest

    def test_geometric_graph_builds_no_distance_matrix(self):
        # a 2000 x 2000 distance matrix alone is 32 MB
        tracemalloc.start()
        try:
            geometric_graph(2000, 0.03, seed=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_importing_lapeig_leaves_scipy_spatial_out(self):
        # it would add about 7 MB to the benchmark's measured peak RSS
        code = "import sys, lapeig; print('scipy.spatial' in sys.modules)"
        # the child imports the same lapeig as this process, installed or not
        package_root = str(Path(lapeig.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                          env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60, env=env)
        assert out.stdout.strip() == "False"


class TestGeometricGraph:
    def test_connected_and_deterministic(self):
        g1 = geometric_graph(200, 0.08, seed=1)
        g2 = geometric_graph(200, 0.08, seed=1)
        assert g1.n_nodes == 200
        assert connected_components(g1)[0] == 1
        assert np.array_equal(g1.i, g2.i)
        assert np.array_equal(g1.w, g2.w)

    def test_unweighted_by_default(self):
        g = geometric_graph(100, 0.1, seed=3)
        assert np.all(g.w == 1.0)

    def test_weighted_uses_inverse_distance(self):
        g = geometric_graph(100, 0.1, seed=3, weighted=True)
        # weights 1/(1 + dist) stay within (1/2, 1) for unit-square points
        assert np.all(g.w > 0.4)
        assert np.all(g.w < 1.0)
        assert np.unique(g.w).size > 1

    def test_benchmark_fixture_shape(self):
        # the pinned large fixture used by the solver-cost comparisons
        g = geometric_graph(1000, 0.05, seed=1)
        s = stats(g)
        assert s.n == 1000
        assert s.components == 1
        assert s.anzr > 3.0
