"""Tests for the deterministic graph family generators."""

import numpy as np
import pytest

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
