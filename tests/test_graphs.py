"""Graph loading, Laplacian assembly, components, and stats."""

import io

import numpy as np
import pytest

from lapeig.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import (
    EdgeList,
    GraphFormatError,
    build_laplacian,
    connected_components,
    csr_connected_components,
    largest_component,
    load_edge_list,
    stats,
    write_matrix_market,
)
from lapeig.sparse import spmv


class TestEdgeList:
    def test_canonical_order_and_swap(self):
        g = EdgeList(4, [3, 0], [1, 2], [1.0, 2.0])
        assert g.pairs() == [(0, 2, 2.0), (1, 3, 1.0)]
        assert g.m == 2

    def test_rejects_self_loop_duplicate_and_bad_weight(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeList(3, [1], [1], [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            EdgeList(3, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="weight"):
            EdgeList(3, [0], [1], [0.0])
        with pytest.raises(ValueError, match="out of range"):
            EdgeList(3, [0], [3], [1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="non-finite weight"):
            EdgeList(3, [0, 1], [1, 2], [1.0, bad])

    def test_from_pairs_empty(self):
        g = EdgeList.from_pairs(2, [])
        assert g.m == 0 and g.n_nodes == 2


class TestEdgeListParser:
    def test_basic_file_with_comments(self):
        text = b"# nodes first\n3\n0 1 1.0  # tail comment\n\n1 2 2.5\n"
        g = load_edge_list(text)
        assert g.n_nodes == 3
        assert g.pairs() == [(0, 1, 1.0), (1, 2, 2.5)]

    def test_accepts_stream_and_bytes(self):
        text = "2\n0 1 1.0\n"
        from_stream = load_edge_list(io.StringIO(text))
        from_bytes = load_edge_list(text.encode())
        assert from_stream.pairs() == from_bytes.pairs()

    def test_error_lines_are_reported(self):
        cases = [
            (b"x\n", "node count"),
            (b"3\n0 1\n", "expected"),
            (b"3\n0 5 1.0\n", "out of range"),
            (b"3\n1 1 1.0\n", "self-loop"),
            (b"3\n0 1 -2.0\n", "weight"),
            (b"", "empty input"),
        ]
        for blob, frag in cases:
            with pytest.raises(GraphFormatError, match=frag):
                load_edge_list(blob)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_weight_reported_with_line(self, bad):
        with pytest.raises(GraphFormatError, match="non-finite weight") as err:
            load_edge_list(f"3\n0 1 1.0\n1 2 {bad}\n".encode())
        assert err.value.line == 3

    def test_duplicate_needs_symmetrize(self):
        blob = b"3\n0 1 1.0\n1 0 4.0\n"
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(blob)
        assert err.value.line == 3
        g = load_edge_list(blob, symmetrize=True)
        assert g.pairs() == [(0, 1, 4.0)]  # max weight wins


class TestMatrixMarketParser:
    def test_symmetric_lower_triangle(self):
        blob = (b"%%MatrixMarket matrix coordinate real symmetric\n"
                b"% comment\n3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n")
        g = load_edge_list(blob, format="mtx")
        # diagonal dropped, off-diagonal magnitudes kept
        assert g.n_nodes == 3
        assert g.pairs() == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_pattern_and_integer_fields(self):
        pat = b"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
        assert load_edge_list(pat, format="mtx").pairs() == [(0, 1, 1.0)]
        num = b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 3\n"
        assert load_edge_list(num, format="mtx").pairs() == [(0, 1, 3.0)]

    def test_bad_inputs(self):
        cases = [
            (b"not a header\n", "header"),
            (b"%%MatrixMarket matrix array real general\n", "unsupported"),
            (b"%%MatrixMarket matrix coordinate complex symmetric\n", "field"),
            (b"%%MatrixMarket matrix coordinate real skew-symmetric\n", "symmetry"),
            (b"%%MatrixMarket matrix coordinate real general\n2 3 1\n2 1 1.0\n",
             "square"),
            (b"%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 1.0\n",
             "promised"),
            (b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 0.0\n",
             "zero"),
        ]
        for blob, frag in cases:
            with pytest.raises(GraphFormatError, match=frag):
                load_edge_list(blob, format="mtx")

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("row", [2, 1])
    def test_non_finite_value_reported_with_line(self, bad, row):
        # diagonal entries carry no edge but still make the file malformed
        blob = (f"%%MatrixMarket matrix coordinate real symmetric\n"
                f"3 3 2\n2 1 -1.0\n{row} 1 {bad}\n").encode()
        with pytest.raises(GraphFormatError, match="non-finite value") as err:
            load_edge_list(blob, format="mtx")
        assert err.value.line == 4

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_edge_list(b"", format="csv")


class TestLaplacian:
    def test_small_known_matrix(self):
        g = EdgeList(3, [0, 1], [1, 2], [2.0, 1.0])
        l = build_laplacian(g)
        want = np.array([[2.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(l.toarray(), want)
        assert l.nnz == g.n_nodes + 2 * g.m

    def test_zero_row_sums_and_explicit_diagonal(self, rng):
        for seed in range(4):
            g = random_connected_graph(30, extra_edges=25, seed=seed, weighted=True)
            l = build_laplacian(g)
            dense = l.toarray()
            bound = 1e-12 * np.abs(dense).max()
            assert np.abs(spmv(l, np.ones(30))).max() <= bound
            assert l.nnz == 30 + 2 * g.m
            # isolated-free graphs still store every diagonal slot
            assert np.array_equal(l.diagonal(), np.diag(dense))

    def test_isolated_node_keeps_diagonal_zero(self):
        g = EdgeList(3, [0], [1], [1.0])
        l = build_laplacian(g)
        assert l.nnz == 5
        assert l.diagonal()[2] == 0.0

    def test_quadratic_form_is_weighted_edge_energy(self, rng):
        g = random_connected_graph(40, extra_edges=50, seed=3, weighted=True)
        l = build_laplacian(g)
        for _ in range(100):
            x = rng.standard_normal(40)
            got = float(x @ spmv(l, x))
            want = float(np.sum(g.w * (x[g.i] - x[g.j]) ** 2))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_positive_semidefinite(self):
        g = random_connected_graph(25, extra_edges=30, seed=9, weighted=True)
        vals = np.linalg.eigvalsh(build_laplacian(g).toarray())
        assert vals.min() >= -1e-12

    def test_rejects_overflowing_degree(self):
        # finite weights whose sum at node 0 overflows to inf
        g = EdgeList(3, [0, 0, 1], [1, 2, 2], [1e308, 1e308, 1.0])
        with pytest.raises(ValueError, match="degree of node 0 is not finite"):
            build_laplacian(g)


class TestComponents:
    def test_matches_dense_kernel_dimension(self, rng):
        # traversal count equals the number of tiny Laplacian eigenvalues
        for seed in range(6):
            parts = rng.integers(1, 4)
            blocks = []
            offset = 0
            triples = []
            for _ in range(parts):
                size = int(rng.integers(1, 18))
                if size > 1:
                    sub = random_connected_graph(size, extra_edges=2, seed=int(rng.integers(1 << 30)))
                    triples += [(a + offset, b + offset, w) for a, b, w in sub.pairs()]
                offset += size
            g = EdgeList.from_pairs(offset, triples)
            count, labels = connected_components(g)
            vals = np.linalg.eigvalsh(build_laplacian(g).toarray())
            lam_max = max(vals.max(), 1.0)
            assert count == int(np.sum(vals < 1e-8 * lam_max))
            assert labels[0] == 0 and labels.min() == 0 and labels.max() == count - 1

    def test_csr_component_count_matches_edge_traversal(self):
        g = EdgeList(5, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 1.0])
        l = build_laplacian(g)
        assert connected_components(g)[0] == 2
        assert csr_connected_components(l)[0] == 2

    def test_components_numbered_by_smallest_node(self):
        # three interleaved components {0, 4}, {1, 6}, {2, 3, 5}
        g = EdgeList(7, [0, 1, 3, 5], [4, 6, 2, 2], [1.0, 2.0, 0.5, 3.0])
        want = [0, 1, 2, 2, 0, 2, 1]
        for count, labels in (connected_components(g),
                              csr_connected_components(build_laplacian(g))):
            assert count == 3
            assert labels.dtype == np.int64
            assert labels.tolist() == want

    def test_largest_component_extraction(self):
        g = EdgeList(6, [0, 1, 4], [1, 2, 5], [1.0, 2.0, 1.0])
        sub, node_map = largest_component(g)
        assert sub.n_nodes == 3
        assert sub.pairs() == [(0, 1, 1.0), (1, 2, 2.0)]
        assert list(node_map) == [0, 1, 2, -1, -1, -1]


class TestStats:
    def test_counts(self):
        s = stats(star_graph(4))
        assert (s.n, s.nnz, s.components) == (5, 13, 1)
        assert s.anzr == pytest.approx(13 / 5)

    def test_disconnected_counted(self):
        g = EdgeList(4, [0, 2], [1, 3], [1.0, 1.0])
        assert stats(g).components == 2


class TestMatrixMarketWriter:
    def test_round_trip(self):
        for g in (path_graph(5), cycle_graph(6), complete_graph(4),
                  random_connected_graph(20, extra_edges=15, seed=2, weighted=True)):
            l = build_laplacian(g)
            blob = write_matrix_market(l)
            back = load_edge_list(blob.encode(), format="mtx")
            assert back.n_nodes == g.n_nodes
            assert np.array_equal(back.i, g.i)
            assert np.array_equal(back.j, g.j)
            assert np.allclose(back.w, g.w, rtol=0, atol=0)
