"""Graph loading, Laplacian assembly, components, and stats."""

import io
import tracemalloc
import warnings

import numpy as np
import pytest

import lapeig.graphs
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

    def test_canonical_input_skips_the_sort(self, monkeypatch):
        pairs = [(0, 2, 1.0), (1, 2, 2.0), (1, 3, 0.5)]
        want = EdgeList.from_pairs(4, pairs[::-1])

        def no_sort(keys):
            raise AssertionError("canonical edges were sorted again")

        monkeypatch.setattr(np, "lexsort", no_sort)
        got = EdgeList.from_pairs(4, pairs)
        for name in ("i", "j", "w"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        with pytest.raises(AssertionError, match="sorted again"):
            EdgeList.from_pairs(4, pairs[::-1])

    @pytest.mark.parametrize("blob, fmt", [
        (b"3\n1 0 1.0\n2 1 2.0\n", "edgelist"),
        (b"3\n1 0 1.0\n2 1 1_0\n", "edgelist"),  # the line loop reads this one
        (b"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.0\n3 2 2.0\n", "mtx"),
    ])
    def test_reader_orders_the_edges_once(self, monkeypatch, blob, fmt):
        calls = []

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        canonical = lapeig.graphs._canonical
        monkeypatch.setattr(lapeig.graphs, "_canonical", counted)
        g = load_edge_list(blob, format=fmt)
        assert len(calls) == 1
        assert g.n_nodes == 3 and [(i, j) for i, j, _ in g.pairs()] == [(0, 1), (1, 2)]
        assert not (g.i.flags.writeable or g.j.flags.writeable or g.w.flags.writeable)

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

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        blob = b"3\n0 1 1.0\n1 2 \xff\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(blob.replace(b"\n", b"\r"))  # a path ends a line at \r too
        for source in (blob, path):
            with pytest.raises(GraphFormatError, match="byte 0xff is not UTF-8") as err:
                load_edge_list(source)
            assert err.value.line == 3

    def test_integers_past_int64_do_not_parse(self):
        # int() reads them, but no node index or count that large fits the arrays
        with pytest.raises(GraphFormatError, match="could not parse edge") as err:
            load_edge_list(f"3\n0 1 1.0\n{2**64} 1 1.0\n".encode())
        assert err.value.line == 3
        with pytest.raises(GraphFormatError, match="bad node count") as err:
            load_edge_list(f"{2**63}\n0 1 1.0\n".encode())
        assert err.value.line == 1
        mtx = f"%%MatrixMarket matrix coordinate pattern general\n{2**63} {2**63} 1\n2 1\n"
        with pytest.raises(GraphFormatError, match="bad size line") as err:
            load_edge_list(mtx.encode(), format="mtx")
        assert err.value.line == 2


class TestHeaderOnlyInputs:
    @pytest.mark.parametrize("blob, fmt, n", [
        (b"5\n", "edgelist", 5),
        (b"# nothing but a node count\n\n  7  # trailing\n\n", "edgelist", 7),
        (b"%%MatrixMarket matrix coordinate real symmetric\n4 4 0\n", "mtx", 4),
        (b"%%MatrixMarket matrix coordinate pattern general\n% none\n3 3 0", "mtx", 3),
    ])
    def test_edgeless_graph_and_no_warning(self, blob, fmt, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_edge_list(blob, format=fmt)
        assert (g.n_nodes, g.m) == (n, 0)
        assert g.i.dtype == np.int64 and g.w.dtype == np.float64


def _traced_read(path):
    """load_edge_list(path) and the tracemalloc peak of the read."""
    tracemalloc.start()
    try:
        g = load_edge_list(path)
        return g, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderScaling:
    # 200,000 edges in a 6 MB file.  Under tracemalloc a loop keeping a
    # tuple of Python numbers per edge peaked at 60.6 MB and a whole-array
    # reader with one bytes object per field at 46.4 MB.  Read through
    # np.loadtxt the file peaked at 21.7 MB, and at 19.1 MB once the
    # edges were no longer ordered a second time (the bound is 1.2 times
    # 21.7); a file loadtxt refuses is read by the line loop into array
    # columns.
    @pytest.fixture(scope="class")
    def ring(self):
        n = 50_000
        i = np.tile(np.arange(n), 4)
        j = (i + np.repeat(np.arange(1, 5), n)) % n
        w = np.random.default_rng(0).random(i.size) + 0.5
        return f"{n}\n" + "".join(
            f"{a} {b} {c!r}\n" for a, b, c in zip(i.tolist(), j.tolist(), w.tolist()))

    def test_peak_memory_stays_below_per_line_tuples(self, tmp_path, ring):
        path = tmp_path / "ring4.txt"
        path.write_text(ring)
        g, peak = _traced_read(path)
        assert g.m == 200_000
        assert peak < 26_000_000

    def test_refused_file_reads_the_same_arrays(self, tmp_path, ring):
        clean, refused = tmp_path / "ring4.txt", tmp_path / "ring4-noted.txt"
        clean.write_text(ring + "0 25000 10.0\n")
        refused.write_text(ring + "0 25000 1_0\n")  # int() and float() read 1_0, loadtxt not
        want = load_edge_list(clean)
        g, peak = _traced_read(refused)
        for name in ("i", "j", "w"):
            assert getattr(g, name).tobytes() == getattr(want, name).tobytes()
        assert peak < 46_400_000


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

    @pytest.mark.parametrize("n, i, j, count", [
        (6, [1, 4], [3, 5], 4), (3, [], [], 3), (1, [], [], 1),
        # no array of n entries is made, so a hostile node count is counted
        (10**13, [0], [1], 10**13 - 1)])
    def test_isolated_nodes_counted(self, n, i, j, count):
        assert stats(EdgeList(n, i, j, [1.0] * len(i))).components == count


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
