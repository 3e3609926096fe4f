"""CSR container and matrix-vector product."""

import numpy as np
import pytest

from lapeig.generators import geometric_graph, random_connected_graph, star_graph
from lapeig.graphs import build_laplacian
from lapeig.sparse import CsrMatrix, MvpCounter, spmv


def reference_from_coo(n, rows, cols, vals):
    """CSR arrays by a lexicographic sort of the triplets: what from_coo
    must give bit for bit."""
    order = np.lexsort((cols, rows))
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, rows + 1, 1)
    return np.cumsum(row_ptr), cols[order], vals[order]


def small_csr():
    # [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    return CsrMatrix(
        3,
        row_ptr=[0, 2, 5, 7],
        col_idx=[0, 1, 0, 1, 2, 1, 2],
        values=[2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        symmetric=True,
    )


class TestCsrMatrix:
    def test_toarray_matches_construction(self):
        a = small_csr()
        want = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert np.array_equal(a.toarray(), want)
        assert a.nnz == 7

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            CsrMatrix(2, [1, 2, 3], [0, 1, 0], [1.0, 1.0, 1.0])

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 2], [0, 2], [1.0, 1.0])

    def test_rejects_value_length_mismatch(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 2], [0, 1], [1.0])

    def test_from_coo_sorts_within_rows(self):
        a = CsrMatrix.from_coo(2, [1, 0, 1], [1, 0, 0], [3.0, 1.0, 2.0])
        assert np.array_equal(a.toarray(), [[1.0, 0.0], [2.0, 3.0]])

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"duplicate entry at \(0, 1\)"):
            CsrMatrix.from_coo(2, [0, 0], [1, 1], [1.0, 2.0])

    @pytest.mark.parametrize("rows, cols", [
        ([-1], [0]), ([2], [0]), ([0], [-1]), ([0], [2])])
    def test_from_coo_rejects_an_index_out_of_range(self, rows, cols):
        # scipy's COO check refuses it before any CSR array is built
        with pytest.raises(ValueError, match="index"):
            CsrMatrix.from_coo(2, rows, cols, [1.0])

    def test_from_coo_rejects_triplets_of_unequal_length(self):
        with pytest.raises(ValueError, match="^rows, cols and vals must be 1-D arrays "):
            CsrMatrix.from_coo(2, [0, 1], [0], [1.0, 1.0])

    def test_from_coo_goes_through_the_constructor(self, monkeypatch):
        calls = []
        original = CsrMatrix.__init__

        def spy(self, *args, **kwargs):
            calls.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(CsrMatrix, "__init__", spy)
        a = CsrMatrix.from_coo(3, [2, 0], [1, 0], [1.0, 2.0], symmetric=True)
        assert calls == [3]
        assert a.symmetric and not a.values.flags.writeable

    def test_from_coo_matches_a_sort_bit_for_bit(self, rng):
        # shuffled entries with explicit zeros and empty rows
        for n in (1, 7, 60):
            dense = rng.standard_normal((n, n))
            dense[rng.random((n, n)) > 0.4] = 0.0
            rows, cols = np.nonzero((dense != 0) | np.eye(n, dtype=bool))
            perm = rng.permutation(rows.size)
            rows, cols = rows[perm], cols[perm]
            vals = dense[rows, cols]
            a = CsrMatrix.from_coo(n, rows, cols, vals)
            for got, want in zip((a.row_ptr, a.col_idx, a.values),
                                 reference_from_coo(n, rows, cols, vals)):
                assert got.tobytes() == want.astype(got.dtype).tobytes()

    def test_rejects_unsorted_or_repeated_columns(self):
        for cols in ([1, 0], [0, 0]):
            with pytest.raises(ValueError, match="increase strictly"):
                CsrMatrix(2, [0, 2, 2], cols, [1.0, 1.0])
        # the order restarts at each row
        assert CsrMatrix(2, [0, 1, 2], [1, 0], [1.0, 1.0]).nnz == 2

    def test_identity_and_diagonal(self):
        eye = CsrMatrix.identity(4)
        assert np.array_equal(eye.toarray(), np.eye(4))
        assert np.array_equal(small_csr().diagonal(), [2.0, 2.0, 2.0])

    def test_row_views(self):
        cols, vals = small_csr().row(1)
        assert list(cols) == [0, 1, 2]
        assert list(vals) == [-1.0, 2.0, -1.0]

    def test_arrays_are_frozen(self):
        a = small_csr()
        with pytest.raises(ValueError):
            a.values[0] = 9.0


class TestSpmv:
    def test_matches_dense_reference(self, rng):
        for n in (1, 3, 17, 100):
            dense = rng.standard_normal((n, n))
            dense[rng.random((n, n)) > 0.3] = 0.0
            r, c = np.nonzero(dense)
            a = CsrMatrix.from_coo(n, r, c, dense[r, c])
            for _ in range(5):
                x = rng.standard_normal(n)
                got = spmv(a, x)
                want = dense @ x
                scale = max(1.0, float(np.linalg.norm(want)))
                assert np.linalg.norm(got - want) / scale <= 1e-13

    @pytest.mark.parametrize("graph", [
        lambda: geometric_graph(800, 0.06),
        lambda: random_connected_graph(2000, extra_edges=5000, seed=4, weighted=True),
        lambda: star_graph(300, weight=3.0),
    ])
    def test_bitwise_the_scipy_product(self, rng, graph):
        a = build_laplacian(graph())
        block = rng.standard_normal((a.n, 2))
        for x in (block[:, 0].copy(), block[:, 1]):  # contiguous, then strided
            assert spmv(a, x).tobytes() == (a.csr @ x).tobytes()

    def test_empty_rows_give_zero(self):
        a = CsrMatrix.from_coo(3, [0], [2], [5.0])
        assert np.array_equal(spmv(a, np.array([1.0, 1.0, 2.0])), [10.0, 0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spmv(small_csr(), np.ones(4))

    def test_counter_increments_per_product(self):
        a = small_csr()
        counter = MvpCounter()
        for k in range(3):
            spmv(a, np.ones(3), counter)
        assert counter.count == 3
        counter.increment(4)
        assert counter.count == 7
        spmv(a, np.ones(3), counter, "inner")
        spmv(a, np.ones(3), counter, "verify")
        assert counter.tallies() == (7, 1, 1, 0, 0)
        assert counter.count == 9
