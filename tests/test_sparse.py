"""CSR container and matrix-vector product."""

import tracemalloc

import numpy as np
import pytest

from lapeig.sparse import CsrMatrix, MvpCounter, spmv


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
        with pytest.raises(ValueError):
            CsrMatrix.from_coo(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_identity_and_diagonal(self):
        eye = CsrMatrix.identity(4)
        assert np.array_equal(eye.toarray(), np.eye(4))
        assert np.array_equal(small_csr().diagonal(), [2.0, 2.0, 2.0])

    def test_row_views(self):
        cols, vals = small_csr().row(1)
        assert list(cols) == [0, 1, 2]
        assert list(vals) == [-1.0, 2.0, -1.0]

    def test_symmetry_defect(self):
        assert small_csr().symmetry_defect() == 0.0
        skew = CsrMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 3.0])
        assert skew.symmetry_defect() == pytest.approx(2.0)

    def test_symmetry_defect_stays_sparse(self):
        # a dense n x n copy at n = 5000 would need 200 MB
        eye = CsrMatrix.identity(5000)
        tracemalloc.start()
        try:
            defect = eye.symmetry_defect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect == 0.0
        assert peak < 10_000_000

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
