"""Orthogonalization and the dense symmetric eigensolver used for projections."""

import numpy as np
import pytest

from lapeig.kernels import (
    GramSchmidtBreakdown,
    dense_sym_eig,
    mgs_orthonormalize,
    tridiag_eig,
)


class TestMgs:
    def test_unit_result_orthogonal_to_basis(self, rng):
        basis = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        v = rng.standard_normal(20)
        u, nrm = mgs_orthonormalize(v, basis)
        assert np.abs(basis.T @ u).max() <= 1e-12
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-13)
        assert nrm > 0

    def test_returned_norm_is_the_orthogonal_residual(self, rng):
        basis = np.linalg.qr(rng.standard_normal((15, 4)))[0]
        v = rng.standard_normal(15)
        residual = v - basis @ (basis.T @ v)
        _, nrm = mgs_orthonormalize(v, basis)
        assert nrm == pytest.approx(np.linalg.norm(residual), rel=1e-10)

    def test_vector_in_span_breaks_down(self, rng):
        basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        inside = basis @ np.array([0.3, -2.0, 1.1])
        with pytest.raises(GramSchmidtBreakdown):
            mgs_orthonormalize(inside, basis)

    def test_nearly_dependent_vector_still_orthogonalized(self, rng):
        # second sweep must clean up a vector at 1e-9 from the span
        basis = np.linalg.qr(rng.standard_normal((30, 10)))[0]
        stray = rng.standard_normal(30)
        stray -= basis @ (basis.T @ stray)
        v = basis[:, 0] + 1e-9 * stray / np.linalg.norm(stray)
        u, _ = mgs_orthonormalize(v, basis)
        assert np.abs(basis.T @ u).max() <= 1e-12

    def test_empty_basis_normalizes(self):
        u, nrm = mgs_orthonormalize(np.array([3.0, 4.0]), np.zeros((2, 0)))
        assert np.allclose(u, [0.6, 0.8])
        assert nrm == pytest.approx(5.0)


class TestTridiagEig:
    def test_three_point_stencil_values(self):
        # alpha (1,2,1), beta (-1,-1) has spectrum {0, 1, 3}
        vals, vecs = tridiag_eig(np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0]))
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-14)
        t = np.diag([1.0, 2.0, 1.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)
        assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-14
        assert np.abs(t @ vecs - vecs * vals).max() <= 1e-13

    def test_single_entry(self):
        vals, vecs = tridiag_eig(np.array([-2.5]), np.zeros(0))
        assert vals.tolist() == [-2.5]
        assert vecs.tolist() == [[1.0]]

    def test_matches_numpy_on_random_tridiagonals(self, rng):
        for n in (1, 2, 7, 50):
            alpha = rng.standard_normal(n)
            beta = rng.standard_normal(n - 1) if n > 1 else np.zeros(0)
            vals, vecs = tridiag_eig(alpha, beta)
            t = np.diag(alpha)
            if n > 1:
                t += np.diag(beta, 1) + np.diag(beta, -1)
            want = np.linalg.eigvalsh(t)
            assert np.abs(vals - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            assert np.abs(t @ vecs - vecs * vals).max() <= 1e-10


class TestDenseSymEig:
    def test_two_by_two_closed_form(self):
        vals, vecs = dense_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(vals, [1.0, 3.0], atol=1e-14)
        want = np.array([1.0, -1.0]) / np.sqrt(2)
        assert min(np.linalg.norm(vecs[:, 0] - want),
                   np.linalg.norm(vecs[:, 0] + want)) <= 1e-14

    def test_matches_numpy_oracle(self, rng):
        for n in (1, 3, 12, 50):
            m = rng.standard_normal((n, n))
            h = 0.5 * (m + m.T)
            vals, vecs = dense_sym_eig(h)
            want = np.linalg.eigvalsh(h)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(vals - want).max() <= 1e-10 * scale
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12
            assert np.abs(h @ vecs - vecs * vals).max() <= 1e-10 * scale

    def test_agrees_with_tridiag_path(self, rng):
        for n in (2, 9, 50):
            alpha = rng.standard_normal(n)
            beta = rng.standard_normal(n - 1)
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            vals_t, _ = tridiag_eig(alpha, beta)
            vals_d, _ = dense_sym_eig(t)
            assert np.abs(vals_t - vals_d).max() <= 1e-10 * max(1.0, np.abs(vals_t).max())

    def test_handles_multiplicities(self, rng):
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        h = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0, 5.0]) @ q.T
        vals, vecs = dense_sym_eig(0.5 * (h + h.T))
        assert np.allclose(vals, [1, 1, 1, 2, 2, 5, 5, 5], atol=1e-12)
        assert np.abs(vecs.T @ vecs - np.eye(8)).max() <= 1e-12

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_oversized_problems(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.eye(513))
