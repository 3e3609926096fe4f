"""Orthogonalization and the dense symmetric eigensolver used for projections."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from lapeig import kernels
from lapeig.kernels import GramSchmidtBreakdown, _norm, dense_sym_eig, mgs_orthonormalize
from lapeig.pcg import DeflationBasis


class TestMgs:
    def test_unit_result_orthogonal_to_basis(self, rng):
        basis = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        v = rng.standard_normal(20)
        u, nrm = mgs_orthonormalize(v, DeflationBasis(basis))
        assert np.abs(basis.T @ u).max() <= 1e-12
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-13)
        assert nrm > 0

    def test_returned_norm_is_the_orthogonal_residual(self, rng):
        basis = np.linalg.qr(rng.standard_normal((15, 4)))[0]
        v = rng.standard_normal(15)
        residual = v - basis @ (basis.T @ v)
        _, nrm = mgs_orthonormalize(v, DeflationBasis(basis))
        assert nrm == pytest.approx(np.linalg.norm(residual), rel=1e-10)

    def test_vector_in_span_breaks_down(self, rng):
        basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
        inside = basis @ np.array([0.3, -2.0, 1.1])
        with pytest.raises(GramSchmidtBreakdown):
            mgs_orthonormalize(inside, DeflationBasis(basis))

    def test_nearly_dependent_vector_still_orthogonalized(self, rng):
        # second sweep must clean up a vector at 1e-9 from the span
        basis = np.linalg.qr(rng.standard_normal((30, 10)))[0]
        stray = rng.standard_normal(30)
        stray -= basis @ (basis.T @ stray)
        v = basis[:, 0] + 1e-9 * stray / np.linalg.norm(stray)
        u, _ = mgs_orthonormalize(v, DeflationBasis(basis))
        assert np.abs(basis.T @ u).max() <= 1e-12

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_vector_breaks_down(self, rng, k):
        basis = DeflationBasis(np.linalg.qr(rng.standard_normal((10, 3)))[0][:, :k])
        with pytest.raises(GramSchmidtBreakdown, match="zero vector"):
            mgs_orthonormalize(np.zeros(10), basis)

    def test_one_norm_per_sweep_besides_the_inputs(self, rng, monkeypatch):
        # the last sweep's norm is the output norm, not formed again
        calls = []

        def counted(v):
            calls.append(v)
            return _norm(v)

        monkeypatch.setattr(kernels, "_norm", counted)
        q = np.linalg.qr(rng.standard_normal((50, 4)))[0]
        stray = rng.standard_normal(50)
        # no basis takes no sweep, a random vector one, one 1e-3 off the span two
        for cols, v, sweeps in ((0, rng.standard_normal(50), 0),
                                (4, rng.standard_normal(50), 1),
                                (4, q[:, 0] + 1e-3 * stray / np.linalg.norm(stray), 2)):
            calls.clear()
            mgs_orthonormalize(v, DeflationBasis(q[:, :cols]))
            assert len(calls) == 1 + sweeps

    def test_empty_basis_normalizes(self):
        empty = DeflationBasis(np.zeros((2, 0)))
        u, nrm = mgs_orthonormalize(np.array([3.0, 4.0]), empty)
        assert np.allclose(u, [0.6, 0.8])
        assert nrm == pytest.approx(5.0)

    @pytest.mark.parametrize("k", [1, 2, 11, 41])
    def test_bitwise_the_raw_array_sweep(self, rng, k):
        # the sweep as mgs_orthonormalize wrote it out before project_out took over
        def oracle(v, q):
            v = np.array(v, dtype=np.float64)
            before = np.linalg.norm(v)
            for sweeps in (1, 2):
                v -= q @ (q.T @ v)
                after = np.linalg.norm(v)
                if after >= 0.7 * before:
                    break
                before = after
            norm_out = np.linalg.norm(v)
            return v / norm_out, norm_out, sweeps

        basis = DeflationBasis(np.linalg.qr(rng.standard_normal((3000, k)))[0], k + 3)
        q = basis.columns
        stray = rng.standard_normal(3000)
        # a random vector takes one sweep, one 1e-3 off the span takes two
        for v, sweeps in ((rng.standard_normal(3000), 1),
                          (q[:, -1] + 1e-3 * stray / np.linalg.norm(stray), 2)):
            u, nrm = mgs_orthonormalize(v, basis)
            u_ref, nrm_ref, sweeps_ref = oracle(v, q)
            assert sweeps_ref == sweeps
            assert u.tobytes() == u_ref.tobytes()
            assert nrm == nrm_ref


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
        # a Lanczos basis grows a tridiagonal projected matrix; LAPACK's
        # tridiagonal solver is the reference
        for n in (2, 9, 50):
            alpha = rng.standard_normal(n)
            beta = rng.standard_normal(n - 1)
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            vals_t, _ = eigh_tridiagonal(alpha, beta)
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

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_exactly_symmetric_input_gives_the_symmetrized_bytes(self, rng, n):
        # an exactly symmetric h skips the symmetrization, which would give
        # back h bit for bit
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
        h = m + m.T
        vals, vecs = dense_sym_eig(h)
        want_vals, want_vecs = np.linalg.eigh(0.5 * (h + h.T))
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_nearly_symmetric_input_is_symmetrized(self, rng, n):
        # an asymmetry within 1e-12 relative is averaged away, not refused
        m = rng.standard_normal((n, n))
        h = m + m.T
        h[0, 1] *= 1.0 + 1e-14
        assert not (h == h.T).all()
        vals, vecs = dense_sym_eig(h)
        want_vals, want_vecs = np.linalg.eigh(0.5 * (h + h.T))
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()

    def test_still_refuses_input_off_by_1e9(self):
        h = np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            dense_sym_eig(h)

    def test_rejects_oversized_problems(self):
        with pytest.raises(ValueError):
            dense_sym_eig(np.eye(513))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 3001, 20000])
def test_norm_is_bitwise_numpys(rng, n):
    # every vector norm in the solvers relies on this: for a 1-D float64
    # vector, np.linalg.norm computes sqrt(v.dot(v)) on v raveled in memory
    # order, so a strided view is summed as its contiguous copy would be
    for scale in (1e-140, 1.0, 1e140):
        m = rng.standard_normal((n, 3)) * scale
        for v in (m[:, 0].copy(), m[:, 1], np.asfortranarray(m)[:, 1], m[::-1, 2]):
            assert np.float64(_norm(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()
    for v in (np.zeros(n), np.full(n, -0.0)):
        assert np.float64(_norm(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()
