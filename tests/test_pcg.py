"""Deflated preconditioned conjugate gradients and the projected correction solve."""

import numpy as np
import pytest

from lapeig.generators import path_graph, random_connected_graph
from lapeig.graphs import build_laplacian
from lapeig.ic0 import ic0_factorize
from lapeig.pcg import DeflationBasis, jd_correction_solve, kernel_basis, pcg_solve
from lapeig.sparse import CsrMatrix, spmv
from tests.conftest import random_spd


class TestDeflationBasis:
    def test_rejects_non_orthonormal_columns(self):
        with pytest.raises(ValueError):
            DeflationBasis(np.ones((4, 2)))

    def test_empty_and_single(self):
        empty = DeflationBasis.empty(5)
        assert (empty.n, empty.k) == (5, 0)
        v = np.array([2.0, 0.0, 0.0])
        single = DeflationBasis.single(v)
        assert single.k == 1
        assert np.allclose(single.columns[:, 0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            DeflationBasis.single(np.zeros(3))

    def test_project_out_removes_span(self, rng):
        basis = DeflationBasis(np.linalg.qr(rng.standard_normal((12, 4)))[0])
        v = rng.standard_normal(12)
        w = basis.project_out(v)
        assert np.abs(basis.columns.T @ w).max() <= 1e-12
        # idempotent
        assert np.allclose(basis.project_out(w), w, atol=1e-14)

    def test_push_grows_in_place(self):
        basis = DeflationBasis(np.zeros((6, 0)), capacity=2)
        buffer = basis.buffer
        u = np.zeros(6)
        u[2] = 1.0
        basis.push(u)
        assert basis.k == 1
        assert basis.buffer is buffer
        assert np.array_equal(basis.columns[:, 0], u)
        assert np.array_equal(basis.project_out(np.ones(6)),
                              [1.0, 1.0, 0.0, 1.0, 1.0, 1.0])

    def test_columns_are_a_read_only_copy_of_the_input(self, rng):
        given = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        basis = DeflationBasis(given, capacity=5)
        assert basis.buffer.shape == (8, 5)
        assert basis.buffer.flags.f_contiguous
        assert np.array_equal(basis.columns, given)
        assert given.flags.writeable
        with pytest.raises(ValueError):
            basis.columns[0, 0] = 1.0

    def test_kernel_basis_constant_vector(self):
        kb = kernel_basis(4)
        assert np.allclose(kb.columns[:, 0], 0.5)

    def test_kernel_basis_component_indicators(self):
        kb = kernel_basis(5, labels=np.array([0, 0, 1, 1, 1]))
        assert kb.k == 2
        assert np.allclose(kb.columns[:2, 0], 1 / np.sqrt(2))
        assert np.allclose(kb.columns[2:, 1], 1 / np.sqrt(3))
        assert kb.columns[0, 1] == 0.0
        labels = np.array([0, 1, 0, 2, 1, 0])
        want = np.zeros((6, 3))
        for c, size in enumerate((3, 2, 1)):
            want[labels == c, c] = 1.0 / np.sqrt(size)
        assert np.array_equal(kernel_basis(6, labels=labels).columns, want)

    def test_kernel_basis_rejects_negative_labels(self):
        # a negative id would silently leave its node out of the kernel
        with pytest.raises(ValueError, match="nonnegative"):
            kernel_basis(3, labels=[0, 0, -1])

    def test_kernel_basis_rejects_empty_components(self):
        with pytest.raises(ValueError, match="component 1 has no node"):
            kernel_basis(3, labels=[0, 2, 2])


class TestPcgSolve:
    def test_matches_dense_solve(self, rng):
        for n in (5, 30, 100):
            dense = random_spd(n, rng)
            r, c = np.nonzero(dense)
            a = CsrMatrix.from_coo(n, r, c, dense[r, c], symmetric=True)
            b = rng.standard_normal(n)
            out = pcg_solve(lambda x, cnt: spmv(a, x, cnt), None, b, 1e-12, 10 * n)
            assert out.converged
            # conjugate directions terminate within n steps on these
            # well-conditioned systems; steepest descent would not
            assert out.iterations <= n
            want = np.linalg.solve(dense, b)
            assert np.linalg.norm(out.solution - want) <= 1e-8 * np.linalg.norm(want)

    def test_energy_norm_error_decreases(self, rng):
        n = 40
        dense = random_spd(n, rng)
        r, c = np.nonzero(dense)
        a = CsrMatrix.from_coo(n, r, c, dense[r, c], symmetric=True)
        b = rng.standard_normal(n)
        exact = np.linalg.solve(dense, b)
        errors = []
        def watch(x):
            d = x - exact
            errors.append(float(d @ (dense @ d)))
        pcg_solve(lambda x, cnt: spmv(a, x, cnt), None, b, 1e-12, 10 * n,
                  callback=watch)
        errors = np.array(errors)
        assert np.all(np.diff(errors) <= 1e-12 * max(1.0, errors[0]))

    def test_deflated_iterates_stay_in_complement(self, rng):
        l = build_laplacian(random_connected_graph(30, extra_edges=40, seed=2, weighted=True))
        kb = kernel_basis(30)
        b = kb.project_out(rng.standard_normal(30))
        overlaps = []
        out = pcg_solve(
            lambda x, cnt: spmv(l, x, cnt), ic0_factorize(l), b, 1e-10, 300,
            deflation=kb, callback=lambda x: overlaps.append(np.abs(kb.columns.T @ x).max()),
        )
        assert out.converged
        assert max(overlaps) <= 1e-9
        # solution actually solves the system on the complement
        assert np.linalg.norm(kb.project_out(spmv(l, out.solution)) - b) <= 1e-8

    def test_projects_operator_output_and_preconditioned_residual(self, rng):
        l = build_laplacian(random_connected_graph(30, extra_edges=40, seed=2, weighted=True))
        kb = kernel_basis(30)
        calls = []

        class CountingBasis:
            k = kb.k

            def project_out(self, v):
                calls.append(1)
                return kb.project_out(v)

        out = pcg_solve(lambda x, cnt: spmv(l, x, cnt), ic0_factorize(l),
                        rng.standard_normal(30), 1e-10, 300, deflation=CountingBasis())
        assert out.converged
        # b and the first z, then A p and z each iteration; the converged
        # last iteration needs no z
        assert len(calls) == 2 * out.iterations + 1

    def test_zero_rhs_short_circuits(self):
        a = CsrMatrix.identity(4)
        out = pcg_solve(lambda x, cnt: spmv(a, x, cnt), None, np.zeros(4), 1e-12, 10)
        assert out.converged and out.iterations == 0
        assert np.array_equal(out.solution, np.zeros(4))

    def test_indefinite_operator_stops_cleanly(self, rng):
        # shift an SPD matrix past its smallest eigenvalues
        dense = random_spd(12, rng)
        vals, vecs = np.linalg.eigh(dense)
        theta = 0.5 * (vals[1] + vals[2])
        shifted = dense - theta * np.eye(12)
        r, c = np.nonzero(shifted)
        a = CsrMatrix.from_coo(12, r, c, shifted[r, c], symmetric=True)
        # push the rhs toward the negative-curvature directions
        b = vecs[:, 0] + 0.1 * rng.standard_normal(12)
        out = pcg_solve(lambda x, cnt: spmv(a, x, cnt), None, b, 1e-12, 200)
        assert out.indefinite
        assert not out.converged
        assert np.all(np.isfinite(out.solution))


class TestCorrectionSolve:
    def test_direction_orthogonal_to_projector_columns(self, rng):
        l = build_laplacian(random_connected_graph(25, extra_edges=20, seed=6, weighted=True))
        f = ic0_factorize(l)
        kb = kernel_basis(25)
        u = kb.project_out(rng.standard_normal(25))
        u /= np.linalg.norm(u)
        theta = float(u @ spmv(l, u))
        residual = spmv(l, u) - theta * u
        q = DeflationBasis(kb.columns, capacity=2)
        q.push(u)
        for precond in (f, None):
            s = jd_correction_solve(l, theta, q, residual, precond, 1e-2, 20)
            assert abs(s @ u) <= 1e-9
            assert np.abs(q.columns.T @ s).max() <= 1e-9
            assert np.linalg.norm(s) > 0

    def test_exact_eigenvector_gets_usable_fallback(self):
        # zero residual would stall; the fallback path must not return zero
        l = build_laplacian(path_graph(3))
        kb = kernel_basis(3)
        u = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        q = DeflationBasis(kb.columns, capacity=2)
        q.push(u)
        residual = np.array([0.5, -1.0, 0.5])  # anything nonzero
        for precond in (ic0_factorize(l), None):
            s = jd_correction_solve(l, 1.0, q, residual, precond, 1e-2, 20)
            assert np.linalg.norm(s) > 0
            assert np.abs(q.columns.T @ s).max() <= 1e-9
