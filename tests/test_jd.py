"""Tests for the Jacobi-Davidson solver and its workspace primitives."""

import numpy as np
import pytest

from lapeig.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import build_laplacian
from lapeig.kernels import dense_sym_eig
from lapeig.jd import JdWorkspace, jd_smallest
from lapeig.pcg import DeflationBasis, kernel_basis
from lapeig.results import SolverError, rayleigh_residuals
from lapeig.sparse import MvpCounter, spmv
from tests.conftest import dense_positive_pairs


def _workspace(n, m_min, m_max, guard=None):
    """Workspace after guard (default: none) with room for m_max columns."""
    cols = np.zeros((n, 0)) if guard is None else guard.columns
    return JdWorkspace(DeflationBasis(cols, cols.shape[1] + m_max), m_min, m_max)


def _filled_workspace(a, m, rng, m_min=2, m_max=None):
    # a random orthonormal V orthogonal to the kernel guard
    ws = _workspace(a.n, m_min, m_max or max(m, m_min + 1), kernel_basis(a.n))
    x = rng.standard_normal((a.n, m))
    basis, _ = np.linalg.qr(x - x.mean(axis=0))
    for j in range(m):
        ws.append(basis[:, j], spmv(a, basis[:, j]))
    return ws


def _check_consistent(ws, dense):
    """W = A V and H = V'AV hold for the columns in use."""
    assert np.max(np.abs(ws.w - dense @ ws.v)) < 1e-9
    assert np.max(np.abs(ws.h - ws.v.T @ dense @ ws.v)) < 1e-9


class TestJdWorkspace:
    def test_rejects_bad_restart_bounds(self):
        with pytest.raises(ValueError):
            _workspace(10, 5, 5)
        with pytest.raises(ValueError):
            _workspace(10, 0, 4)

    def test_append_builds_projected_matrix(self):
        edges = random_connected_graph(20, extra_edges=15, seed=6)
        a = build_laplacian(edges)
        rng = np.random.default_rng(1)
        ws = _filled_workspace(a, 5, rng)
        dense = a.toarray()
        ref = ws.v.T @ dense @ ws.v
        assert ws.m == 5
        assert np.max(np.abs(ws.h - ref)) < 1e-12
        assert np.array_equal(ws.h, ws.h.T)
        # V sits right after the guard in one buffer
        assert np.array_equal(ws.block, np.hstack([ws.guard.columns, ws.v]))

    def test_image_basis_tracks_products(self):
        edges = random_connected_graph(20, extra_edges=15, seed=6)
        a = build_laplacian(edges)
        rng = np.random.default_rng(2)
        ws = _filled_workspace(a, 4, rng)
        dense = a.toarray()
        assert np.max(np.abs(ws.w - dense @ ws.v)) < 1e-12
        ws.rotate(dense_sym_eig(ws.h))
        _check_consistent(ws, dense)
        assert np.max(np.abs(ws.h - np.diag(np.diag(ws.h)))) == 0.0


class TestRayleighRitzExtract:
    def test_exact_eigenvector_gives_zero_residual(self):
        a = build_laplacian(path_graph(3))
        ws = _workspace(3, 1, 3)
        v = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        ws.append(v, spmv(a, v))
        theta, u, r = ws.rotate(dense_sym_eig(ws.h))
        assert theta == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(r)) < 1e-14
        assert abs(u @ v) == pytest.approx(1.0, abs=1e-14)

    def test_coordinate_vector_hand_example(self):
        # V = {e2} on the path P3: theta = 2 and the residual is the
        # second Laplacian column minus 2 e2, i.e. (-1, 0, -1).
        a = build_laplacian(path_graph(3))
        ws = _workspace(3, 1, 3)
        e2 = np.array([0.0, 1.0, 0.0])
        ws.append(e2, spmv(a, e2))
        theta, u, r = ws.rotate(dense_sym_eig(ws.h))
        assert theta == pytest.approx(2.0, abs=1e-14)
        assert r == pytest.approx([-1.0, 0.0, -1.0], abs=1e-14)

    def test_diagonal_projection_picks_min_entry(self):
        edges = random_connected_graph(12, extra_edges=6, seed=3)
        oracle, a = dense_positive_pairs(edges, neig=4)
        ws = _workspace(a.n, 2, 6)
        for j in range(4):
            v = oracle.vectors[:, j]
            ws.append(v, spmv(a, v))
        assert np.max(np.abs(np.diag(np.diag(ws.h)) - ws.h)) < 1e-10
        theta, _, _ = ws.rotate(dense_sym_eig(ws.h))
        assert theta == pytest.approx(oracle.values[0], abs=1e-10)

    def test_residual_assembled_without_new_product(self):
        edges = random_connected_graph(20, extra_edges=15, seed=6)
        a = build_laplacian(edges)
        rng = np.random.default_rng(4)
        ws = _filled_workspace(a, 5, rng)
        counter = MvpCounter()
        theta, u, r = ws.rotate(dense_sym_eig(ws.h))
        # u is V's first column, the smallest Ritz vector
        assert np.array_equal(u, ws.v[:, 0])
        assert theta == ws.h[0, 0] == np.diag(ws.h).min()
        direct = spmv(a, u, counter) - theta * u
        assert counter.count == 1
        assert np.max(np.abs(r - direct)) < 1e-11
        assert abs(r @ u) < 1e-10


class TestJdRestart:
    def test_contracts_to_m_min_and_keeps_best_theta(self):
        edges = random_connected_graph(25, extra_edges=20, seed=9)
        a = build_laplacian(edges)
        rng = np.random.default_rng(5)
        ws = _filled_workspace(a, 8, rng, m_min=3, m_max=8)
        theta_before, _, _ = ws.rotate(dense_sym_eig(ws.h))
        ws.restart()
        assert ws.m == 3
        theta_after, _, _ = ws.rotate(dense_sym_eig(ws.h))
        assert theta_after == pytest.approx(theta_before, abs=1e-12)

    def test_rebuilds_consistent_workspace(self):
        edges = random_connected_graph(25, extra_edges=20, seed=9)
        a = build_laplacian(edges)
        rng = np.random.default_rng(5)
        ws = _filled_workspace(a, 8, rng, m_min=3, m_max=8)
        ws.rotate(dense_sym_eig(ws.h))
        ws.restart()
        dense = a.toarray()
        gram = ws.block.T @ ws.block
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        _check_consistent(ws, dense)
        # growing again after the restart keeps both relations
        v, _ = np.linalg.qr(np.hstack([ws.block, rng.standard_normal((a.n, 1))]))
        ws.append(v[:, -1], spmv(a, v[:, -1]))
        _check_consistent(ws, dense)

    def test_single_vector_retention(self):
        a = build_laplacian(path_graph(3))
        rng = np.random.default_rng(6)
        ws = _filled_workspace(a, 2, rng, m_min=1, m_max=2)
        theta_before, _, _ = ws.rotate(dense_sym_eig(ws.h))
        ws.restart()
        assert ws.m == 1
        theta_after, _, _ = ws.rotate(dense_sym_eig(ws.h))
        assert theta_after == pytest.approx(theta_before, abs=1e-12)

    def test_rejects_restart_below_retention(self):
        a = build_laplacian(path_graph(4))
        rng = np.random.default_rng(7)
        ws = _filled_workspace(a, 2, rng, m_min=2, m_max=4)
        with pytest.raises(SolverError):
            ws.restart()


class TestJdLock:
    def test_lock_grows_the_guard_and_keeps_the_other_ritz_vectors(self):
        edges = random_connected_graph(25, extra_edges=20, seed=9)
        a = build_laplacian(edges)
        rng = np.random.default_rng(8)
        ws = _filled_workspace(a, 5, rng, m_min=2, m_max=6)
        ws.rotate(dense_sym_eig(ws.h))
        vals = np.diag(ws.h).copy()
        u = ws.v[:, 0].copy()
        k = ws.guard.k
        ws.lock(u)
        assert ws.guard.k == k + 1
        assert np.array_equal(ws.guard.columns[:, -1], u)
        assert ws.m == 4
        assert np.array_equal(np.diag(ws.h), vals[1:])
        _check_consistent(ws, a.toarray())


class TestJdSmallest:
    def test_path_p3_fiedler_pair(self):
        a = build_laplacian(path_graph(3))
        pairs, report = jd_smallest(a, 1, delta=1e-8, seed=0)
        values, vectors, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        target = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert abs(vectors[:, 0] @ target) == pytest.approx(1.0, abs=1e-7)
        assert report.converged

    def test_cycle_c4_fiedler_value(self):
        a = build_laplacian(cycle_graph(4))
        pairs, _ = jd_smallest(a, 1, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values[0] == pytest.approx(2.0, abs=1e-7)

    def test_exact_start_vector_needs_no_correction_solve(self):
        a = build_laplacian(path_graph(3))
        v0 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        pairs, report = jd_smallest(a, 1, delta=1e-8, v0=v0)
        values, _, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert report.outer_its == 0
        assert report.inner_its_total == 0

    def test_multiplicities_resolved_by_deflation(self):
        for edges, expect in [
            (complete_graph(3), [3.0, 3.0]),
            (star_graph(3), [1.0, 1.0]),
            (cycle_graph(4), [2.0, 2.0]),
        ]:
            a = build_laplacian(edges)
            pairs, _ = jd_smallest(a, 2, delta=1e-8, seed=0)
            values, _, _ = pairs.positive()
            assert values == pytest.approx(expect, abs=1e-7)

    def test_matches_dense_oracle_on_random_graph(self):
        edges = random_connected_graph(50, extra_edges=60, seed=7)
        oracle, a = dense_positive_pairs(edges, neig=5)
        pairs, report = jd_smallest(a, 5, delta=1e-6, seed=0)
        values, vectors, _ = pairs.positive()
        assert np.max(np.abs(values - oracle.values) / oracle.values) < 1e-5
        thetas, resids = rayleigh_residuals(a, vectors, MvpCounter())
        assert np.max(resids) <= 1e-6
        assert pairs.gram_defect() < 1e-8
        assert pairs.kernel_overlap() < 1e-8

    def test_deterministic_for_fixed_seed(self):
        edges = random_connected_graph(40, extra_edges=30, seed=3)
        a = build_laplacian(edges)
        p1, r1 = jd_smallest(a, 3, delta=1e-6, seed=5)
        p2, r2 = jd_smallest(a, 3, delta=1e-6, seed=5)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)
        assert r1.mvp == r2.mvp

    def test_theta_never_rises_between_restarts(self):
        # Between restarts the search space only grows, so the smallest
        # Ritz value must be nonincreasing while hunting one pair.
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        a = build_laplacian(edges)
        rng = np.random.default_rng(8)
        ws = _workspace(a.n, 3, 9, kernel_basis(a.n))
        v = rng.standard_normal(a.n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        ws.append(v, spmv(a, v))
        thetas = []
        while ws.m < 9:
            theta, u, r = ws.rotate(dense_sym_eig(ws.h))
            thetas.append(theta)
            cand = rng.standard_normal(a.n)
            cand -= ws.block @ (ws.block.T @ cand)
            cand /= np.linalg.norm(cand)
            ws.append(cand, spmv(a, cand))
        theta, _, _ = ws.rotate(dense_sym_eig(ws.h))
        thetas.append(theta)
        diffs = np.diff(np.asarray(thetas))
        assert np.all(diffs <= 1e-12)

    def test_rejects_more_pairs_than_exist(self):
        a = build_laplacian(path_graph(3))
        with pytest.raises(ValueError, match="only 2 exist"):
            jd_smallest(a, 3)
