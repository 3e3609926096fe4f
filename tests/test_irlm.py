"""Tests for the inverse-operator Lanczos solver with thick restarts."""

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
from lapeig.ic0 import ic0_factorize
from lapeig.irlm import (
    LanczosState,
    _sorted_ritz,
    _thick_restart,
    inverse_lanczos_step,
    irlm_smallest,
    ncv_for,
)
from lapeig.pcg import kernel_basis
from lapeig.results import SolverError, rayleigh_residuals
from lapeig.sparse import MvpCounter
from tests.conftest import dense_positive_pairs


def _loop_projected_matrix(state):
    """The projected matrix filled entry by entry, as a reference."""
    k = state.head_vals.shape[0]
    t = len(state.alpha)
    h = np.zeros((k + t, k + t))
    h[np.arange(k), np.arange(k)] = state.head_vals
    if k and t:
        h[:k, k] = state.head_coupling
        h[k, :k] = state.head_coupling
    for idx in range(t):
        h[k + idx, k + idx] = state.alpha[idx]
        if idx + 1 < t:
            h[k + idx, k + idx + 1] = state.beta[idx]
            h[k + idx + 1, k + idx] = state.beta[idx]
    return h


def _setup(edges):
    a = build_laplacian(edges)
    return a, ic0_factorize(a), kernel_basis(a.n)


class TestNcvFor:
    def test_anchor_points(self):
        assert ncv_for(1) == 15
        assert ncv_for(5) == 30
        assert ncv_for(20) == 60
        assert ncv_for(50) == 120

    def test_interpolates_between_anchors(self):
        assert ncv_for(10) == 40
        assert ncv_for(35) == 90

    def test_extrapolates_past_the_last_anchor(self):
        assert ncv_for(51) == 122
        assert ncv_for(60) == 140

    def test_monotone_nondecreasing(self):
        values = [ncv_for(k) for k in range(1, 81)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ncv_for(0)


class TestInverseLanczosStep:
    def test_exact_eigenvector_start_breaks_down(self):
        # (1,0,-1)/sqrt(2) is the eigenvector for eigenvalue 1 of the
        # path P3, so the inverse operator maps it to itself: alpha = 1
        # and the recurrence remainder vanishes.
        a, f, nb = _setup(path_graph(3))
        v1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        state = LanczosState(v1, ncv=5)
        inverse_lanczos_step(state, a, f, 1e-12, nb)
        assert state.alpha[0] == pytest.approx(1.0, abs=1e-9)
        assert state.breakdown

    def test_breakdown_leaves_no_pending_vector(self):
        a, f, nb = _setup(path_graph(3))
        v1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        state = LanczosState(v1, ncv=5)
        inverse_lanczos_step(state, a, f, 1e-12, nb)
        assert not state.has_pending
        with pytest.raises(SolverError):
            inverse_lanczos_step(state, a, f, 1e-12, nb)

    def test_generic_start_grows_and_interlaces(self):
        a, f, nb = _setup(star_graph(4))
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=4)
        inverse_lanczos_step(state, a, f, 1e-12, nb)
        assert not state.breakdown
        assert state.beta[0] > 0.0
        t1 = state.projected_matrix()[0, 0]
        inverse_lanczos_step(state, a, f, 1e-12, nb)
        mu = np.sort(np.linalg.eigvalsh(state.projected_matrix()))
        assert mu[0] <= t1 + 1e-12 <= mu[1] + 2e-12

    def test_counter_charges_inner_iterations(self):
        a, f, nb = _setup(random_connected_graph(12, extra_edges=8, seed=2))
        rng = np.random.default_rng(0)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=6)
        counter = MvpCounter()
        inverse_lanczos_step(state, a, f, 1e-8, nb, counter=counter)
        assert counter.count == state.last_inner_its
        assert counter.count > 0


class TestLanczosRelation:
    def test_projected_matrix_matches_dense_pseudoinverse(self):
        # With near-exact inner solves and a start vector orthogonal to
        # the kernel, the projected matrix equals V' pinv(L) V.
        edges = random_connected_graph(25, extra_edges=15, seed=4)
        a, f, nb = _setup(edges)
        dense = a.toarray()
        pinv = np.linalg.pinv(dense)

        rng = np.random.default_rng(7)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=10)
        for _ in range(8):
            inverse_lanczos_step(state, a, f, 1e-13, nb)
        vmat = state.basis.columns[:, : state.m]
        t_m = state.projected_matrix()
        assert np.max(np.abs(t_m - vmat.T @ pinv @ vmat)) < 1e-8

    def test_basis_orthonormal_and_kernel_free(self):
        edges = random_connected_graph(25, extra_edges=15, seed=4)
        a, f, nb = _setup(edges)
        rng = np.random.default_rng(7)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=10)
        for _ in range(8):
            inverse_lanczos_step(state, a, f, 1e-13, nb)
        cols = state.basis.columns
        gram = cols.T @ cols
        assert np.max(np.abs(gram - np.eye(cols.shape[1]))) < 1e-10
        ones = np.ones(a.n) / np.sqrt(a.n)
        assert np.max(np.abs(cols.T @ ones)) < 1e-10

    def test_ritz_values_improve_monotonically(self):
        # T_m is the leading principal submatrix of T_{m+1}, so by
        # Cauchy interlacing each descending-sorted Ritz value can only
        # grow as the subspace expands.
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        a, f, nb = _setup(edges)
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=12)
        prev = None
        for _ in range(10):
            inverse_lanczos_step(state, a, f, 1e-12, nb)
            mu = np.sort(np.linalg.eigvalsh(state.projected_matrix()))[::-1]
            if prev is not None:
                assert np.all(mu[: prev.shape[0]] >= prev - 1e-12)
            prev = mu


class TestThickRestart:
    def _grown_state(self, neig=2, ncv=8):
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        a, f, nb = _setup(edges)
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal(a.n)
        v1 -= v1.mean()
        v1 /= np.linalg.norm(v1)
        state = LanczosState(v1, ncv=ncv)
        while state.m < ncv:
            inverse_lanczos_step(state, a, f, 1e-12, nb)
        return a, f, nb, state

    def test_keeps_best_ritz_values_exactly(self):
        a, f, nb, state = self._grown_state(neig=2, ncv=8)
        mu = np.sort(np.linalg.eigvalsh(state.projected_matrix()))[::-1]
        _thick_restart(state, _sorted_ritz(state), 2, nb)
        assert state.head_vals.shape == (3,)
        assert np.max(np.abs(state.head_vals - mu[:3])) < 1e-12

    def test_contracted_basis_is_orthonormal(self):
        a, f, nb, state = self._grown_state(neig=2, ncv=8)
        _thick_restart(state, _sorted_ritz(state), 2, nb)
        cols = state.basis.columns
        assert cols.shape[1] == 4
        gram = cols.T @ cols
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10
        ones = np.ones(a.n) / np.sqrt(a.n)
        assert np.max(np.abs(cols.T @ ones)) < 1e-10

    def test_projected_matrix_is_arrowhead_after_growth(self):
        a, f, nb, state = self._grown_state(neig=2, ncv=8)
        _thick_restart(state, _sorted_ritz(state), 2, nb)
        inverse_lanczos_step(state, a, f, 1e-12, nb)
        h = state.projected_matrix()
        k = state.head_vals.shape[0]
        assert h.shape == (k + 1, k + 1)
        assert np.allclose(np.diag(h)[:k], state.head_vals)
        assert np.allclose(h[:k, k], state.head_coupling)
        assert np.allclose(h[k, :k], state.head_coupling)
        off_head = h[:k, :k] - np.diag(state.head_vals)
        assert np.max(np.abs(off_head)) == 0.0
        for _ in range(3):
            inverse_lanczos_step(state, a, f, 1e-12, nb)
        assert np.array_equal(state.projected_matrix(), _loop_projected_matrix(state))

    def test_restart_does_not_lose_accuracy(self):
        # The restarted process must still converge to the true
        # spectrum; compare against the dense oracle afterwards.
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        oracle, a = dense_positive_pairs(edges, neig=3)
        pairs, report = irlm_smallest(a, 3, ncv=6, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert report.config["restarts"] > 0
        assert np.max(np.abs(values - oracle.values) /
                      oracle.values) < 1e-7


class TestIrlmSmallest:
    def test_path_p3_fiedler_pair(self):
        a, f, nb = _setup(path_graph(3))
        pairs, report = irlm_smallest(a, 1, delta=1e-6, seed=0)
        values, vectors, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        target = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert abs(vectors[:, 0] @ target) == pytest.approx(1.0, abs=1e-6)
        assert report.converged

    def test_complete_k3_double_eigenvalue(self):
        a, _, _ = _setup(complete_graph(3))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([3.0, 3.0], abs=1e-7)

    def test_star_s4_double_eigenvalue(self):
        a, _, _ = _setup(star_graph(3))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_cycle_c4_double_eigenvalue(self):
        a, _, _ = _setup(cycle_graph(4))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([2.0, 2.0], abs=1e-7)

    def test_matches_dense_oracle_on_random_graph(self):
        edges = random_connected_graph(50, extra_edges=60, seed=7)
        oracle, a = dense_positive_pairs(edges, neig=5)
        pairs, report = irlm_smallest(a, 5, delta=1e-6, seed=0)
        values, vectors, _ = pairs.positive()
        ref = oracle.values
        assert np.max(np.abs(values - ref) / ref) < 1e-5
        thetas, resids = rayleigh_residuals(a, vectors, MvpCounter())
        assert np.max(resids) <= 1e-6
        assert pairs.gram_defect() < 1e-8
        assert pairs.kernel_overlap() < 1e-8

    def test_deterministic_for_fixed_seed(self):
        edges = random_connected_graph(40, extra_edges=30, seed=3)
        a = build_laplacian(edges)
        p1, r1 = irlm_smallest(a, 3, delta=1e-6, seed=5)
        p2, r2 = irlm_smallest(a, 3, delta=1e-6, seed=5)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)
        assert r1.mvp == r2.mvp

    def test_explicit_start_vector_is_honored(self):
        a, _, _ = _setup(path_graph(3))
        v0 = np.array([1.0, 0.0, -1.0])
        pairs, report = irlm_smallest(a, 1, delta=1e-6, v0=v0)
        values, _, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        assert report.converged

    def test_rejects_more_pairs_than_exist(self):
        a, _, _ = _setup(path_graph(3))
        with pytest.raises(ValueError, match="only 2 exist"):
            irlm_smallest(a, 3)

    def test_rejects_nonpositive_neig(self):
        a, _, _ = _setup(path_graph(3))
        with pytest.raises(ValueError):
            irlm_smallest(a, 0)
