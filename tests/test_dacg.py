"""Tests for the deflation-accelerated conjugate gradient eigensolver."""

import numpy as np
import pytest

from lapeig.dacg import _plane_minimize, dacg_smallest
from lapeig.generators import (
    complete_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import build_laplacian
from lapeig.ic0 import identity_factor
from lapeig.pcg import DeflationBasis
from lapeig.results import SolverError, rayleigh_residuals
from lapeig.sparse import CsrMatrix, MvpCounter, spmv
from tests.conftest import dense_positive_pairs

P3_V2 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
P3_V3 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)


class TestPlaneMinimize:
    def test_plane_containing_an_eigenvector(self):
        # span{e2, v2} on P3 projects the pencil to diag(2, 1), so the
        # minimum is 1 and it is attained at v2 alone.
        a = build_laplacian(path_graph(3))
        x = np.array([0.0, 1.0, 0.0])
        mu, alpha, beta = _plane_minimize(x, spmv(a, x), P3_V2, spmv(a, P3_V2))
        assert mu == pytest.approx(1.0, abs=1e-14)
        assert alpha == pytest.approx(0.0, abs=1e-14)
        assert abs(beta) == pytest.approx(1.0, abs=1e-14)

    def test_steepest_descent_plane_reaches_the_kernel(self):
        # From e2 the negative gradient spans (1, 0, 1); the plane then
        # contains the constant vector, so the minimum quotient is 0.
        a = build_laplacian(path_graph(3))
        x = np.array([0.0, 1.0, 0.0])
        ax = spmv(a, x)
        p = -2.0 * (ax - (x @ ax) * x)
        mu, alpha, beta = _plane_minimize(x, ax, p, spmv(a, p))
        assert mu == pytest.approx(0.0, abs=1e-14)
        combo = alpha * x + beta * p
        combo /= np.linalg.norm(combo)
        assert np.max(np.abs(np.abs(combo) - 1.0 / np.sqrt(3.0))) < 1e-12

    def test_minimum_no_worse_than_either_axis(self):
        edges = random_connected_graph(20, extra_edges=15, seed=5)
        a = build_laplacian(edges)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(a.n)
            p = rng.standard_normal(a.n)
            mu, _, _ = _plane_minimize(x, spmv(a, x), p, spmv(a, p))
            qx = (x @ spmv(a, x)) / (x @ x)
            qp = (p @ spmv(a, p)) / (p @ p)
            assert mu <= min(qx, qp) + 1e-12

    def test_rejects_parallel_direction(self):
        a = build_laplacian(path_graph(3))
        x = np.array([0.0, 1.0, 0.0])
        ax = spmv(a, x)
        with pytest.raises(ValueError, match="parallel"):
            _plane_minimize(x, ax, 2.0 * x, 2.0 * ax)


class TestDacgSmallest:
    def test_path_p3_fiedler_pair(self):
        a = build_laplacian(path_graph(3))
        pairs, report = dacg_smallest(a, 1, delta=1e-8, seed=0)
        values, vectors, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(vectors[:, 0] @ P3_V2) == pytest.approx(1.0, abs=1e-7)
        assert report.converged

    def test_complete_k3_multiplicity_through_deflation(self):
        a = build_laplacian(complete_graph(3))
        pairs, _ = dacg_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([3.0, 3.0], abs=1e-7)

    def test_star_s4_three_pairs(self):
        a = build_laplacian(star_graph(3))
        pairs, _ = dacg_smallest(a, 3, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([1.0, 1.0, 4.0], abs=1e-7)

    def test_matches_dense_oracle_on_random_graph(self):
        edges = random_connected_graph(50, extra_edges=60, seed=7)
        oracle, a = dense_positive_pairs(edges, neig=5)
        pairs, _ = dacg_smallest(a, 5, delta=1e-6, seed=0)
        values, vectors, _ = pairs.positive()
        assert np.max(np.abs(values - oracle.values) / oracle.values) < 1e-5
        thetas, resids = rayleigh_residuals(a, vectors, MvpCounter())
        assert np.max(resids) <= 1e-6
        assert pairs.gram_defect() < 1e-8
        assert pairs.kernel_overlap() < 1e-8

    def test_deterministic_for_fixed_seed(self):
        edges = random_connected_graph(40, extra_edges=30, seed=3)
        a = build_laplacian(edges)
        p1, r1 = dacg_smallest(a, 3, delta=1e-6, seed=5)
        p2, r2 = dacg_smallest(a, 3, delta=1e-6, seed=5)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(p1.vectors, p2.vectors)
        assert r1.mvp == r2.mvp

    def test_exact_start_vector_converges_immediately(self):
        a = build_laplacian(path_graph(3))
        pairs, report = dacg_smallest(a, 1, delta=1e-6, x0=P3_V2)
        values, _, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert report.config["iterations_per_pair"][0] == 0

    def test_iteration_cap_reports_partial_progress(self):
        edges = random_connected_graph(60, extra_edges=80, seed=13)
        a = build_laplacian(edges)
        with pytest.raises(SolverError) as exc:
            dacg_smallest(a, 2, delta=1e-10, maxit_per_pair=2, seed=0)
        err = exc.value
        assert err.stalled_pair == 0
        assert err.partial.values.shape == (0,)

    def test_smaller_relative_gap_needs_more_iterations(self):
        # Diagonal spectrum 0, 1, 1 + g, 3, 4, ... with a shrinking gap
        # g: the first positive pair must get harder to isolate.  The
        # kernel here is e_0, and no preconditioner is used so that the
        # iteration count reflects the raw spectrum.
        n = 40
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal(n)
        counts = []
        for g in (0.8, 0.4, 0.2, 0.1):
            vals = np.concatenate(([0.0, 1.0, 1.0 + g],
                                   np.arange(3.0, float(n))))
            a = CsrMatrix.from_coo(n, np.arange(n), np.arange(n), vals)
            e0 = np.zeros(n)
            e0[0] = 1.0
            _, report = dacg_smallest(
                a, 1, delta=1e-8, f=identity_factor(n),
                null_basis=DeflationBasis.single(e0), x0=x0)
            counts.append(report.config["iterations_per_pair"][0])
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    def test_rejects_more_pairs_than_exist(self):
        a = build_laplacian(path_graph(3))
        with pytest.raises(ValueError, match="only 2 exist"):
            dacg_smallest(a, 3)
