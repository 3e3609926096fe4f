"""Tests for implicitly restarted Lanczos on the inverse operator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import lapeig.irlm
import lapeig.results
from lapeig.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import EdgeList, build_laplacian
from lapeig.irlm import irlm_smallest, ncv_for
from lapeig.results import SolverError, rayleigh_residuals
from lapeig.sparse import MvpCounter
from tests.conftest import dense_positive_pairs


class TestNcvFor:
    def test_anchor_points(self):
        assert ncv_for(1) == 15
        assert ncv_for(5) == 30
        assert ncv_for(20) == 60
        assert ncv_for(50) == 120

    def test_interpolates_between_anchors(self):
        assert ncv_for(2) == 19
        # the half-way tie 22.5 rounds to even
        assert ncv_for(3) == 22
        assert ncv_for(4) == 26
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


class TestIrlmSmallest:
    def test_path_p3_fiedler_pair(self):
        a = build_laplacian(path_graph(3))
        pairs, report = irlm_smallest(a, 1, delta=1e-6, seed=0)
        values, vectors, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        target = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert abs(vectors[:, 0] @ target) == pytest.approx(1.0, abs=1e-6)
        assert report.converged

    def test_complete_k3_double_eigenvalue(self):
        a = build_laplacian(complete_graph(3))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([3.0, 3.0], abs=1e-7)

    def test_star_s4_double_eigenvalue(self):
        a = build_laplacian(star_graph(3))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_restart_does_not_lose_accuracy(self):
        # The restarted process must still converge to the true
        # spectrum; compare against the dense oracle afterwards.
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        oracle, a = dense_positive_pairs(edges, neig=3)
        pairs, report = irlm_smallest(a, 3, ncv=6, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        # ARPACK counts no restarts; one shows as more solves than a basis takes
        assert report.outer_its > 6 + 1
        assert np.max(np.abs(values - oracle.values) /
                      oracle.values) < 1e-7

    def test_no_convergence_is_a_solver_error(self, monkeypatch):
        # one pass, no restart, on a basis too small for three pairs at 1e-10
        monkeypatch.setattr(lapeig.irlm, "_MAX_RESTARTS", 0)
        a = build_laplacian(random_connected_graph(30, extra_edges=25, seed=11))
        with pytest.raises(SolverError, match="No convergence"):
            irlm_smallest(a, 3, ncv=6, delta=1e-8, seed=0)

    def test_inner_pcg_stall_is_a_solver_error(self, monkeypatch):
        # one PCG iteration cannot reach delta_pcg on a graph with cycles
        monkeypatch.setattr(lapeig.irlm, "_MAXIT_INNER", 1)
        a = build_laplacian(random_connected_graph(40, extra_edges=60, seed=3))
        counter = MvpCounter()
        with pytest.raises(SolverError, match=r"^inner PCG stalled at relative residual "
                                              r"\S+ after 1 iterations \(target 1\.0e-08\)$"):
            irlm_smallest(a, 2, counter=counter)
        assert counter.tallies()[1:4] == (1, 0, 1)

    def test_loose_inner_solves_fail_at_the_first_judgement(self):
        # ARPACK's pairs are only as good as delta_pcg, here far above delta
        a = build_laplacian(random_connected_graph(300, extra_edges=600, seed=1))
        counter = MvpCounter()
        with pytest.raises(SolverError, match="^pair 0: Ritz vector has residual"):
            irlm_smallest(a, 3, delta_pcg=1e-2, counter=counter)
        # the judgement, then the one retry after an inverse-iteration step
        assert counter.verify == 2

    def test_cycle_c4_double_eigenvalue(self):
        a = build_laplacian(cycle_graph(4))
        pairs, _ = irlm_smallest(a, 2, delta=1e-8, seed=0)
        values, _, _ = pairs.positive()
        assert values == pytest.approx([2.0, 2.0], abs=1e-7)

    def test_basis_filling_the_graph_keeps_every_copy(self):
        # neig copies of 1e4 on a 7-node star: the basis takes all seven
        # columns, one more than the complement, since ARPACK's restart
        # vectors reach into the kernel
        edges = star_graph(6)
        a = build_laplacian(EdgeList(7, edges.i, edges.j, np.full(6, 1e4)))
        pairs, report = irlm_smallest(a, 5, seed=0)
        assert report.config["ncv"] == 7
        assert pairs.values == pytest.approx([1e4] * 5, rel=1e-9)

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

    def test_same_bits_in_a_fresh_process(self):
        # the start vector and any ARPACK restart vector come from the seed
        code = ("import hashlib; from lapeig.generators import random_connected_graph; "
                "from lapeig.graphs import build_laplacian; from lapeig.irlm import irlm_smallest; "
                "a = build_laplacian(random_connected_graph(300, extra_edges=400, seed=2)); "
                "p, r = irlm_smallest(a, 4, seed=9); "
                "print(hashlib.sha256(p.values.tobytes() + p.vectors.tobytes()).hexdigest(), r.mvp)")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(lapeig.irlm.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=120, env=env, check=True).stdout for _ in range(2)]
        assert outs[0] == outs[1] != ""

    @pytest.mark.skipif(not lapeig.irlm._EIGSH_TAKES_RNG, reason="eigsh takes no rng")
    def test_arpack_draws_from_the_seeded_generator(self, monkeypatch):
        seen = []

        def spy(*args, rng, **kwargs):
            seen.append(rng.bit_generator.state)
            return eigsh(*args, rng=rng, **kwargs)

        monkeypatch.setattr(lapeig.irlm, "eigsh", spy)
        a = build_laplacian(random_connected_graph(40, extra_edges=30, seed=3))
        irlm_smallest(a, 2, seed=5)
        # the generator that drew the start vector, handed on
        rng = np.random.default_rng(5)
        rng.standard_normal(a.n)
        assert seen == [rng.bit_generator.state]

    def test_explicit_start_vector_is_honored(self):
        a = build_laplacian(path_graph(3))
        v0 = np.array([1.0, 0.0, -1.0])
        pairs, report = irlm_smallest(a, 1, delta=1e-6, v0=v0)
        values, _, _ = pairs.positive()
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        assert report.converged

    def test_start_vector_in_the_deflated_span_fails_before_any_product(self):
        a = build_laplacian(random_connected_graph(40, 60, seed=3))
        counter = MvpCounter()
        with pytest.raises(SolverError, match="^pair 0: start vector lies in the "
                                               "deflated subspace$"):
            irlm_smallest(a, 2, v0=np.ones(40), counter=counter)
        assert counter.count == 0

    def test_rejects_more_pairs_than_exist(self):
        a = build_laplacian(path_graph(3))
        with pytest.raises(ValueError, match="only 2 exist"):
            irlm_smallest(a, 3)

    def test_rejects_nonpositive_neig(self):
        a = build_laplacian(path_graph(3))
        with pytest.raises(ValueError):
            irlm_smallest(a, 0)

    def test_basis_above_the_dense_cap_fails_before_any_product(self):
        a = build_laplacian(random_connected_graph(600, extra_edges=900, seed=1))
        counter = MvpCounter()
        with pytest.raises(ValueError, match="dense solver cap 512"):
            irlm_smallest(a, 511, counter=counter)
        assert counter.count == 0

    def test_basis_above_the_dense_cap_fails_before_the_set_up(self, monkeypatch):
        def no_factor(a):
            raise AssertionError("IC(0) factored for a call the cap refuses")

        monkeypatch.setattr(lapeig.results, "ic0_factorize", no_factor)
        a = build_laplacian(random_connected_graph(600, extra_edges=900, seed=1))
        with pytest.raises(ValueError, match="dense solver cap 512"):
            irlm_smallest(a, 511)
        with pytest.raises(ValueError, match="only 599 exist"):
            irlm_smallest(a, 700)  # too many pairs is still solver_setup's message

    def test_basis_is_capped_at_the_dense_solver(self, monkeypatch):
        monkeypatch.setattr(lapeig.irlm, "DENSE_EIG_MAX_DIM", 12)
        a = build_laplacian(random_connected_graph(60, extra_edges=80, seed=4))
        assert ncv_for(3) > 12
        pairs, report = irlm_smallest(a, 3)
        assert report.config["ncv"] == 12
        _, resid = rayleigh_residuals(a, pairs.vectors)
        assert resid.max() <= 1e-6
