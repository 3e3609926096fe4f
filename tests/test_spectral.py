"""Tests for Fiedler vectors, partitioning and pseudoinverse approximations."""

import math

import numpy as np
import pytest

from lapeig.bench import SOLVERS
from lapeig.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)
from lapeig.graphs import EdgeList, build_laplacian
from lapeig.spectral import (
    PinvApprox,
    cut_weight,
    estimate_lambda_max,
    fiedler,
    fiedler_order,
    gap_ratios,
    make_pinv,
    partition_relaxed,
    pinv_apply,
    pinv_dense,
    sign_partition,
)
from tests.conftest import dense_positive_pairs


class TestFiedler:
    def test_path_p3_value_and_vector(self):
        a = build_laplacian(path_graph(3))
        lam, v = fiedler(a, delta=1e-8)
        assert lam == pytest.approx(1.0, abs=1e-8)
        target = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert abs(v @ target) == pytest.approx(1.0, abs=1e-7)

    def test_every_solver_agrees(self):
        a = build_laplacian(cycle_graph(4))
        for solver in SOLVERS:
            lam, _ = fiedler(a, solver=solver, delta=1e-8)
            assert lam == pytest.approx(2.0, abs=1e-7)

    def test_disconnected_graph_is_rejected(self):
        g = EdgeList(4, [0], [1], [1.0])
        a = build_laplacian(g)
        with pytest.raises(ValueError, match="3 components"):
            fiedler(a)

    def test_unknown_solver_is_rejected(self):
        a = build_laplacian(path_graph(3))
        with pytest.raises(ValueError, match="pick one of dacg, jd, irlm$"):
            fiedler(a, solver="lobpcg")

    def test_order_is_a_stable_argsort(self):
        order = fiedler_order(np.array([0.3, -0.2, 0.3, -0.5]))
        assert list(order) == [3, 1, 0, 2]


class TestPartition:
    def test_cycle_c4_even_split(self):
        edges = cycle_graph(4)
        pairs, _ = dense_positive_pairs(edges)
        x, value = partition_relaxed(pairs, 2, 2)
        assert value == pytest.approx(2.0, abs=1e-10)
        # constraints: sum n1 - n2 = 0 and x'x = n1 n2 / n ... scaled form
        assert x.sum() == pytest.approx(0.0, abs=1e-10)

    def test_path_p4_uneven_split_value(self):
        edges = path_graph(4)
        pairs, _ = dense_positive_pairs(edges)
        lam2 = 2.0 - np.sqrt(2.0)
        x, value = partition_relaxed(pairs, 1, 3)
        assert value == pytest.approx((3.0 / 4.0) * lam2, abs=1e-10)
        assert x.sum() == pytest.approx((1 - 3) / 2.0, abs=1e-10)

    def test_relaxed_objective_matches_quadratic_form(self):
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        pairs, a = dense_positive_pairs(edges)
        dense = a.toarray()
        for n1 in (5, 12, 15):
            x, value = partition_relaxed(pairs, n1, 30 - n1)
            assert x @ dense @ x == pytest.approx(value, abs=1e-8)

    def test_indicator_shift_constraint(self):
        # components of x + (n2 - n1)/(2n) must take two values with
        # multiplicities tracking the requested sizes in the relaxation
        edges = random_connected_graph(20, extra_edges=12, seed=3)
        pairs, _ = dense_positive_pairs(edges)
        n1, n2 = 7, 13
        x, _ = partition_relaxed(pairs, n1, n2)
        assert x.sum() == pytest.approx((n1 - n2) / 2.0, abs=1e-10)
        v2 = pairs.vectors[:, 0]
        assert x @ v2 == pytest.approx(np.sqrt(n1 * n2 / 20.0) *
                                       np.sign(x @ v2), abs=1e-10)

    def test_size_validation(self):
        edges = path_graph(4)
        pairs, _ = dense_positive_pairs(edges)
        with pytest.raises(ValueError):
            partition_relaxed(pairs, 1, 2)
        with pytest.raises(ValueError):
            partition_relaxed(pairs, 0, 4)

    def test_sign_partition_sizes_and_stability(self):
        x = np.array([0.9, 0.1, 0.1, -0.7])
        labels = sign_partition(x, 2, 2)
        assert sorted(labels) == [1, 1, 2, 2]
        assert labels[0] == 1
        # tie between entries 1 and 2 resolves by index order
        assert labels[1] == 1
        assert labels[2] == 2

    def test_cut_weight_counts_crossing_edges(self):
        edges = cycle_graph(4)
        labels = np.array([1, 1, 2, 2])
        assert cut_weight(edges, labels) == 2.0
        labels = np.array([1, 2, 1, 2])
        assert cut_weight(edges, labels) == 4.0

    def test_relaxed_value_bounds_brute_force_cut(self):
        # spot check of the lower-bound property on one weighted graph
        edges = random_connected_graph(8, extra_edges=6, seed=21)
        pairs, _ = dense_positive_pairs(edges)
        n = 8
        for n1 in range(1, n // 2 + 1):
            _, value = partition_relaxed(pairs, n1, n - n1)
            best = math.inf
            for mask in range(1, 1 << n):
                if bin(mask).count("1") != n1:
                    continue
                labels = np.array([1 if mask >> v & 1 else 2
                                   for v in range(n)])
                best = min(best, cut_weight(edges, labels))
            assert value <= best + 1e-10


class TestLambdaMax:
    def test_close_to_dense_extreme(self):
        edges = random_connected_graph(40, extra_edges=40, seed=6)
        a = build_laplacian(edges)
        true_max = np.linalg.eigvalsh(a.toarray())[-1]
        est = estimate_lambda_max(a)
        assert est <= true_max + 1e-12
        assert est >= 0.5 * true_max

    def test_edgeless_graph_gives_zero(self):
        a = build_laplacian(EdgeList(5, [], [], []))
        assert estimate_lambda_max(a) == 0.0

    def test_counter_charges_iterations(self):
        from lapeig.sparse import MvpCounter

        a = build_laplacian(path_graph(10))
        counter = MvpCounter()
        estimate_lambda_max(a, iters=7, counter=counter)
        assert counter.count == 7


class TestPinvApprox:
    def test_truncated_complete_k3(self):
        # K3 pseudoinverse is (1/3)(I - J/3); with all positive pairs
        # kept the truncated form reproduces it exactly.
        edges = complete_graph(3)
        pairs, _ = dense_positive_pairs(edges)
        p = make_pinv(pairs, 2, kind="truncated")
        ref = (np.eye(3) - np.full((3, 3), 1.0 / 3.0)) / 3.0
        assert np.max(np.abs(pinv_dense(p) - ref)) < 1e-12

    def test_full_rank_truncation_matches_dense_pinv(self):
        edges = random_connected_graph(30, extra_edges=30, seed=12)
        pairs, a = dense_positive_pairs(edges)
        p = make_pinv(pairs, 29, kind="truncated")
        ref = np.linalg.pinv(a.toarray())
        assert np.max(np.abs(pinv_dense(p) - ref)) < 1e-8

    def test_apply_agrees_with_dense(self):
        edges = random_connected_graph(25, extra_edges=20, seed=9)
        pairs, a = dense_positive_pairs(edges)
        p = make_pinv(pairs, 5, kind="shifted", sigma=2.0)
        mat = pinv_dense(p)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(25)
            assert np.max(np.abs(pinv_apply(p, v) - mat @ v)) < 1e-10

    def test_zero_pairs_shifted_is_scaled_projector(self):
        edges = complete_graph(3)
        pairs, _ = dense_positive_pairs(edges)
        p = make_pinv(pairs, 0, kind="shifted", sigma=2.0)
        v = np.array([1.0, 2.0, 6.0])
        expect = (v - v.mean()) / 2.0
        assert pinv_apply(p, v) == pytest.approx(expect, abs=1e-12)

    def test_shifted_never_worse_than_truncated(self):
        edges = random_connected_graph(60, extra_edges=80, seed=15)
        pairs, a = dense_positive_pairs(edges)
        ref = np.linalg.pinv(a.toarray())
        for k in (2, 5, 10):
            pt = make_pinv(pairs, k, kind="truncated")
            ps = make_pinv(pairs, k, kind="shifted", sigma="midpoint", a=a)
            err_t = np.linalg.norm(ref - pinv_dense(pt))
            err_s = np.linalg.norm(ref - pinv_dense(ps))
            assert err_s <= err_t + 1e-12

    def test_sigma_policies(self):
        edges = random_connected_graph(20, extra_edges=10, seed=4)
        pairs, a = dense_positive_pairs(edges)
        p = make_pinv(pairs, 3, kind="shifted", sigma="lambdak", a=a)
        assert p.sigma == pytest.approx(pairs.values[2])
        p2 = make_pinv(pairs, 3, kind="shifted", sigma=1.25, a=a)
        assert p2.sigma == 1.25
        with pytest.raises(ValueError):
            make_pinv(pairs, 3, kind="shifted", sigma="nearest", a=a)

    def test_validation(self):
        edges = path_graph(4)
        pairs, a = dense_positive_pairs(edges)
        with pytest.raises(ValueError):
            make_pinv(pairs, 4, kind="truncated")
        with pytest.raises(ValueError):
            make_pinv(pairs, -1, kind="truncated")
        with pytest.raises(ValueError):
            PinvApprox(kind="exact", k=1, pairs=pairs)
        with pytest.raises(ValueError):
            PinvApprox(kind="shifted", k=1, pairs=pairs, sigma=-2.0)

    def test_dense_materialization_cap(self):
        edges = path_graph(5)
        pairs, _ = dense_positive_pairs(edges)
        p = make_pinv(pairs, 2, kind="truncated")
        with pytest.raises(ValueError, match="refusing to materialize"):
            pinv_dense(p, max_n=4)


class TestGapRatios:
    def test_well_separated_spectrum(self):
        gap, xi = gap_ratios([1.0, 3.0, 4.0])
        assert xi == pytest.approx([0.5, 3.0])
        assert gap == pytest.approx(4.0)

    def test_tied_pair_marks_infinity(self):
        gap, xi = gap_ratios([1.0, 1.0, 2.0])
        assert xi[0] == math.inf
        assert xi[1] == pytest.approx(1.0)
        assert gap == pytest.approx(2.0)

    def test_single_value_has_no_ratio(self):
        gap, xi = gap_ratios([2.0])
        assert xi == []
        assert gap == 1.0

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError):
            gap_ratios([2.0, 1.0])
        with pytest.raises(ValueError):
            gap_ratios([0.0, 1.0])
