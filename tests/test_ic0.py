"""Incomplete Cholesky with no fill, and its shifted retry ladder."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import diags_array

from lapeig.generators import (
    complete_graph,
    cycle_graph,
    geometric_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import EdgeList, build_laplacian
from lapeig.ic0 import _PIVOT_FLOOR, SHIFT_SCHEDULE, Ic0Error, ic0_factorize, identity_factor
from lapeig.pcg import pcg_solve
from lapeig.sparse import CsrMatrix, spmv


def reference_ic0(a):
    """Row-by-row IC(0) with one dict per row: the arithmetic to match.

    Returns (L, shift, attempts) or raises Ic0Error, like ic0_factorize.
    Entry (i, k) starts at a_ik, subtracts l_ip * l_kp over the shared
    columns p < k in increasing p and is divided by l_kk; the pivot of
    row i subtracts the squares of its row in column order.
    """
    n = a.n
    diag = np.zeros(n)
    lower_cols, lower_vals = [], []
    for i in range(n):
        cols, vals = a.row(i)
        below = np.searchsorted(cols, i)
        lower_cols.append(cols[:below])
        lower_vals.append(vals[:below])
        if below < cols.size and cols[below] == i:
            diag[i] = vals[below]

    def attempt(alpha):
        rows = []
        for i in range(n):
            li = {}
            for k, s in zip(lower_cols[i].tolist(), lower_vals[i]):
                row_k = rows[k]
                if len(li) <= len(row_k):
                    for p, lip in li.items():
                        lkp = row_k.get(p)
                        if lkp is not None:
                            s -= lip * lkp
                else:
                    for p, lkp in row_k.items():
                        lip = li.get(p)
                        if lip is not None:
                            s -= lip * lkp
                li[k] = s / row_k[k]
            d = diag[i] * (1.0 + alpha)
            for lip in li.values():
                d -= lip * lip
            if not (d > _PIVOT_FLOOR * abs(diag[i] * (1.0 + alpha)) and d > 0.0):
                return None
            li[i] = np.sqrt(d)
            rows.append(li)
        return rows

    dmax = float(diag.max()) if n else 0.0
    shifts = [0.0, *SHIFT_SCHEDULE]
    if dmax > 0 and 0.1 * dmax > shifts[-1]:
        shifts.append(0.1 * dmax)
    for attempts, alpha in enumerate(shifts, start=1):
        rows = attempt(alpha)
        if rows is None:
            continue
        ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        cols = np.concatenate([sorted(r) for r in rows] or [[]])
        vals = np.array([r[c] for r in rows for c in sorted(r)])
        return CsrMatrix(n, ptr, cols, vals), alpha, attempts
    raise Ic0Error(f"pivot breakdown at every shift in {[f'{s:.1e}' for s in shifts]}")


def assert_matches_reference(a):
    """ic0_factorize gives the reference factor bit for bit, or its error."""
    try:
        want, shift, attempts = reference_ic0(a)
    except Ic0Error as err:
        with pytest.raises(Ic0Error) as got:
            ic0_factorize(a)
        assert str(got.value) == str(err)
        return
    f = ic0_factorize(a)
    assert (f.shift, f.attempts) == (shift, attempts)
    assert np.array_equal(f.l.row_ptr, want.row_ptr)
    assert np.array_equal(f.l.col_idx, want.col_idx)
    # bit for bit, without a slow diff of the bytes on failure
    assert np.array_equal(f.l.values.view(np.int64), want.values.view(np.int64))


def relabel(edges, order):
    """The same graph with node v renamed order[v]."""
    order = np.asarray(order)
    return EdgeList(edges.n_nodes, order[edges.i], order[edges.j], edges.w)


def hub_last_star(leaves, weight=1.0):
    n = leaves + 1
    return relabel(star_graph(leaves, weight), np.roll(np.arange(n), -1))


def tridiag_spd(n, diag=2.0, off=-1.0):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i), cols.append(i), vals.append(diag)
        if i + 1 < n:
            rows += [i, i + 1]
            cols += [i + 1, i]
            vals += [off, off]
    return CsrMatrix.from_coo(n, rows, cols, vals, symmetric=True)


def arrow_spd(n):
    # diagonal plus a dense last row/column: elimination causes no fill
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i), cols.append(i), vals.append(3.0 + 0.1 * i)
    for i in range(n - 1):
        rows += [n - 1, i]
        cols += [i, n - 1]
        vals += [0.4, 0.4]
    return CsrMatrix.from_coo(n, rows, cols, vals, symmetric=True)


def factor_dense(f):
    return f.l.toarray()


class TestNoFillExactness:
    def test_tridiagonal_equals_dense_cholesky(self):
        for n in (2, 5, 12, 40):
            a = tridiag_spd(n)
            f = ic0_factorize(a)
            assert f.shift == 0.0
            want = np.linalg.cholesky(a.toarray())
            assert np.abs(factor_dense(f) - want).max() <= 1e-14

    def test_arrow_equals_dense_cholesky(self):
        a = arrow_spd(9)
        f = ic0_factorize(a)
        want = np.linalg.cholesky(a.toarray())
        assert np.abs(factor_dense(f) - want).max() <= 1e-13

    def test_apply_inverts_no_fill_matrices(self, rng):
        for a in (tridiag_spd(15), arrow_spd(11)):
            f = ic0_factorize(a)
            for _ in range(5):
                x = rng.standard_normal(a.n)
                got = f.apply(spmv(a, x))
                assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)

    def test_factor_pattern_equals_lower_triangle(self):
        g = random_connected_graph(25, extra_edges=30, seed=5, weighted=True)
        l = build_laplacian(g)
        f = ic0_factorize(l)
        a_lower = {(i, int(c)) for i in range(l.n)
                   for c in l.row(i)[0] if c <= i}
        f_pos = {(i, int(c)) for i in range(f.l.n) for c in f.l.row(i)[0]}
        assert f_pos == a_lower


class TestShiftLadder:
    def test_singular_laplacian_needs_a_shift(self):
        # a path Laplacian is tridiagonal, so no entries are dropped and
        # the exact factorization must hit the zero pivot at the end
        l = build_laplacian(path_graph(20))
        assert_matches_reference(l)
        f = ic0_factorize(l)
        assert f.shift > 0.0
        assert f.attempts >= 2
        # the factor still works as a preconditioner
        z = f.apply(np.ones(20))
        assert np.all(np.isfinite(z))

    def test_spd_input_succeeds_unshifted(self):
        f = ic0_factorize(tridiag_spd(8))
        assert (f.shift, f.attempts) == (0.0, 1)

    def test_zero_diagonal_is_hopeless(self):
        a = CsrMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0], symmetric=True)
        with pytest.raises(Ic0Error):
            ic0_factorize(a)

    @pytest.mark.parametrize("diag", [[np.nan, 2.0], [2.0, np.nan]])
    def test_nan_pivot_is_rejected(self, diag):
        # NaN fails every comparison, so the pivot test must state when to accept
        a = CsrMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1],
                               [diag[0], -1.0, -1.0, diag[1]], symmetric=True)
        with pytest.raises(Ic0Error):
            ic0_factorize(a)


def _graph(kind, n, seed):
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(max(n, 3))
    if kind == "complete":
        return complete_graph(n)
    if kind == "grid":
        return grid_graph(max(n // 4, 1), 4)
    return random_connected_graph(n, extra_edges=2 * n, seed=seed, weighted=False)


@st.composite
def shuffled_weighted_graphs(draw):
    """A graph with weights 10^-6..10^6 and its nodes in random order.

    Weights and order come from a drawn seed, which keeps shrinking cheap.
    """
    kind = draw(st.sampled_from(["path", "cycle", "complete", "grid", "random"]))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = _graph(kind, n, int(rng.integers(2**16)))
    w = 10.0 ** rng.uniform(-6.0, 6.0, g.m)
    return relabel(EdgeList(g.n_nodes, g.i, g.j, w), rng.permutation(g.n_nodes))


class TestMatchesRowByRowReference:
    """The level-scheduled factor equals the row-by-row loop bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(edges=shuffled_weighted_graphs())
    def test_weighted_graphs(self, edges):
        assert_matches_reference(build_laplacian(edges))

    @pytest.mark.parametrize("leaves", [1, 2, 7, 60])
    def test_stars_hub_first_and_last(self, leaves):
        assert_matches_reference(build_laplacian(star_graph(leaves, weight=3.0)))
        assert_matches_reference(build_laplacian(hub_last_star(leaves, weight=3.0)))

    def test_geometric_graph(self):
        assert_matches_reference(build_laplacian(geometric_graph(800, 0.06)))

    def test_matrix_fixtures(self):
        zero_diagonal = CsrMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0], symmetric=True)
        for a in (tridiag_spd(2), tridiag_spd(40), arrow_spd(9), arrow_spd(30), zero_diagonal):
            assert_matches_reference(a)


class TestScaling:
    def test_hub_last_star_scans_the_short_rows(self):
        # the hub's row holds n - 1 entries; scanning it for each of them
        # would visit n^2 / 2 candidates
        a = build_laplacian(hub_last_star(19999))
        tracemalloc.start()
        try:
            f = ic0_factorize(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.l.nnz == 2 * a.n - 1
        assert peak < 10_000_000

    def test_long_path_has_one_level_per_node(self):
        # 50000 levels: any O(n) work per level would be quadratic
        a = build_laplacian(path_graph(50000))
        start = time.perf_counter()
        f = ic0_factorize(a)
        elapsed = time.perf_counter() - start
        assert (f.shift, f.attempts) == (SHIFT_SCHEDULE[0], 2)
        assert elapsed < 60.0
        # a tridiagonal matrix has no fill: L L^T is the shifted matrix
        shifted = a.csr + f.shift * diags_array(a.diagonal())
        assert abs(f.l.csr @ f.l.csr.T - shifted).max() <= 1e-12


class TestPreconditioning:
    def test_identity_factor_is_identity(self, rng):
        f = identity_factor(7)
        v = rng.standard_normal(7)
        assert np.array_equal(f.apply(v), v)

    def test_ic0_beats_identity_in_pcg_iterations(self, rng):
        fixtures = [
            build_laplacian(grid_graph(8, 8)),
            build_laplacian(random_connected_graph(60, extra_edges=90, seed=3, weighted=True)),
            tridiag_spd(50, diag=2.05),
        ]
        for a in fixtures:
            # shift into strict definiteness so both runs converge
            dense = a.toarray() + 0.05 * np.eye(a.n)
            r, c = np.nonzero(dense)
            spd = CsrMatrix.from_coo(a.n, r, c, dense[r, c], symmetric=True)
            f = ic0_factorize(spd)
            b = rng.standard_normal(a.n)
            op = lambda x, cnt: spmv(spd, x, cnt)
            plain = pcg_solve(op, None, b, 1e-10, 500)
            fancy = pcg_solve(op, f, b, 1e-10, 500)
            assert plain.converged and fancy.converged
            assert fancy.iterations < plain.iterations
