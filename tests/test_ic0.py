"""Incomplete Cholesky with no fill, and its shifted retry ladder."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec
from scipy.sparse.linalg import spsolve_triangular

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
from lapeig.ic0 import (
    _PIVOT_FLOOR,
    SHIFT_SCHEDULE,
    Ic0Error,
    _grouped,
    _Plan,
    _strict_lower,
    ic0_factorize,
    identity_factor,
)
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
    l = factor_l(a, f)
    assert np.array_equal(l.row_ptr, want.row_ptr)
    assert np.array_equal(l.col_idx, want.col_idx)
    # bit for bit, without a slow diff of the bytes on failure
    assert np.array_equal(l.values.view(np.int64), want.values.view(np.int64))


def factor_l(a, f):
    """L of f = ic0_factorize(a), assembled from the plan's values at f's
    shift: A's strictly lower pattern with each row's diagonal last."""
    plan = _Plan(a)
    v, d = plan.factor(a.diagonal(), f.shift)
    diag = np.arange(a.n)
    return CsrMatrix.from_coo(a.n, np.concatenate((plan.row, diag)),
                              np.concatenate((plan.col, diag)), np.concatenate((v, d)))


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


class TestNoFillExactness:
    def test_tridiagonal_equals_dense_cholesky(self):
        for n in (2, 5, 12, 40):
            a = tridiag_spd(n)
            f = ic0_factorize(a)
            assert f.shift == 0.0
            want = np.linalg.cholesky(a.toarray())
            assert np.abs(factor_l(a, f).toarray() - want).max() <= 1e-14

    def test_arrow_equals_dense_cholesky(self):
        a = arrow_spd(9)
        f = ic0_factorize(a)
        want = np.linalg.cholesky(a.toarray())
        assert np.abs(factor_l(a, f).toarray() - want).max() <= 1e-13

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
        fl = factor_l(l, ic0_factorize(l))
        a_lower = {(i, int(c)) for i in range(l.n)
                   for c in l.row(i)[0] if c <= i}
        f_pos = {(i, int(c)) for i in range(fl.n) for c in fl.row(i)[0]}
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
        # the stacked system holds 2 (n + m) entries, m = n - 1 strictly lower
        assert f._system[1].size == 2 * (a.n + a.n - 1)
        assert peak < 10_000_000

    def test_factor_holds_only_its_stacked_system(self):
        # once built, the factor keeps its system and the gather's places
        # and nothing else: no L, no plan.  The 8 KB slack covers the
        # object, tuple and array headers, which read about 4 KB
        ic0_factorize(build_laplacian(path_graph(5)))  # first-call caches
        a = build_laplacian(random_connected_graph(20000, 50000, seed=1000))
        tracemalloc.start()
        try:
            f = ic0_factorize(a)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        own = sum(x.nbytes for x in (*f._system, f._out))
        assert own <= held <= own + 8192

    def test_long_path_has_one_level_per_node(self):
        # 50000 levels: any O(n) work per level would be quadratic
        a = build_laplacian(path_graph(50000))
        start = time.perf_counter()
        f = ic0_factorize(a)
        elapsed = time.perf_counter() - start
        assert (f.shift, f.attempts) == (SHIFT_SCHEDULE[0], 2)
        assert elapsed < 60.0
        # a tridiagonal matrix has no fill: L L^T is the shifted matrix
        shifted = a.csr.copy()
        shifted.setdiag(a.diagonal() * (1.0 + f.shift))
        l = factor_l(a, f).csr
        assert abs(l @ l.T - shifted).max() <= 1e-12


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
            plain = pcg_solve(spd, None, b, 1e-10, 500)
            fancy = pcg_solve(spd, f, b, 1e-10, 500)
            assert plain.converged and fancy.converged
            assert fancy.iterations < plain.iterations


def reference_apply(l, r):
    """(L L^T)^-1 r by scipy's triangular solves, with L and then L^T."""
    y = spsolve_triangular(l.csr, r, lower=True)
    return spsolve_triangular(csr_array(l.csr.T), y, lower=False)


def hard_vectors(rng, n):
    """Right-hand sides for bitwise checks: a normal draw, -0.0 everywhere
    (a +0.0 start of a row's sum turns its -0.0 into +0.0), and signed
    zeros among magnitudes from 1e-30 to 1e30."""
    mixed = rng.standard_normal(n) * 10.0 ** rng.uniform(-30.0, 30.0, n)
    mixed[rng.random(n) < 0.2] = -0.0
    mixed[rng.random(n) < 0.1] = 0.0
    return rng.standard_normal(n), np.full(n, -0.0), mixed


def spread_weights(g, seed):
    """g with weights 10^-3..10^3."""
    w = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, g.m)
    return EdgeList(g.n_nodes, g.i, g.j, w)


def reference_substitution(l, r):
    """(L L^T)^-1 r by a row-by-row loop in the order apply documents.

    With dinv = 1 / diag(L): row i of L y = r starts at r_i * dinv_i and
    adds (-l_ij / l_ii) * y_j over its stored j < i in increasing j, for
    i = 0, 1, ...; row k of L^T z = y starts at y_k * dinv_k and adds
    (-l_ik / l_kk) * z_i over its stored i > k in increasing i, for
    k = n - 1, ..., 0.
    """
    n = l.n
    d = l.diagonal()
    dinv = 1.0 / d
    upper = [[] for _ in range(n)]  # (i, l_ik) of column k, in increasing i
    y = r * dinv
    for i in range(n):
        cols, vals = l.row(i)
        s = y[i]
        for j, v in zip(cols[:-1], vals[:-1]):
            s += (-v / d[i]) * y[j]
            upper[j].append((i, v))
        y[i] = s
    z = y * dinv
    for k in reversed(range(n)):
        s = z[k]
        for i, v in upper[k]:
            s += (-v / d[k]) * z[i]
        z[k] = s
    return z


APPLY_GRAPHS = {
    "random": lambda: random_connected_graph(500, extra_edges=1000, seed=3),
    "geometric": lambda: geometric_graph(800, 0.06),
    "star": lambda: star_graph(60, weight=3.0),
    "hub-last star": lambda: hub_last_star(60, weight=3.0),
    "grid": lambda: grid_graph(20, 20),
    "weighted": lambda: spread_weights(random_connected_graph(300, extra_edges=600, seed=8), 8),
    "path 2000": lambda: path_graph(2000),
    "path 2": lambda: path_graph(2),
}


class TestApply:
    """The apply solves L L^T z = r by two in-place substitutions."""

    @pytest.mark.parametrize("name", list(APPLY_GRAPHS))
    def test_matches_triangular_solves(self, rng, name):
        a = build_laplacian(APPLY_GRAPHS[name]())
        f = ic0_factorize(a)
        l = factor_l(a, f)
        for _ in range(3):
            r = rng.standard_normal(f.n)
            want = reference_apply(l, r)
            assert np.linalg.norm(f.apply(r) - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("source", ["ic0_factorize", "reference_ic0"])
    @pytest.mark.parametrize("name", [*APPLY_GRAPHS, "weighted, denser", "identity"])
    def test_bitwise_the_row_by_row_substitution(self, rng, name, source):
        # the sweeps take the rows in their own orders; every row must still
        # sum the same terms in the same order as the loop in index order,
        # on the L of the factor's own values or of the row-by-row
        # reference factorization
        if name == "identity":
            a, f = CsrMatrix.identity(50), identity_factor(50)
        else:
            if name == "weighted, denser":
                g = spread_weights(random_connected_graph(300, extra_edges=700, seed=5), 5)
            else:
                g = APPLY_GRAPHS[name]()
            a = build_laplacian(g)
            f = ic0_factorize(a)
        if source == "ic0_factorize":
            l = factor_l(a, f)
        else:
            l, shift, _ = reference_ic0(a)
            assert shift == f.shift
        for r in hard_vectors(rng, f.n):
            assert f.apply(r).tobytes() == reference_substitution(l, r).tobytes()

    @pytest.mark.parametrize("name", list(APPLY_GRAPHS))
    def test_each_sweep_reads_only_rows_placed_before_it(self, name):
        # buffer [y | w | r]: in place, a row must find every slot it reads
        # already written.  Forward row j leads with r_i of the row i of L it
        # solves, then reads y of forward rows before j; backward row n + j
        # leads with y at row k's forward place, then reads w of backward
        # rows before it.  The forward half takes the levels upwards, the
        # backward downwards, each level's rows by nondecreasing length.
        a = build_laplacian(APPLY_GRAPHS[name]())
        f = ic0_factorize(a)
        n = f.n
        l = factor_l(a, f)
        _, row, col, ptr = _strict_lower(l)
        level = reference_levels(l)
        sptr, scol, _ = f._system
        assert sptr.size == 2 * n + 1 and sptr[0] == 0 and sptr[-1] == scol.size
        lead = scol[sptr[:-1]]
        p1 = lead[:n] - 2 * n  # the rows of L, by forward place
        assert sorted(p1.tolist()) == list(range(n))
        assert ((lead[n:] >= 0) & (lead[n:] < n)).all()
        p2 = p1[lead[n:]]  # the rows of L^T, by backward place
        assert sorted(p2.tolist()) == list(range(n))
        assert sorted(f._out.tolist()) == list(range(n, 2 * n))
        assert f._out[p2].tolist() == list(range(n, 2 * n))
        position = np.repeat(np.arange(2 * n), np.diff(sptr))
        rest = np.ones(scol.size, dtype=bool)
        rest[sptr[:-1]] = False
        forward = rest & (position < n)
        assert (scol[forward] < position[forward]).all()
        backward = rest & (position >= n)
        assert ((scol[backward] >= n) & (scol[backward] < position[backward])).all()
        for half, order, rank, length in (
                (slice(0, n), p1, level, np.diff(ptr)),
                (slice(n, 2 * n), p2, -level, np.bincount(col, minlength=n))):
            assert np.diff(sptr)[half].tolist() == (length[order] + 1).tolist()
            key = list(zip(rank[order].tolist(), length[order].tolist()))
            assert key == sorted(key)

    def test_one_row_factor(self, rng):
        # a one-node Laplacian is zero and has no factor, so A is given
        a = CsrMatrix.from_coo(1, [0], [0], [1.5], symmetric=True)
        f = ic0_factorize(a)
        assert (f.shift, f.attempts) == (0.0, 1)
        r = rng.standard_normal(1)
        assert np.allclose(f.apply(r), reference_apply(factor_l(a, f), r), rtol=1e-15, atol=0.0)
        assert np.allclose(f.apply(r), r / 1.5, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_identity_factor_is_exact(self, rng, n):
        f = identity_factor(n)
        assert (f.n, f.shift, f.attempts) == (n, 0.0, 0)
        v = rng.standard_normal(n)
        assert np.array_equal(f.apply(v), v)

    @pytest.mark.parametrize("r", [np.ones(4), np.ones(6), np.ones((5, 1)), 1.0],
                             ids=["shorter", "longer", "column", "scalar"])
    def test_apply_refuses_a_vector_of_another_shape(self, r):
        f = ic0_factorize(tridiag_spd(5))
        with pytest.raises(ValueError, match="does not match factor dimension"):
            f.apply(r)

    def test_leaves_r_alone_and_repeats_its_bits(self, rng):
        f = ic0_factorize(build_laplacian(geometric_graph(800, 0.06)))
        r = rng.standard_normal(f.n)
        kept = r.copy()
        first = f.apply(r)
        assert np.array_equal(r, kept)
        for _ in range(3):
            assert f.apply(r).tobytes() == first.tobytes()

    @pytest.mark.parametrize("name", list(APPLY_GRAPHS))
    def test_arrays_equal_the_strict_lower_construction(self, name):
        a = build_laplacian(APPLY_GRAPHS[name]())
        f = ic0_factorize(a)
        got = (*f._system, f._out)
        for g, want in zip(got, reference_apply_arrays(factor_l(a, f)), strict=True):
            assert g.tobytes() == want.astype(g.dtype).tobytes()
        # csr_matvec takes int32 where 3n and the entries fit; the gather
        # indexes natively
        assert [g.dtype for g in got] == [np.int32, np.int32, np.float64, np.intp]


def reference_levels(l):
    """Level of each row of L: 0 without strictly lower entries, otherwise
    1 + the highest level among its columns, by a loop over the rows."""
    level = np.zeros(l.n, dtype=np.int64)
    for i in range(l.n):
        cols = l.row(i)[0][:-1]
        level[i] = 1 + level[cols].max() if cols.size else 0
    return level


def reference_apply_arrays(l):
    """Ic0Factor's stacked system (row pointer, columns, values) and the
    places of w it gathers, built row by row from _strict_lower and a sort
    by (level, length, row) in Python.  Slots 0..n-1 hold y, n..2n-1 w and
    2n..3n-1 r."""
    n = l.n
    lower, row, col, ptr = _strict_lower(l)
    val, d = l.values[lower], l.diagonal()
    level = reference_levels(l)
    flen, blen = np.diff(ptr), np.bincount(col, minlength=n)
    p1 = sorted(range(n), key=lambda i: (level[i], flen[i], i))
    p2 = sorted(range(n), key=lambda k: (-level[k], blen[k], k))
    q1, q2 = np.argsort(p1), np.argsort(p2)
    rows = []
    for i in p1:  # row i of L: 1/l_ii on r_i, then -l_ij / l_ii on y_j, increasing j
        rows.append([(2 * n + i, 1.0 / d[i])]
                    + [(q1[col[e]], -val[e] / d[i]) for e in range(ptr[i], ptr[i + 1])])
    for k in p2:  # row k of L^T: 1/l_kk on y_k, then -l_ik / l_kk on w_i, increasing i
        rows.append([(q1[k], 1.0 / d[k])]
                    + [(n + q2[row[e]], -val[e] / d[k]) for e in np.flatnonzero(col == k)])
    entries = [e for r in rows for e in r]
    return (np.cumsum([0] + [len(r) for r in rows]), np.array([c for c, _ in entries]),
            np.array([v for _, v in entries]), n + q2)


@pytest.mark.parametrize("size", [1, 2**8, 2**8 + 1, 2**16, 2**16 + 1])
def test_grouped_is_a_stable_argsort(size):
    # the narrow keys take numpy's radix sort, the wide the composite sort
    keys = np.random.default_rng(size).integers(0, size, 5000)
    keys[:2] = size - 1, 0
    order, ptr = _grouped(keys, size)
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert ptr.tolist() == [0, *np.cumsum(np.bincount(keys, minlength=size)).tolist()]


def test_private_csr_matvec_substitutes_in_place():
    # Ic0Factor.apply relies on this behaviour of a private scipy function:
    # csr_matvec(n_row, n_col, ptr, col, val, x, y) sets y[i] += row i times
    # x for i = 0, 1, ... in turn, reading x in place, so with x is y and a
    # strictly lower matrix row i sees rows < i already updated
    rng = np.random.default_rng(5)
    dense = np.tril(rng.standard_normal((9, 9)), -1)
    dense[np.abs(dense) < 0.5] = 0.0
    a = csr_array(dense)
    ptr, col = a.indptr.astype(np.int64), a.indices.astype(np.int64)
    y = rng.standard_normal(9)
    plain = y + a @ y  # every row reading y as it came in
    want = y.copy()
    for i in range(9):
        s = want[i]
        for k in range(ptr[i], ptr[i + 1]):
            s += a.data[k] * want[col[k]]
        want[i] = s
    assert not np.allclose(want, plain)
    csr_matvec(9, 9, ptr, col, a.data, y, y)
    assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_private_csr_matvec_sums_each_row_in_stored_order(itype):
    # CsrMatrix's rows by length and Ic0Factor's sweeps rely on this too:
    # row i starts at y[i] and adds its entries in the order they are
    # stored, whatever order its columns and the rows come in
    rng = np.random.default_rng(6)
    n = 40
    counts = rng.permutation(np.arange(n) % 7)  # rows of scattered lengths, some empty
    ptr = np.concatenate([[0], np.cumsum(counts)]).astype(itype)
    col = rng.integers(0, n, ptr[-1]).astype(itype)  # unsorted within rows
    val = rng.standard_normal(ptr[-1]) * 10.0 ** rng.integers(-8, 9, ptr[-1])
    x, y0 = rng.standard_normal(n), rng.standard_normal(n)

    def loop(entries):
        y = y0.copy()
        for i in range(n):
            s = y[i]
            for k in entries(ptr[i], ptr[i + 1]):
                s += val[k] * x[col[k]]
            y[i] = s
        return y

    want = loop(range)
    # the order is what is pinned: the sums by column order differ
    assert loop(lambda lo, hi: lo + np.argsort(col[lo:hi], kind="stable")).tobytes() != want.tobytes()
    y = y0.copy()
    csr_matvec(n, n, ptr, col, val, x, y)
    assert y.tobytes() == want.tobytes()


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_private_csr_matvec_in_place_on_a_longer_buffer(itype):
    # Ic0Factor.apply runs csr_matvec(2n, 3n, ptr, col, val, buf, buf) on
    # one buffer of 3n slots: row i may read any slot, rows before it
    # already updated, and writes slot i only; the slots past n_row stay
    rng = np.random.default_rng(7)
    n_row, n_col = 8, 20
    counts = rng.integers(0, 6, n_row)
    ptr = np.concatenate([[0], np.cumsum(counts)]).astype(itype)
    col = rng.integers(0, n_col, ptr[-1]).astype(itype)
    val = rng.standard_normal(ptr[-1])
    buf = rng.standard_normal(n_col)
    want = buf.copy()
    for i in range(n_row):
        s = want[i]
        for k in range(ptr[i], ptr[i + 1]):
            s += val[k] * want[col[k]]
        want[i] = s
    # some entries read rows updated before them, some slots past n_row
    rows = np.repeat(np.arange(n_row), counts)
    assert (col < rows).any() and (col >= n_row).any()
    csr_matvec(n_row, n_col, ptr, col, val, buf, buf)
    assert buf.tobytes() == want.tobytes()


@pytest.mark.parametrize("itype", [np.int32, np.int64])
def test_private_coo_tocsr_keeps_each_rows_entries_in_given_order(itype):
    # Ic0Factor's constructor puts each row's leading entry first by giving
    # it first: coo_tocsr is a stable counting sort by row, columns unsorted
    rng = np.random.default_rng(8)
    n_row, n_col, nnz = 9, 30, 70
    rows = rng.integers(0, n_row - 1, nnz).astype(itype)  # the last row empty
    cols = rng.integers(0, n_col, nnz).astype(itype)
    vals = rng.standard_normal(nnz)
    ptr, col, val = np.empty(n_row + 1, itype), np.empty(nnz, itype), np.empty(nnz)
    coo_tocsr(n_row, n_col, nnz, rows, cols, vals, ptr, col, val)
    order = np.argsort(rows, kind="stable")
    assert ptr.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=n_row)).tolist()]
    assert col.tolist() == cols[order].tolist()
    assert val.tobytes() == vals[order].tobytes()
