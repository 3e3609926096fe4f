"""Tests for the set-up, acceptance and report steps the three solvers share."""

import time
import tracemalloc

import numpy as np
import pytest

import lapeig.jd
import lapeig.results
from lapeig.dacg import dacg_smallest
from lapeig.generators import path_graph, random_connected_graph
from lapeig.graphs import build_laplacian
from lapeig.ic0 import ic0_factorize
from lapeig.irlm import irlm_smallest
from lapeig.jd import jd_smallest
from lapeig.pcg import DeflationBasis, kernel_basis
from lapeig.results import accept_candidate, fresh_accept, rayleigh_residuals, run_report
from lapeig.sparse import CsrMatrix, MvpCounter

LEDGER_KEYS = {"mvp_outer", "mvp_verify", "restarts", "seed"}


def _dacg_checks(report):
    assert report.outer_its == 0
    # one start product per pair
    assert report.config["mvp_outer"] == 5
    assert report.config["restarts"] == 0
    per_pair = report.config["iterations_per_pair"]
    assert len(per_pair) == 5
    assert sum(per_pair) == report.inner_its_total


def _jd_checks(report):
    assert report.outer_its > 0
    assert report.config["mvp_outer"] > 0
    assert report.config["m_min"] == 5
    assert report.config["m_max"] == 10


def _irlm_checks(report):
    assert report.outer_its > 0
    assert report.config["mvp_outer"] == 0
    assert report.config["delta_pcg"] == pytest.approx(1e-8)
    assert report.config["ncv"] == 30


SOLVERS = {
    "dacg": (dacg_smallest, _dacg_checks),
    "jd": (jd_smallest, _jd_checks),
    "irlm": (irlm_smallest, _irlm_checks),
}


# each solver with its own counter, with a fresh caller's counter, then
# with a caller's counter whose every tally was charged before the run;
# explicit ids keep the first three names
@pytest.mark.parametrize(
    "name, charged",
    [(name, charged) for charged in (None, 0, 1000) for name in sorted(SOLVERS)],
    ids=[*sorted(SOLVERS), *(f"{name}-fresh" for name in sorted(SOLVERS)),
         *(f"{name}-precharged" for name in sorted(SOLVERS))])
def test_report_accounting_identity(name, charged):
    solve, solver_checks = SOLVERS[name]
    a = build_laplacian(random_connected_graph(50, extra_edges=60, seed=7))
    counter = None if charged is None else MvpCounter(charged)
    if charged:
        counter.increment(200, "inner")
        counter.increment(30, "verify")
        counter.solves = 4
        counter.restarts = 2
    before = None if counter is None else counter.tallies()
    pairs, report = solve(a, 5, delta=1e-6, seed=0, counter=counter)
    assert report.solver == name
    assert LEDGER_KEYS <= report.config.keys()
    assert report.mvp == (report.config["mvp_outer"] +
                          report.inner_its_total +
                          report.config["mvp_verify"])
    if counter is not None:
        # the caller's counter receives every product of the run, each
        # in the tally the report reads it from
        assert counter.count == sum(before[:3]) + report.mvp
        assert [now - then for now, then in zip(counter.tallies(), before)] == [
            report.config["mvp_outer"], report.inner_its_total,
            report.config["mvp_verify"], report.outer_its, report.config["restarts"]]
    # at least one acceptance product per pair
    assert report.config["mvp_verify"] >= 5
    assert report.config["seed"] == 0
    assert report.neig == 5
    assert report.eigenvalues == pairs.values.tolist()
    assert np.all(np.diff(pairs.values) >= 0)
    solver_checks(report)


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize(
    "neig, rows, match",
    [(0, None, "at least 1"), (3, None, "only 2 exist"),
     (1, 4, "null_basis has 4 rows but the matrix has 3")],
    ids=["0-at least 1", "3-only 2 exist", "1-4 rows"])
def test_bad_neig_is_rejected_before_factoring(name, neig, rows, match):
    # IC(0) raises Ic0Error on this NaN pivot, so a ValueError shows that
    # the arguments were checked before the preconditioner was built
    a = CsrMatrix.from_coo(3, [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2],
                           [np.nan, -1.0, -1.0, 2.0, -1.0, -1.0, 1.0],
                           symmetric=True)
    solve, _ = SOLVERS[name]
    null_basis = kernel_basis(rows) if rows else None
    with pytest.raises(ValueError, match=match):
        solve(a, neig, null_basis=null_basis)


@pytest.mark.parametrize(
    "name, key, value",
    [*((name, "delta", d) for name in sorted(SOLVERS) for d in (np.inf, 0.0, np.nan, -1.0)),
     *((name, "delta_pcg", d) for name in ("irlm", "jd") for d in (0.0, np.nan)),
     ("jd", "itmax_inner", -1)])
def test_bad_tolerance_is_rejected_before_the_run_opens(monkeypatch, name, key, value):
    def no_factor(a):
        raise AssertionError("IC(0) factored for a call the checks refuse")

    monkeypatch.setattr(lapeig.results, "ic0_factorize", no_factor)
    solve, _ = SOLVERS[name]
    a = build_laplacian(random_connected_graph(30, extra_edges=25, seed=11))
    counter = MvpCounter()
    with pytest.raises(ValueError, match=f"^{key} must be"):
        solve(a, 2, counter=counter, **{key: value})
    assert counter.tallies() == counter.marks == (0, 0, 0, 0, 0)
    assert counter.settings == {}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_negative_seed_is_rejected_before_the_run_opens(monkeypatch, name):
    # default_rng would refuse it too, but only after IC(0) was factored
    def no_factor(a):
        raise AssertionError("IC(0) factored for a call the checks refuse")

    monkeypatch.setattr(lapeig.results, "ic0_factorize", no_factor)
    solve, _ = SOLVERS[name]
    a = build_laplacian(random_connected_graph(30, extra_edges=25, seed=11))
    counter = MvpCounter()
    with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
        solve(a, 2, counter=counter, seed=-1)
    assert counter.tallies() == counter.marks == (0, 0, 0, 0, 0)
    assert counter.settings == {}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_caller_null_basis_is_left_alone(name):
    solve, _ = SOLVERS[name]
    a = build_laplacian(random_connected_graph(30, extra_edges=25, seed=11))
    null_basis = kernel_basis(a.n)
    columns = null_basis.columns.copy()
    solve(a, 3, delta=1e-6, null_basis=null_basis, seed=0)
    assert null_basis.k == 1
    assert np.array_equal(null_basis.columns, columns)


@pytest.mark.parametrize("name", ["dacg", "jd"])
def test_basis_constructions_do_not_grow_with_the_run(monkeypatch, name):
    # the guard grows in place: a longer run, with more pairs and more
    # outer steps, builds no more DeflationBasis objects than a short one
    built = []
    original = DeflationBasis.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DeflationBasis, "__init__", counted)
    solve, _ = SOLVERS[name]
    a = build_laplacian(random_connected_graph(50, extra_edges=60, seed=7))
    counts, mvps = [], []
    for neig, delta in ((1, 1e-4), (5, 1e-8)):
        built.clear()
        _, report = solve(a, neig, delta=delta, seed=0)
        counts.append(len(built))
        mvps.append(report.mvp)
    assert mvps[1] > 2 * mvps[0]
    assert counts[0] == counts[1] <= 2


class TestFreshAccept:
    def test_eigenvector_is_accepted_for_one_product(self):
        a = build_laplacian(random_connected_graph(3, seed=0, weighted=False))
        vals, vecs = np.linalg.eigh(a.toarray())
        counter = MvpCounter()
        ok, theta, relres, w = fresh_accept(a, vecs[:, 1], 1e-10, counter)
        assert ok
        assert counter.tallies() == (0, 0, 1, 0, 0)
        assert theta == pytest.approx(vals[1], rel=1e-14)
        assert relres < 1e-14
        assert np.allclose(w, a.toarray() @ vecs[:, 1])

    def test_nonpositive_value_is_rejected_at_zero_residual(self):
        a = CsrMatrix.from_coo(2, [0, 1], [0, 1], [-1.0, -2.0])
        ok, theta, relres, _ = fresh_accept(a, np.array([1.0, 0.0]), 1.0,
                                            MvpCounter())
        assert theta == -1.0
        assert relres == np.inf
        assert not ok

    def test_residual_above_delta_is_rejected(self):
        a = build_laplacian(random_connected_graph(6, extra_edges=4, seed=2))
        u = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
        ok, theta, relres, w = fresh_accept(a, u, 1e-6, MvpCounter())
        assert theta > 0
        assert relres == pytest.approx(np.linalg.norm(w - theta * u) / theta)
        assert relres > 1e-6
        assert not ok


class TestAcceptCandidate:
    def test_only_a_passing_candidate_is_locked(self):
        a = build_laplacian(random_connected_graph(6, extra_edges=4, seed=2))
        vals, vecs = np.linalg.eigh(a.toarray())
        guard = DeflationBasis(kernel_basis(6).columns, 3)
        counter = MvpCounter()
        # a failing candidate leaves the guard and the locked list alone
        ok, *_ = accept_candidate(a, np.eye(6)[:, 0] - np.eye(6)[:, 1], guard, 1e-6, counter)
        assert not ok
        assert (guard.k, counter.locked) == (1, [])
        # a passing one becomes the guard's next column, with its pair
        ok, u, theta, relres, _ = accept_candidate(a, 2.0 * vecs[:, 1], guard, 1e-10,
                                                   counter)
        assert ok
        assert guard.k == 2
        assert np.array_equal(guard.columns[:, 1], u)
        assert counter.locked == [(theta, relres)]
        assert theta == pytest.approx(vals[1], rel=1e-13)
        assert counter.tallies() == (0, 0, 2, 0, 0)

    def test_basis_is_what_the_candidate_is_orthonormalized_against(self):
        a = build_laplacian(path_graph(4))
        vecs = np.linalg.eigh(a.toarray())[1]
        kernel = kernel_basis(4)
        guard = DeflationBasis(np.column_stack([kernel.columns[:, 0], vecs[:, 2]]), 3)
        x = vecs[:, 1] + vecs[:, 2]
        # off the kernel alone x keeps both eigenvectors and fails
        ok, u, *_ = accept_candidate(a, x, guard, 1e-10, MvpCounter(), kernel)
        assert not ok
        assert abs(u @ vecs[:, 2]) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert guard.k == 2
        # off the guard, the default, it is vecs[:, 1] and is locked
        ok, u, *_ = accept_candidate(a, x, guard, 1e-10, MvpCounter())
        assert ok
        assert guard.k == 3
        assert np.array_equal(guard.columns[:, 2], u)


def test_run_report_counts_from_the_run_entry_and_adds_its_settings(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    counter = MvpCounter(7)  # the clock reads 0
    counter.increment(3, "inner")
    # before a run opens, everything counts and no setting is known
    report = run_report("dacg", 2, 1e-6, counter)
    assert (report.mvp, report.outer_its, report.inner_its_total) == (10, 0, 3)
    assert report.config == dict(mvp_outer=7, mvp_verify=0, restarts=0)
    assert (report.wall_seconds, report.converged) == (1.0, False)
    counter.open_run(seed=4, ncv=12)  # the clock reads 2
    counter.increment(2, "verify")
    counter.solves += 1
    report = run_report("irlm", 2, 1e-6, counter, error="stalled")
    assert (report.mvp, report.outer_its, report.inner_its_total) == (2, 1, 0)
    # the run's settings, then what it found, in that order
    assert list(report.config.items()) == [
        ("mvp_outer", 0), ("mvp_verify", 2), ("restarts", 0), ("seed", 4), ("ncv", 12),
        ("error", "stalled")]
    assert (report.wall_seconds, report.eigenvalues) == (1.0, [])


def test_rayleigh_residuals_charge_one_verify_product_per_column():
    a = build_laplacian(random_connected_graph(6, extra_edges=4, seed=2))
    counter = MvpCounter(5)
    rayleigh_residuals(a, np.eye(6)[:, :3], counter)
    assert counter.tallies() == (5, 0, 3, 0, 0)


def test_rayleigh_residuals_judge_like_fresh_accept():
    a = build_laplacian(random_connected_graph(6, extra_edges=4, seed=2))
    u = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
    _, theta, relres, _ = fresh_accept(a, u, 1e-6, MvpCounter())
    # the column is normalized first, so its scale does not matter
    thetas, resids = rayleigh_residuals(a, 3.0 * u)
    assert thetas[0] == pytest.approx(theta, rel=1e-15)
    assert resids[0] == pytest.approx(relres, rel=1e-15)
    # a kernel vector has theta 0, which no solver may accept
    thetas, resids = rayleigh_residuals(build_laplacian(path_graph(6)), np.ones(6))
    assert abs(thetas[0]) <= 1e-15
    assert resids[0] == np.inf


def _count_dense_eigs(monkeypatch, module):
    calls = []
    original = module.dense_sym_eig

    def counted(h):
        calls.append(h.shape[0])
        return original(h)

    monkeypatch.setattr(module, "dense_sym_eig", counted)
    return calls


def test_jd_decomposes_each_projected_matrix_once(monkeypatch):
    # every outer step either locks a pair or solves a correction
    # equation, and the restart and the lock reuse the step's Ritz data
    calls = _count_dense_eigs(monkeypatch, lapeig.jd)
    a = build_laplacian(random_connected_graph(50, extra_edges=60, seed=7))
    _, report = jd_smallest(a, 5, delta=1e-6, m_min=2, m_max=4, seed=0)
    assert report.config["restarts"] > 0
    assert len(calls) == report.outer_its + 5


@pytest.mark.parametrize("name, before", [("jd", 2_650_369), ("dacg", 1_968_321)])
def test_locked_vectors_are_kept_once(name, before):
    # before: the traced peak, in bytes, when each solver kept its locked
    # vectors in a list of its own besides the guard and the result
    # stacked them, then sorted the stack; keeping them once, in the
    # guard, must save at least one n x neig block of doubles
    solve, _ = SOLVERS[name]
    a = build_laplacian(random_connected_graph(5000, extra_edges=12500, seed=1000))
    f = ic0_factorize(a)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pairs, _ = solve(a, 10, f=f, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(pairs) == 10
    assert peak <= before - a.n * 10 * 8, f"traced peak {peak} B"
