"""Tests for the set-up, acceptance and report steps the three solvers share."""

import numpy as np
import pytest

import lapeig.irlm
import lapeig.jd
from lapeig.dacg import dacg_smallest
from lapeig.generators import random_connected_graph
from lapeig.graphs import build_laplacian
from lapeig.irlm import irlm_smallest
from lapeig.jd import jd_smallest
from lapeig.pcg import DeflationBasis, kernel_basis
from lapeig.results import fresh_accept
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


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_report_accounting_identity(name):
    solve, solver_checks = SOLVERS[name]
    a = build_laplacian(random_connected_graph(50, extra_edges=60, seed=7))
    pairs, report = solve(a, 5, delta=1e-6, seed=0)
    assert report.solver == name
    assert LEDGER_KEYS <= report.config.keys()
    assert report.mvp == (report.config["mvp_outer"] +
                          report.inner_its_total +
                          report.config["mvp_verify"])
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
        assert counter.count == 1
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


def test_irlm_decomposes_each_cycle_once(monkeypatch):
    calls = _count_dense_eigs(monkeypatch, lapeig.irlm)
    a = build_laplacian(random_connected_graph(30, extra_edges=25, seed=11))
    _, report = irlm_smallest(a, 3, ncv=6, delta=1e-8, seed=0)
    assert report.config["restarts"] > 0
    assert len(calls) == report.config["restarts"] + 1
