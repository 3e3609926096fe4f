"""Tests for the benchmark runner, report formats and the CLI."""

import functools
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lapeig
from lapeig.bench import (
    CSV_COLUMNS,
    SOLVERS,
    RunConfig,
    emit_report,
    emit_spectrum,
    parse_report_csv,
    run,
    run_graph,
)
from lapeig.cli import build_parser, config_from_args, main
from lapeig.generators import path_graph, random_connected_graph
from lapeig.graphs import EdgeList, build_laplacian
from lapeig.ic0 import ic0_factorize, identity_factor
from lapeig.irlm import ncv_for
from lapeig.results import EigenPairSet, SolverError, SolverReport
from tests.conftest import dense_positive_pairs, negated_laplacian
from tests.test_solver_frame import LEDGER_KEYS

P3_FILE = "3\n0 1 1.0\n1 2 1.0\n"


def _write_p3(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_FILE)
    return path


def _stall(*args, **kwargs):
    raise SolverError("forced stall for the test")


def _refuse_set_up(monkeypatch):
    """Fail the test at the Laplacian, at IC(0) or at any solver call."""
    def fail(what):
        def called(*args, **kwargs):
            raise AssertionError(f"{what} ran for a setting run_graph refuses")
        return called

    monkeypatch.setattr(lapeig.bench, "build_laplacian", fail("build_laplacian"))
    monkeypatch.setattr(lapeig.bench, "ic0_factorize", fail("ic0_factorize"))
    for name, solve in list(SOLVERS.items()):
        # run_graph reads each solver's settings off its signature
        monkeypatch.setitem(lapeig.bench.SOLVERS, name, functools.wraps(solve)(fail(name)))


class TestRunGraph:
    def test_all_solvers_agree_with_oracle(self):
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        oracle, _ = dense_positive_pairs(edges, neig=3)
        reports = run_graph(edges, RunConfig(neig=3, delta=1e-6))
        assert [r.solver for r in reports] == ["dacg", "jd", "irlm"]
        for r in reports:
            assert r.converged
            got = np.asarray(r.eigenvalues)
            assert np.max(np.abs(got - oracle.values) / oracle.values) < 1e-5
            assert np.max(r.per_pair_residuals) <= 1e-6

    def test_tighter_tolerance_costs_more_products(self):
        edges = random_connected_graph(40, extra_edges=30, seed=2)
        loose = run_graph(edges, RunConfig(neig=3, delta=1e-3))
        tight = run_graph(edges, RunConfig(neig=3, delta=1e-6))
        for lo, hi in zip(loose, tight):
            assert hi.mvp >= lo.mvp

    def test_runs_are_deterministic(self):
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        r1 = run_graph(edges, RunConfig(neig=3, seed=4))
        r2 = run_graph(edges, RunConfig(neig=3, seed=4))
        b1 = emit_report(r1, "csv")
        b2 = emit_report(r2, "csv")
        # wall time jitters; everything else must match bitwise
        keep = [c for c in CSV_COLUMNS if c != "wall_seconds"]
        p1, p2 = parse_report_csv(b1), parse_report_csv(b2)
        for row1, row2 in zip(p1, p2):
            for col in keep:
                assert getattr(row1, col) == getattr(row2, col)

    def test_neig_clamped_to_available_pairs(self):
        reports = run_graph(path_graph(3), RunConfig(neig=10, solver="jd"))
        assert len(reports[0].eigenvalues) == 2
        assert reports[0].config["neig_effective"] == 2

    def test_disconnected_input_raises_without_optin(self):
        from lapeig.graphs import EdgeList

        g = EdgeList(5, [0, 3], [1, 4], [1.0, 1.0])
        with pytest.raises(ValueError, match="allow_disconnected"):
            run_graph(g, RunConfig())

    def test_disconnected_optin_keeps_largest_component(self):
        from lapeig.graphs import EdgeList

        g = EdgeList(6, [0, 1, 4], [1, 2, 5], [1.0, 1.0, 1.0])
        reports = run_graph(
            g, RunConfig(solver="jd", neig=1, allow_disconnected=True))
        assert reports[0].config["n"] == 3
        # path P3 spectrum
        assert reports[0].eigenvalues[0] == pytest.approx(1.0, abs=1e-6)

    def test_hostile_node_count_is_refused_before_any_node_array(self):
        # 2**62 nodes and two edges: certainly disconnected, and any array of
        # n entries would be refused outright, so reaching one fails here
        from lapeig.graphs import EdgeList

        g = EdgeList(2**62, [0, 1], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"{2**62} nodes, 2 edges") as err:
            run_graph(g, RunConfig())
        assert "allow_disconnected" in str(err.value)

    def test_hostile_node_count_optin_keeps_the_edges(self):
        # the component search runs on the three nodes that carry an edge
        from lapeig.graphs import EdgeList

        g = EdgeList(2**62, [5, 2**61], [2**61, 2**62 - 1], [1.0, 1.0])
        reports = run_graph(
            g, RunConfig(solver="jd", neig=1, allow_disconnected=True))
        assert (reports[0].config["n"], reports[0].config["m"]) == (3, 2)
        assert reports[0].eigenvalues[0] == pytest.approx(1.0, abs=1e-6)

    def test_solver_failure_is_isolated(self, monkeypatch):
        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", _stall)
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        reports = run_graph(edges, RunConfig(neig=2))
        by_name = {r.solver: r for r in reports}
        assert not by_name["jd"].converged
        assert "forced stall" in by_name["jd"].config["error"]
        assert by_name["dacg"].converged
        assert by_name["irlm"].converged

    def test_one_clock_per_run(self, monkeypatch):
        # a clock that ticks 1.0 per read: a run's report reads it twice,
        # at the run's entry and at its report, converged or failed
        ticks = iter(range(10**6))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        reports = run_graph(edges, RunConfig(neig=2))
        assert [r.converged for r in reports] == [True, True, True]
        assert [r.wall_seconds for r in reports] == [1.0, 1.0, 1.0]
        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", _stall)
        reports = run_graph(edges, RunConfig(neig=2))
        assert [r.converged for r in reports] == [True, False, True]
        assert [r.wall_seconds for r in reports] == [1.0, 1.0, 1.0]

    def test_failed_run_keeps_the_ledger(self, monkeypatch):
        # three outer steps, then the per-pair cap stops JD
        monkeypatch.setattr(lapeig.jd, "_MAX_OUTER_PER_PAIR", 3)
        edges = random_connected_graph(200, extra_edges=300, seed=1)
        (report,) = run_graph(edges, RunConfig(solver="jd", neig=3))
        assert not report.converged
        assert "outer iterations" in report.config["error"]
        assert (report.mvp, report.outer_its, report.inner_its_total) == (8, 3, 5)
        assert (report.config["mvp_outer"], report.config["mvp_verify"]) == (3, 0)
        assert LEDGER_KEYS <= report.config.keys()
        assert report.config["restarts"] == 0
        # the solver's effective settings, not the RunConfig's None
        assert (report.config["m_min"], report.config["m_max"]) == (5, 10)
        assert (report.config["delta_pcg"], report.config["itmax_inner"]) == (1e-2, 20)
        # a basis of at most four columns restarts once before a cap of four steps
        monkeypatch.setattr(lapeig.jd, "_MAX_OUTER_PER_PAIR", 4)
        (report,) = run_graph(edges, RunConfig(solver="jd", neig=3, m_min=2, m_max=4))
        assert not report.converged
        assert report.config["restarts"] == 1

    def test_failed_irlm_run_keeps_its_settings(self, monkeypatch):
        # one ARPACK pass and no restart is too little at ncv 6
        monkeypatch.setattr(lapeig.irlm, "_MAX_RESTARTS", 0)
        edges = random_connected_graph(30, extra_edges=25, seed=11)
        (report,) = run_graph(edges, RunConfig(solver="irlm", neig=3, ncv=6, delta=1e-8))
        assert not report.converged
        assert "No convergence" in report.config["error"]
        assert (report.config["ncv"], report.config["delta_pcg"]) == (6, 1e-10)
        assert report.config["maxit_inner"] == lapeig.irlm._MAXIT_INNER
        assert report.outer_its > 0 and report.config["mvp_verify"] == 0

    @pytest.mark.parametrize("kernel_part, match", [(0.0, "Gram defect 1.000e"),
                                                     (1e-7, "kernel overlap 1.000e-07")])
    def test_vectors_the_benchmark_refuses_are_refused(self, monkeypatch, kernel_part,
                                                        match):
        # each pair passes the residual test: the same eigenvector twice, or
        # an eigenvector with a 1e-7 kernel part (relative residual about 1e-7)
        def fake(a, neig, f=None, counter=None):
            vals, vecs = np.linalg.eigh(a.toarray())
            u = vecs[:, 1] + kernel_part * np.full(a.n, a.n ** -0.5)
            u /= np.linalg.norm(u)
            if kernel_part:
                cols = [u, *vecs[:, 2:neig + 1].T]
            else:
                cols = [u] * neig
            pairs = EigenPairSet(vals[1:neig + 1], np.column_stack(cols), np.zeros(neig))
            return pairs, SolverReport("jd", neig, 1e-6, 0, 0, 0, 0.0, True)

        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", fake)
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        with pytest.raises(RuntimeError, match=match):
            run_graph(edges, RunConfig(solver="jd", neig=2))

    def test_inner_pcg_stall_comes_back_as_a_failed_report(self, monkeypatch):
        monkeypatch.setattr(lapeig.irlm, "_MAXIT_INNER", 1)
        edges = random_connected_graph(40, extra_edges=60, seed=3)
        (report,) = run_graph(edges, RunConfig(solver="irlm", neig=2))
        assert not report.converged
        assert report.config["error"].startswith("inner PCG stalled at relative residual ")
        assert report.config["maxit_inner"] == 1

    def test_nonpositive_ritz_value_comes_back_as_a_failed_report(self, monkeypatch):
        # the pipeline run on -L, which IC(0) cannot factor, with no preconditioner
        monkeypatch.setattr(lapeig.bench, "build_laplacian", negated_laplacian)
        monkeypatch.setattr(lapeig.bench, "ic0_factorize", lambda a: identity_factor(a.n))
        (report,) = run_graph(path_graph(5), RunConfig(solver="jd", neig=1))
        assert not report.converged
        assert report.config["error"].startswith("pair 0: nonpositive Ritz value -")
        assert report.mvp == 1

    def test_one_node_graph_is_too_small(self):
        with pytest.raises(ValueError, match="^graph too small: no positive eigenvalues"):
            run_graph(EdgeList(1, [], [], []), RunConfig(neig=1))

    def test_unknown_solver_is_rejected_before_factoring(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.n)
            return ic0_factorize(a)

        monkeypatch.setattr(lapeig.bench, "ic0_factorize", counted)
        edges = random_connected_graph(2000, extra_edges=2000, seed=1)
        with pytest.raises(ValueError, match="pick one of dacg, jd, irlm$"):
            run_graph(edges, RunConfig(solver="lobpcg"))
        assert calls == []

    def test_nonpositive_neig_is_rejected_before_the_laplacian(self, monkeypatch):
        calls = []

        def counted(edges):
            calls.append(edges.n_nodes)
            return build_laplacian(edges)

        monkeypatch.setattr(lapeig.bench, "build_laplacian", counted)
        for neig in (0, -2):
            with pytest.raises(ValueError, match="^neig must be at least 1$"):
                run_graph(path_graph(3), RunConfig(neig=neig))
        assert calls == []

    @pytest.mark.parametrize("settings, match", [
        ({"m_min": 0}, "^need 0 < m_min < m_max$"),
        ({"m_max": 600}, "^m_max 600 exceeds the dense cap 512$")])
    def test_bad_restart_bounds_are_rejected_before_the_set_up(self, monkeypatch,
                                                               settings, match):
        # DACG runs first and takes neither bound, so it never starts either
        _refuse_set_up(monkeypatch)
        edges = random_connected_graph(2000, extra_edges=3000, seed=1)
        with pytest.raises(ValueError, match=match):
            run_graph(edges, RunConfig(neig=5, **settings))

    @pytest.mark.parametrize("solver", ["all", "irlm"])
    def test_negative_seed_is_rejected_before_the_set_up(self, monkeypatch, solver):
        _refuse_set_up(monkeypatch)
        edges = random_connected_graph(1000, extra_edges=1500, seed=1)
        with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
            run_graph(edges, RunConfig(neig=5, solver=solver, seed=-1))

    @pytest.mark.parametrize("solver", ["all", "irlm"])
    def test_irlm_basis_cap_is_rejected_before_the_set_up(self, monkeypatch, solver):
        _refuse_set_up(monkeypatch)
        edges = random_connected_graph(1000, extra_edges=1500, seed=1)
        with pytest.raises(ValueError, match="^neig 600 needs a basis of 602, "
                                             "above the dense solver cap 512$"):
            run_graph(edges, RunConfig(neig=600, solver=solver))
        # the check sees the neig IRLM would get, at most n - 1
        with pytest.raises(ValueError, match="^neig 999 needs a basis of 1001"):
            run_graph(edges, RunConfig(neig=5000, solver=solver))

    @pytest.mark.parametrize("solver", ["dacg", "jd"])
    def test_irlm_basis_cap_binds_irlm_alone(self, monkeypatch, solver):
        _refuse_set_up(monkeypatch)
        edges = random_connected_graph(1000, extra_edges=1500, seed=1)
        with pytest.raises(AssertionError, match="^build_laplacian ran"):
            run_graph(edges, RunConfig(neig=600, solver=solver))

    def test_shared_factorization_is_echoed(self):
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        reports = run_graph(edges, RunConfig(neig=2))
        attempts = ic0_factorize(build_laplacian(edges)).attempts
        for r in reports:
            assert "factor_seconds" in r.config
            assert r.config["precond_shift"] >= 0.0
            assert r.config["precond_attempts"] == attempts

    def test_solver_settings_win_over_the_echo(self):
        edges = random_connected_graph(60, 80, seed=2)
        config = RunConfig(neig=3)
        by_name = {r.solver: r for r in run_graph(edges, config)}
        irlm = by_name["irlm"].config
        # the clipped basis size and the default inner tolerance irlm_smallest used
        assert irlm["ncv"] == min(max(ncv_for(3), 3 + 2), 60 - 1)
        assert irlm["delta_pcg"] == 1e-2 * config.delta
        jd = by_name["jd"].config
        assert (jd["delta_pcg"], jd["itmax_inner"]) == (1e-2, 20)
        assert (jd["m_min"], jd["m_max"]) == (5, 10)
        for r in by_name.values():
            assert r.config["n"] == 60
            assert r.config["seed"] == config.seed
        # each setting reaches the solvers that take it and no other
        config = RunConfig(neig=3, m_min=3, m_max=6, itmax_inner=7, ncv=20)
        by_name = {r.solver: r for r in run_graph(edges, config)}
        assert all(r.converged for r in by_name.values())
        jd = by_name["jd"].config
        assert (jd["m_min"], jd["m_max"], jd["itmax_inner"]) == (3, 6, 7)
        assert by_name["irlm"].config["ncv"] == 20

    @pytest.mark.parametrize("seed", [0, 5])
    def test_unset_settings_are_the_solver_defaults(self, seed):
        # run_graph adds nothing to a plain call with the signature defaults
        edges = random_connected_graph(40, extra_edges=30, seed=3)
        a = build_laplacian(edges)
        reports = run_graph(edges, RunConfig(neig=3, seed=seed))
        for r in reports:
            _, direct = SOLVERS[r.solver](a, 3, f=ic0_factorize(a), seed=seed)
            assert r.mvp == direct.mvp
            assert r.eigenvalues == direct.eigenvalues

    def test_unset_delta_is_verified_against_the_delta_each_solver_ran_with(
            self, monkeypatch):
        for solver in SOLVERS:
            (report,) = run_graph(path_graph(6), RunConfig(neig=2, delta=None,
                                                           solver=solver))
            assert report.converged
            assert report.delta == 1e-6
        # a failed run reports the delta it ran with too
        def stall(a, neig, delta=1e-5, **kwargs):
            _stall()

        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", stall)
        (report,) = run_graph(path_graph(6), RunConfig(neig=2, delta=None, solver="jd"))
        assert not report.converged
        assert report.delta == 1e-5


class TestReports:
    def test_csv_round_trip(self):
        edges = random_connected_graph(25, extra_edges=15, seed=5)
        reports = run_graph(edges, RunConfig(neig=2))
        rows = parse_report_csv(emit_report(reports, "csv"))
        assert len(rows) == 3
        for row, rep in zip(rows, reports):
            assert row.solver == rep.solver
            assert row.neig == rep.neig
            assert row.delta == rep.delta
            assert row.mvp == rep.mvp
            assert row.outer_its == rep.outer_its
            assert row.inner_its_total == rep.inner_its_total
            assert row.wall_seconds == rep.wall_seconds
            assert row.converged is rep.converged

    def test_table_layout(self):
        edges = path_graph(4)
        text = emit_report(run_graph(edges, RunConfig(neig=1)),
                           "table").decode()
        lines = text.splitlines()
        assert lines[0].split() == list(CSV_COLUMNS)
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 5
        assert lines[2].split()[0] == "dacg"

    def test_csv_header_is_stable(self):
        edges = path_graph(4)
        data = emit_report(run_graph(edges, RunConfig(neig=1)), "csv")
        header = data.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_parse_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            parse_report_csv(b"a,b,c\n1,2,3\n")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], format="json")

    def test_spectrum_lines(self):
        data = emit_spectrum([1.0, 2.0, 3.0])
        assert data == b"2 1.0\n3 2.0\n4 3.0\n"

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            emit_spectrum([])
        with pytest.raises(ValueError):
            emit_spectrum([0.0, 1.0])


class TestRunConfigLoading:
    def test_run_reads_edge_list_files(self, tmp_path):
        path = _write_p3(tmp_path)
        reports = run(RunConfig(input=str(path), solver="jd", neig=1))
        assert reports[0].eigenvalues[0] == pytest.approx(1.0, abs=1e-6)

    def test_selection_resolves_all(self):
        assert RunConfig(solver="all").selection() == ("dacg", "jd", "irlm")
        assert RunConfig(solver="irlm").selection() == ("irlm",)


class TestCliParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--input", "g.txt"])
        config = config_from_args(args)
        assert config.input == "g.txt"
        assert config.format == "edgelist"
        assert config.solver == "all"
        assert config.neig == 5
        assert config.delta == 1e-6
        assert config.delta_pcg is None
        assert config.itmax_inner is None
        assert (config.m_min, config.m_max) == (None, None)
        assert config.seed == 0
        assert config.report == "table"

    def test_input_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_option_round_trip(self):
        args = build_parser().parse_args([
            "--input", "g.mtx", "--format", "mtx", "--symmetrize",
            "--solver", "dacg", "--neig", "3", "--tol", "1e-3",
            "--pcg-tol", "1e-5", "--itmax-inner", "40", "--mmin", "4",
            "--mmax", "12", "--ncv", "25",
            "--seed", "9", "--report", "csv", "--emit-spectrum", "s.txt",
            "--allow-disconnected",
        ])
        config = config_from_args(args)
        assert config.format == "mtx"
        assert config.symmetrize
        assert config.solver == "dacg"
        assert config.neig == 3
        assert config.delta == 1e-3
        assert config.delta_pcg == 1e-5
        assert config.itmax_inner == 40
        assert (config.m_min, config.m_max, config.ncv) == (4, 12, 25)
        assert config.seed == 9
        assert config.report == "csv"
        assert config.emit_spectrum == "s.txt"
        assert config.allow_disconnected
        default = RunConfig()
        for field in fields(RunConfig):
            assert getattr(config, field.name) != getattr(default, field.name), field.name

    def test_solver_choices_are_the_registry(self):
        (action,) = [a for a in build_parser()._actions if a.dest == "solver"]
        assert action.choices == (*SOLVERS, "all")


class TestCliMain:
    def test_success_writes_report(self, tmp_path, capsys):
        path = _write_p3(tmp_path)
        code = main(["--input", str(path), "--solver", "jd", "--neig", "1",
                     "--report", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = parse_report_csv(out.encode())
        assert rows[0].solver == "jd"
        assert rows[0].converged is True

    def test_missing_file_exits_3(self, capsys):
        code = main(["--input", "/nonexistent/g.txt"])
        assert code == 3
        assert capsys.readouterr().err != ""

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1\n")
        code = main(["--input", str(bad)])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_file_exits_3_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3\n0 1 1.0\n1 2 \xff\n")
        assert main(["--input", str(bad)]) == 3
        assert "line 3: byte 0xff is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,text,line", [
        ("edgelist", "3\n0 1 inf\n1 2 1.0\n", 2),
        ("mtx", "%%MatrixMarket matrix coordinate real symmetric\n"
                "3 3 2\n2 1 nan\n3 2 -1.0\n", 3),
    ])
    def test_non_finite_weight_exits_3(self, tmp_path, capsys, fmt, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["--input", str(bad), "--format", fmt]) == 3
        err = capsys.readouterr().err
        assert f"line {line}: non-finite" in err

    def test_overflowing_degree_exits_3(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("3\n0 1 1e308\n0 2 1e308\n1 2 1.0\n")
        assert main(["--input", str(big), "--solver", "jd"]) == 3
        assert "degree of node 0" in capsys.readouterr().err

    @pytest.mark.parametrize("neig", ["0", "-2"])
    def test_nonpositive_neig_exits_3(self, tmp_path, capsys, neig):
        assert main(["--input", str(_write_p3(tmp_path)), "--neig", neig]) == 3
        assert "neig must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, match", [
        *(("--tol", v, "delta must be finite and positive") for v in ("inf", "0", "nan", "-1")),
        *(("--pcg-tol", v, "delta_pcg must be finite and positive") for v in ("0", "nan")),
        ("--itmax-inner", "-1", "itmax_inner must be nonnegative")])
    def test_bad_tolerance_exits_3(self, tmp_path, capsys, monkeypatch, flag, value, match):
        # refused before set-up: no factorization, and DACG, which runs
        # first and takes neither inner setting, never starts
        calls = []

        def spy(real):
            @functools.wraps(real)
            def called(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return called

        monkeypatch.setitem(lapeig.bench.SOLVERS, "dacg", spy(SOLVERS["dacg"]))
        monkeypatch.setattr(lapeig.bench, "ic0_factorize", spy(ic0_factorize))
        assert main(["--input", str(_write_p3(tmp_path)), "--neig", "2", flag, value]) == 3
        assert match in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flag, value, match", [
        ("--mmin", "0", "need 0 < m_min < m_max"),
        ("--mmax", "600", "m_max 600 exceeds the dense cap 512")])
    def test_bad_restart_bound_exits_3_before_the_set_up(self, tmp_path, capsys,
                                                         monkeypatch, flag, value, match):
        _refuse_set_up(monkeypatch)
        assert main(["--input", str(_write_p3(tmp_path)), flag, value]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"lapeig-bench: input error: {match}\n"

    def test_negative_seed_exits_3_before_the_set_up(self, tmp_path, capsys, monkeypatch):
        _refuse_set_up(monkeypatch)
        assert main(["--input", str(_write_p3(tmp_path)), "--seed", "-1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "lapeig-bench: input error: seed must be nonnegative, not -1\n"

    @pytest.mark.parametrize("spec, why, writable", [
        ("missing/spec.txt", "no writable directory {parent!r}", True),
        (".", "{spec!r} is a directory", True),
        # permission bits do not stop root, so the access check is stubbed
        ("spec.txt", "no writable directory {parent!r}", False)])
    def test_unwritable_spectrum_path_exits_3_before_the_run(self, tmp_path, capsys,
                                                            monkeypatch, spec, why,
                                                            writable):
        def refuse(config):
            raise AssertionError("the run started before the spectrum path was checked")

        monkeypatch.setattr(lapeig.cli, "run", refuse)
        if not writable:
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        spec = str(tmp_path / spec)
        parent = os.path.dirname(spec)
        code = main(["--input", str(_write_p3(tmp_path)), "--neig", "1",
                     "--emit-spectrum", spec])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("lapeig-bench: cannot write the spectrum: "
                       f"{why.format(spec=spec, parent=parent)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p3.txt"]

    def test_spectrum_write_failure_after_the_run_exits_3(self, tmp_path, capsys,
                                                          monkeypatch):
        # a path that passes the early check can still fail at the write
        spec_out = tmp_path / "spec.txt"
        monkeypatch.setattr(lapeig.cli, "spectrum_path_problem", lambda path: None)
        spec_out.mkdir()
        code = main(["--input", str(_write_p3(tmp_path)), "--solver", "jd", "--neig", "1",
                     "--emit-spectrum", str(spec_out)])
        assert code == 3
        out, err = capsys.readouterr()
        assert out.startswith("solver")  # the report is written first
        assert err.startswith("lapeig-bench: cannot write the spectrum: [Errno ")

    def test_disconnected_exits_3_without_optin(self, tmp_path, capsys):
        g = tmp_path / "two.txt"
        g.write_text("4\n0 1 1.0\n2 3 1.0\n")
        assert main(["--input", str(g)]) == 3
        assert "components" in capsys.readouterr().err

    def test_hostile_node_count_exits_3(self, tmp_path, capsys):
        g = tmp_path / "huge.txt"
        g.write_text(f"{2**62}\n0 1 1.0\n")
        assert main(["--input", str(g), "--neig", "1"]) == 3
        assert f"graph has {2**62} nodes, 1 edges" in capsys.readouterr().err

    def test_disconnected_optin_succeeds(self, tmp_path, capsys):
        g = tmp_path / "two.txt"
        g.write_text("5\n0 1 1.0\n1 2 1.0\n3 4 1.0\n")
        code = main(["--input", str(g), "--allow-disconnected",
                     "--solver", "jd", "--neig", "1"])
        assert code == 0

    def test_spectrum_file_contents(self, tmp_path):
        path = _write_p3(tmp_path)
        spec_out = tmp_path / "spec.txt"
        code = main(["--input", str(path), "--solver", "jd", "--neig", "2",
                     "--emit-spectrum", str(spec_out)])
        assert code == 0
        lines = spec_out.read_text().splitlines()
        assert len(lines) == 2
        idx, ratio = lines[0].split()
        assert idx == "2"
        assert float(ratio) == pytest.approx(1.0)
        idx, ratio = lines[1].split()
        assert idx == "3"
        assert float(ratio) == pytest.approx(3.0, abs=1e-6)

    def test_symmetrize_merges_duplicates(self, tmp_path):
        g = tmp_path / "dup.txt"
        g.write_text("3\n0 1 1.0\n1 0 4.0\n1 2 1.0\n")
        assert main(["--input", str(g)]) == 3
        code = main(["--input", str(g), "--symmetrize", "--solver", "jd",
                     "--neig", "1"])
        assert code == 0

    def test_matrix_market_parity(self, tmp_path, capsys):
        el = _write_p3(tmp_path)
        mm = tmp_path / "p3.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                      "3 3 5\n1 1 1.0\n2 1 -1.0\n2 2 2.0\n3 2 -1.0\n"
                      "3 3 1.0\n")
        main(["--input", str(el), "--solver", "jd", "--neig", "1",
              "--report", "csv"])
        out_el = capsys.readouterr().out
        main(["--input", str(mm), "--format", "mtx", "--solver", "jd",
              "--neig", "1", "--report", "csv"])
        out_mm = capsys.readouterr().out
        rows_el = parse_report_csv(out_el.encode())
        rows_mm = parse_report_csv(out_mm.encode())
        assert rows_el[0].mvp == rows_mm[0].mvp
        assert rows_el[0].inner_its_total == rows_mm[0].inner_its_total

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", _stall)
        code = main(["--input", str(_write_p3(tmp_path)), "--neig", "1"])
        captured = capsys.readouterr()
        assert code == 2
        rows = {line.split()[0]: line.split()[-1]
                for line in captured.out.splitlines()[2:]}
        assert rows == {"dacg": "true", "jd": "false", "irlm": "true"}
        assert "lapeig-bench: jd failed: forced stall for the test\n" in captured.err

    def test_false_convergence_claim_exits_2(self, tmp_path, capsys, monkeypatch):
        # a unit vector that is no eigenvector, reported as converged
        def liar(a, neig, f=None, counter=None):
            u = np.zeros(a.n)
            u[:2] = [1.0, -1.0]
            u /= np.linalg.norm(u)
            pairs = EigenPairSet([1.0], u.reshape(-1, 1), [0.0])
            return pairs, SolverReport("jd", 1, 1e-6, 0, 0, 0, 0.0, True)

        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", liar)
        code = main(["--input", str(_write_p3(tmp_path)), "--solver", "jd", "--neig", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("lapeig-bench: jd claimed convergence but "
                                       "recomputed residuals are ")

    def test_spectrum_not_written_without_a_converged_run(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setitem(lapeig.bench.SOLVERS, "jd", _stall)
        spec_out = tmp_path / "spec.txt"
        code = main(["--input", str(_write_p3(tmp_path)), "--solver", "jd",
                     "--neig", "1", "--emit-spectrum", str(spec_out)])
        assert code == 2
        assert "lapeig-bench: no converged run; spectrum not written\n" in \
            capsys.readouterr().err
        assert not spec_out.exists()

    def test_console_script_runs_in_subprocess(self, tmp_path):
        path = _write_p3(tmp_path)
        # the child imports the same lapeig as this process, installed or not
        package_root = str(Path(lapeig.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lapeig.cli", "--input", str(path),
             "--solver", "dacg", "--neig", "1"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[2].split()[0] == "dacg"
