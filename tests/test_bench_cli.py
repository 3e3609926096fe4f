"""Tests for the benchmark runner, report formats and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lapeig
from lapeig.bench import (
    CSV_COLUMNS,
    RunConfig,
    emit_report,
    emit_spectrum,
    parse_report_csv,
    run,
    run_graph,
)
from lapeig.cli import build_parser, config_from_args, main
from lapeig.generators import path_graph, random_connected_graph
from lapeig.irlm import ncv_for
from tests.conftest import dense_positive_pairs

P3_FILE = "3\n0 1 1.0\n1 2 1.0\n"


def _write_p3(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_FILE)
    return path


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

    def test_solver_failure_is_isolated(self, monkeypatch):
        from lapeig.results import SolverError

        def boom(*args, **kwargs):
            raise SolverError("forced stall for the test")

        monkeypatch.setattr("lapeig.bench.jd_smallest", boom)
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        reports = run_graph(edges, RunConfig(neig=2))
        by_name = {r.solver: r for r in reports}
        assert not by_name["jd"].converged
        assert "forced stall" in by_name["jd"].config["error"]
        assert by_name["dacg"].converged
        assert by_name["irlm"].converged

    def test_shared_factorization_is_echoed(self):
        edges = random_connected_graph(30, extra_edges=25, seed=8)
        reports = run_graph(edges, RunConfig(neig=2))
        for r in reports:
            assert "factor_seconds" in r.config
            assert r.config["precond_shift"] >= 0.0

    def test_solver_settings_win_over_the_echo(self):
        edges = random_connected_graph(60, 80, seed=2)
        config = RunConfig(neig=3)
        by_name = {r.solver: r for r in run_graph(edges, config)}
        irlm = by_name["irlm"].config
        # the clipped basis size and the default inner tolerance irlm_smallest used
        assert irlm["ncv"] == min(max(ncv_for(3), 3 + 2), 60 - 1)
        assert irlm["delta_pcg"] == 1e-2 * config.delta
        assert by_name["jd"].config["delta_pcg"] == 1e-2
        for r in by_name.values():
            assert r.config["n"] == 60
            assert r.config["seed"] == config.seed


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
        assert config.itmax_inner == 20
        assert (config.m_min, config.m_max) == (5, 10)
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
            "--seed", "9", "--report", "csv", "--allow-disconnected",
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
        assert config.allow_disconnected


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

    def test_disconnected_exits_3_without_optin(self, tmp_path, capsys):
        g = tmp_path / "two.txt"
        g.write_text("4\n0 1 1.0\n2 3 1.0\n")
        assert main(["--input", str(g)]) == 3
        assert "components" in capsys.readouterr().err

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
