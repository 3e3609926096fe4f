"""Benchmark harness: load a graph, run solvers, verify, and report.

One RunConfig drives any subset of the three solvers on the same
Laplacian with a shared preconditioner.  Every report is re-verified
with fresh matrix products before it may claim convergence, and the
fixed seed makes eigenvalues and product counts bit-reproducible.
"""

import csv
import io
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dacg import dacg_smallest
from .graphs import (
    build_laplacian,
    connected_components,
    largest_component,
    load_edge_list,
)
from .ic0 import ic0_factorize
from .irlm import irlm_smallest
from .jd import jd_smallest
from .results import SolverError, SolverReport, rayleigh_residuals
from .sparse import MvpCounter

SOLVER_ORDER = ("dacg", "jd", "irlm")

CSV_COLUMNS = (
    "solver",
    "neig",
    "delta",
    "mvp",
    "outer_its",
    "inner_its_total",
    "wall_seconds",
    "converged",
)


@dataclass
class RunConfig:
    """Everything one benchmark invocation depends on, seed included."""

    input: str | None = None
    format: str = "edgelist"
    symmetrize: bool = False
    solver: str = "all"
    neig: int = 5
    delta: float = 1e-6
    delta_pcg: float | None = None
    itmax_inner: int = 20
    m_min: int = 5
    m_max: int = 10
    ncv: int | None = None
    seed: int = 0
    report: str = "table"
    emit_spectrum: str | None = None
    allow_disconnected: bool = False

    def selection(self):
        if self.solver == "all":
            return SOLVER_ORDER
        if self.solver not in SOLVER_ORDER:
            raise ValueError(f"unknown solver {self.solver!r}")
        return (self.solver,)


def _run_one(name, a, neig, f, config, counter):
    if name == "dacg":
        return dacg_smallest(
            a, neig, delta=config.delta, f=f, seed=config.seed, counter=counter
        )
    if name == "jd":
        return jd_smallest(
            a,
            neig,
            delta=config.delta,
            delta_pcg=1e-2 if config.delta_pcg is None else config.delta_pcg,
            itmax_inner=config.itmax_inner,
            m_min=config.m_min,
            m_max=config.m_max,
            f=f,
            seed=config.seed,
            counter=counter,
        )
    return irlm_smallest(
        a,
        neig,
        ncv=config.ncv,
        delta=config.delta,
        delta_pcg=config.delta_pcg,
        f=f,
        seed=config.seed,
        counter=counter,
    )


def run_graph(edges, config):
    """Run the configured solvers on an in-memory edge list.

    Solver failures are isolated: a failed solver yields a report with
    converged False and the error message in its config echo, and the
    remaining solvers still run.  A solver that claims convergence but
    whose pairs fail independent residual recomputation aborts the run.
    """
    ncomp, _ = connected_components(edges)
    if ncomp != 1:
        if not config.allow_disconnected:
            raise ValueError(
                f"graph has {ncomp} components; pass allow_disconnected to "
                "keep the largest one"
            )
        edges, _ = largest_component(edges)
    a = build_laplacian(edges)
    neig = min(int(config.neig), a.n - 1)
    if neig < 1:
        raise ValueError("graph too small: no positive eigenvalues to compute")

    t0 = time.perf_counter()
    f = ic0_factorize(a)
    factor_seconds = time.perf_counter() - t0

    echo = asdict(config)
    echo.update(
        n=a.n,
        m=edges.m,
        neig_effective=neig,
        factor_seconds=factor_seconds,
        precond_shift=f.shift,
    )

    reports = []
    for name in config.selection():
        counter = MvpCounter()
        t0 = time.perf_counter()
        try:
            pairs, report = _run_one(name, a, neig, f, config, counter)
        except SolverError as err:
            wall = time.perf_counter() - t0
            failed = SolverReport(
                solver=name,
                neig=neig,
                delta=config.delta,
                mvp=counter.count,
                outer_its=0,
                inner_its_total=0,
                wall_seconds=wall,
                converged=False,
            )
            failed.config = dict(echo)
            failed.config["error"] = str(err)
            reports.append(failed)
            continue
        report.wall_seconds = time.perf_counter() - t0

        # fresh products on a throwaway counter, independent of the
        # solver's own exit test
        thetas, resids = rayleigh_residuals(a, pairs.positive()[1], MvpCounter())
        if len(thetas) != neig or np.any(resids > config.delta):
            raise RuntimeError(
                f"{name} claimed convergence but recomputed residuals are "
                f"{resids.tolist()} against delta={config.delta}"
            )
        report.converged = True
        report.per_pair_residuals = [float(r) for r in resids]
        # the solver's effective settings win over the raw RunConfig echo
        report.config = {**echo, **report.config}
        reports.append(report)
    return reports


def run(config):
    """Load config.input and run the selected solvers on it."""
    if config.input is None:
        raise ValueError("config.input is required")
    edges = load_edge_list(
        config.input, format=config.format, symmetrize=config.symmetrize
    )
    return run_graph(edges, config)


def _format_cell(report, column):
    value = getattr(report, column)
    if column == "converged":
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(reports, format="table"):
    """Render reports as bytes, either an aligned table or strict CSV.

    CSV columns are exactly solver,neig,delta,mvp,outer_its,
    inner_its_total,wall_seconds,converged and round-trip through
    parse_report_csv.
    """
    if not reports:
        raise ValueError("no reports to emit")
    reports = sorted(
        reports, key=lambda r: SOLVER_ORDER.index(r.solver)
        if r.solver in SOLVER_ORDER else len(SOLVER_ORDER)
    )
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow([_format_cell(r, c) for c in CSV_COLUMNS])
        return buf.getvalue().encode()
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    rows = [CSV_COLUMNS]
    for r in reports:
        rows.append(tuple(
            f"{r.wall_seconds:.3f}" if c == "wall_seconds" else _format_cell(r, c)
            for c in CSV_COLUMNS
        ))
    widths = [max(len(row[k]) for row in rows) for k in range(len(CSV_COLUMNS))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return ("\n".join(lines) + "\n").encode()


def parse_report_csv(data):
    """Inverse of emit_report(..., \"csv\") for the eight tabular fields."""
    if isinstance(data, bytes):
        data = data.decode()
    reader = csv.DictReader(io.StringIO(data))
    if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    out = []
    for row in reader:
        out.append(
            SolverReport(
                solver=row["solver"],
                neig=int(row["neig"]),
                delta=float(row["delta"]),
                mvp=int(row["mvp"]),
                outer_its=int(row["outer_its"]),
                inner_its_total=int(row["inner_its_total"]),
                wall_seconds=float(row["wall_seconds"]),
                converged=row["converged"] == "true",
            )
        )
    return out


def emit_spectrum(values):
    """Two-column gnuplot text: index j and lambda_j / lambda_2, j from 2.

    The first ratio is exactly 1; a clustered spectrum shows up as a
    flat stretch of ratios.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no eigenvalues to emit")
    if values[0] <= 0:
        raise ValueError("spectrum values must be positive")
    lines = []
    for offset, v in enumerate(values):
        lines.append(f"{offset + 2} {float(v) / float(values[0])!r}\n")
    return "".join(lines).encode()
