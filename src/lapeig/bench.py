"""Benchmark harness: load a graph, run solvers, verify, and report.

One RunConfig drives any subset of the three solvers on the same
Laplacian with a shared preconditioner.  Every report is re-verified
with fresh matrix products before it may claim convergence, and the
fixed seed makes eigenvalues and product counts bit-reproducible.
"""

import csv
import inspect
import io
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dacg import dacg_smallest
from .graphs import (
    build_laplacian,
    connected_components,
    drop_isolated,
    largest_component,
    load_edge_list,
)
from .ic0 import ic0_factorize
from .irlm import irlm_smallest
from .jd import jd_smallest
from .results import SolverError, SolverReport, check_settings, rayleigh_residuals, run_report
from .sparse import MvpCounter

# the most verified vectors may miss orthonormality or reach into the kernel by
VECTOR_TOL = 1e-8

# the one map from solver names to solvers, in the order reports list them
SOLVERS = {"dacg": dacg_smallest, "jd": jd_smallest, "irlm": irlm_smallest}

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
    """Everything one benchmark invocation depends on, seed included.

    A solver setting left None takes the default in the solver's own
    signature.
    """

    input: str | None = None
    format: str = "edgelist"
    symmetrize: bool = False
    solver: str = "all"
    neig: int = 5
    delta: float = 1e-6
    delta_pcg: float | None = None
    itmax_inner: int | None = None
    m_min: int | None = None
    m_max: int | None = None
    ncv: int | None = None
    seed: int = 0
    report: str = "table"
    emit_spectrum: str | None = None
    allow_disconnected: bool = False

    def selection(self):
        if self.solver == "all":
            return tuple(SOLVERS)
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; "
                             f"pick one of {', '.join(SOLVERS)}")
        return (self.solver,)


def _solver_settings(name, config):
    """The named solver's keyword settings: each config field it takes, neig
    aside, or else the default in its signature where the field is None."""
    takes = inspect.signature(SOLVERS[name]).parameters
    return {key: takes[key].default if value is None else value
            for key, value in asdict(config).items() if key in takes and key != "neig"}


def run_graph(edges, config):
    """Run the configured solvers on an in-memory edge list.

    The solver selection is checked first.  After the component check,
    each selected solver's settings, with the neig it will get, pass
    check_settings before the Laplacian is built, so a bad setting costs
    no factorization and no solver run.
    Solver failures are isolated: a failed solver yields a report with
    converged False and the error message in its config echo, and the
    remaining solvers still run.  A solver that claims convergence but
    whose pairs fail independent residual recomputation, or whose
    vectors miss orthonormality or reach into the kernel by more than
    VECTOR_TOL, aborts the run with a RuntimeError.
    """
    names = config.selection()
    n, m = edges.n_nodes, edges.m
    if config.allow_disconnected:
        # search only the nodes on an edge: O(m), same component kept
        edges, _ = largest_component(drop_isolated(edges))
    else:
        # more nodes than edges + 1 is disconnected: known before any O(n) array
        ncomp = f"at least {n - m}" if n > m + 1 else connected_components(edges)[0]
        if ncomp != 1:
            raise ValueError(f"graph has {n} nodes, {m} edges and {ncomp} components; "
                             "pass allow_disconnected to keep the largest one")
    # the Laplacian keeps every node of edges, so a.n is edges.n_nodes
    neig = min(int(config.neig), edges.n_nodes - 1)
    if neig < 1 <= config.neig:
        raise ValueError("graph too small: no positive eigenvalues to compute")
    settings = {name: _solver_settings(name, config) for name in names}
    for name in names:
        check_settings(edges.n_nodes, neig, **settings[name])
    a = build_laplacian(edges)

    t0 = time.perf_counter()
    f = ic0_factorize(a)
    factor_seconds = time.perf_counter() - t0

    echo = dict(asdict(config), n=a.n, m=edges.m, neig_effective=neig,
                factor_seconds=factor_seconds, precond_shift=f.shift,
                precond_attempts=f.attempts)

    reports = []
    for name in names:
        counter = MvpCounter()
        delta = settings[name].get("delta", config.delta)  # the one the solver ran with
        try:
            pairs, report = SOLVERS[name](a, neig, f=f, counter=counter, **settings[name])
        except SolverError as err:
            report = run_report(name, neig, delta, counter, error=str(err))
        else:
            # fresh products on a throwaway counter, independent of the
            # solver's own exit test
            thetas, resids = rayleigh_residuals(a, pairs.positive()[1], MvpCounter())
            gram, overlap = pairs.gram_defect(), pairs.kernel_overlap()
            if (len(thetas) != neig or np.any(resids > delta)
                    or max(gram, overlap) > VECTOR_TOL):
                raise RuntimeError(
                    f"{name} claimed convergence but recomputed residuals are "
                    f"{resids.tolist()} against delta={delta}, Gram defect "
                    f"{gram:.3e} and kernel overlap {overlap:.3e} against {VECTOR_TOL}"
                )
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
    rank = {name: k for k, name in enumerate(SOLVERS)}
    reports = sorted(reports, key=lambda r: rank.get(r.solver, len(rank)))
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
