"""Sparse eigensolvers for the small end of graph Laplacian spectra.

Three interchangeable solvers (dacg, jd, irlm) compute the smallest
strictly positive eigenpairs of a weighted Laplacian, sharing an IC(0)
preconditioner, a deflated conjugate gradient kernel, and one result
vocabulary.  On top of the pairs sit the classic applications: Fiedler
vector and connectivity, relaxed partitioning, spectral gap statistics,
and truncated or shifted pseudoinverse operators.
"""

from .bench import (
    RunConfig,
    emit_report,
    emit_spectrum,
    parse_report_csv,
    run,
    run_graph,
)
from .dacg import dacg_smallest
from .generators import (
    complete_graph,
    cycle_graph,
    geometric_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from .graphs import (
    EdgeList,
    GraphFormatError,
    GraphStats,
    build_laplacian,
    connected_components,
    csr_connected_components,
    largest_component,
    load_edge_list,
    stats,
    write_matrix_market,
)
from .ic0 import Ic0Error, Ic0Factor, ic0_factorize, identity_factor
from .irlm import irlm_smallest, ncv_for
from .jd import jd_smallest
from .kernels import GramSchmidtBreakdown, dense_sym_eig, mgs_orthonormalize
from .pcg import DeflationBasis, PcgOutcome, jd_correction_solve, kernel_basis, pcg_solve
from .results import EigenPairSet, SolverError, SolverReport, rayleigh_residuals
from .sparse import CsrMatrix, MvpCounter, spmv
from .spectral import (
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

__version__ = "0.1.0"

__all__ = [
    "CsrMatrix",
    "DeflationBasis",
    "EdgeList",
    "EigenPairSet",
    "GramSchmidtBreakdown",
    "GraphFormatError",
    "GraphStats",
    "Ic0Error",
    "Ic0Factor",
    "MvpCounter",
    "PcgOutcome",
    "PinvApprox",
    "RunConfig",
    "SolverError",
    "SolverReport",
    "build_laplacian",
    "complete_graph",
    "connected_components",
    "csr_connected_components",
    "cut_weight",
    "cycle_graph",
    "dacg_smallest",
    "dense_sym_eig",
    "emit_report",
    "emit_spectrum",
    "estimate_lambda_max",
    "fiedler",
    "fiedler_order",
    "gap_ratios",
    "geometric_graph",
    "grid_graph",
    "ic0_factorize",
    "identity_factor",
    "irlm_smallest",
    "jd_correction_solve",
    "jd_smallest",
    "kernel_basis",
    "largest_component",
    "load_edge_list",
    "make_pinv",
    "mgs_orthonormalize",
    "ncv_for",
    "parse_report_csv",
    "partition_relaxed",
    "path_graph",
    "pcg_solve",
    "pinv_apply",
    "pinv_dense",
    "random_connected_graph",
    "rayleigh_residuals",
    "run",
    "run_graph",
    "sign_partition",
    "spmv",
    "star_graph",
    "stats",
    "write_matrix_market",
]
