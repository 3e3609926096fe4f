"""Command line front end for the benchmark harness.

Exit codes: 0 all selected solvers converged, 2 at least one solver
failed or was caught misreporting, 3 the input could not be used.
"""

import argparse
import sys

from .bench import RunConfig, emit_report, emit_spectrum, run
from .graphs import GraphFormatError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lapeig-bench",
        description=(
            "Compute the smallest strictly positive Laplacian eigenpairs "
            "of a graph with any of three solvers and report their cost."
        ),
    )
    parser.add_argument("--input", required=True, help="graph file to load")
    parser.add_argument(
        "--format",
        choices=("edgelist", "mtx"),
        default="edgelist",
        help="input syntax: whitespace edge list or Matrix Market",
    )
    parser.add_argument(
        "--symmetrize",
        action="store_true",
        help="merge duplicate (i, j)/(j, i) entries by maximum weight",
    )
    parser.add_argument(
        "--solver",
        choices=("dacg", "jd", "irlm", "all"),
        default="all",
        help="which eigensolver(s) to run",
    )
    parser.add_argument("--neig", type=int, default=5,
                        help="number of smallest positive eigenpairs")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="relative residual exit tolerance")
    parser.add_argument(
        "--pcg-tol",
        type=float,
        default=None,
        help="inner solve tolerance; default 1e-2 for jd, 1e-2*tol for irlm",
    )
    parser.add_argument("--itmax-inner", type=int, default=20,
                        help="inner iteration cap for the jd correction solve")
    parser.add_argument("--mmin", type=int, default=5,
                        help="jd subspace size kept at restart")
    parser.add_argument("--mmax", type=int, default=10,
                        help="jd subspace size triggering restart")
    parser.add_argument("--ncv", type=int, default=None,
                        help="irlm basis size; default scales with --neig")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every random start (reproducible counts)")
    parser.add_argument("--report", choices=("table", "csv"), default="table")
    parser.add_argument(
        "--emit-spectrum",
        metavar="PATH",
        default=None,
        help="write normalized eigenvalues lambda_j/lambda_2 to PATH",
    )
    parser.add_argument(
        "--allow-disconnected",
        action="store_true",
        help="keep the largest component instead of rejecting the input",
    )
    return parser


def config_from_args(args):
    return RunConfig(
        input=args.input,
        format=args.format,
        symmetrize=args.symmetrize,
        solver=args.solver,
        neig=args.neig,
        delta=args.tol,
        delta_pcg=args.pcg_tol,
        itmax_inner=args.itmax_inner,
        m_min=args.mmin,
        m_max=args.mmax,
        ncv=args.ncv,
        seed=args.seed,
        report=args.report,
        emit_spectrum=args.emit_spectrum,
        allow_disconnected=args.allow_disconnected,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        reports = run(config)
    except (GraphFormatError, OSError, ValueError) as err:
        print(f"lapeig-bench: input error: {err}", file=sys.stderr)
        return 3
    except RuntimeError as err:
        print(f"lapeig-bench: {err}", file=sys.stderr)
        return 2

    sys.stdout.write(emit_report(reports, config.report).decode())
    for report in reports:
        if not report.converged:
            reason = report.config.get("error", "did not converge")
            print(f"lapeig-bench: {report.solver} failed: {reason}",
                  file=sys.stderr)

    if config.emit_spectrum is not None:
        values = next(
            (r.eigenvalues for r in reports if r.converged and r.eigenvalues),
            None,
        )
        if values is None:
            print("lapeig-bench: no converged run; spectrum not written",
                  file=sys.stderr)
        else:
            with open(config.emit_spectrum, "wb") as handle:
                handle.write(emit_spectrum(values))

    return 0 if all(r.converged for r in reports) else 2


if __name__ == "__main__":
    raise SystemExit(main())
