"""Command line front end for the benchmark harness.

Exit codes: 0 all selected solvers converged, 2 at least one solver
failed or was caught misreporting, 3 the input or --emit-spectrum's path
(checked before any solver runs) could not be used.
"""

import argparse
import os
import sys
from dataclasses import asdict

from .bench import SOLVERS, RunConfig, emit_report, emit_spectrum, run
from .graphs import GraphFormatError


def build_parser():
    """The lapeig-bench flags; every default comes from RunConfig."""
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
        help="input syntax: whitespace edge list or Matrix Market",
    )
    parser.add_argument(
        "--symmetrize",
        action="store_true",
        help="merge duplicate (i, j)/(j, i) entries by maximum weight",
    )
    parser.add_argument(
        "--solver",
        choices=(*SOLVERS, "all"),
        help="which eigensolver(s) to run",
    )
    parser.add_argument("--neig", type=int,
                        help="number of smallest positive eigenpairs")
    parser.add_argument("--tol", dest="delta", type=float, metavar="TOL",
                        help="relative residual exit tolerance")
    parser.add_argument(
        "--pcg-tol",
        dest="delta_pcg",
        type=float,
        metavar="PCG_TOL",
        help="inner solve tolerance for jd and irlm; default: each solver's own",
    )
    parser.add_argument("--itmax-inner", type=int,
                        help="inner iteration cap for the jd correction solve")
    parser.add_argument("--mmin", dest="m_min", type=int, metavar="MMIN",
                        help="jd subspace size kept at restart")
    parser.add_argument("--mmax", dest="m_max", type=int, metavar="MMAX",
                        help="jd subspace size triggering restart")
    parser.add_argument("--ncv", type=int,
                        help="irlm basis size; default scales with --neig")
    parser.add_argument("--seed", type=int,
                        help="seed for every random start (reproducible counts)")
    parser.add_argument("--report", choices=("table", "csv"))
    parser.add_argument(
        "--emit-spectrum",
        metavar="PATH",
        help="write normalized eigenvalues lambda_j/lambda_2 to PATH",
    )
    parser.add_argument(
        "--allow-disconnected",
        action="store_true",
        help="keep the largest component instead of rejecting the input",
    )
    parser.set_defaults(**asdict(RunConfig()))
    return parser


def config_from_args(args):
    return RunConfig(**vars(args))


def spectrum_path_problem(path):
    """Why no spectrum can be written to path, or None; opens nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        return f"no writable directory {parent!r}"
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    spectrum = config.emit_spectrum
    if spectrum is not None and (problem := spectrum_path_problem(spectrum)):
        print(f"lapeig-bench: cannot write the spectrum: {problem}", file=sys.stderr)
        return 3
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
            try:
                with open(config.emit_spectrum, "wb") as handle:
                    handle.write(emit_spectrum(values))
            except OSError as err:
                print(f"lapeig-bench: cannot write the spectrum: {err}", file=sys.stderr)
                return 3

    return 0 if all(r.converged for r in reports) else 2


if __name__ == "__main__":
    raise SystemExit(main())
