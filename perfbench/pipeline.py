"""The measured process: the pipeline a lapeig library or lapeig-bench user runs.

For each graph of the batch: read the file, check components, build the
Laplacian, factor IC(0) once, run every solver on that shared factor, and
verify each solver's pairs with fresh products on the benchmark's own
MvpCounter.  Stages are timed from outside, around calls to the public
functions.  Nothing else runs in this process, so its ru_maxrss is the
pipeline's peak RSS (interpreter and numpy/scipy included).

Batches repeat until the run has measured about --seconds; the first
always runs.  A fixed reference workload runs between the stages of each
pass and gives the machine's speed during it (see speed.py); its time is
not part of any stage.  With --trace 1 the process instead runs graph 0 through
lapeig.bench.run (the lapeig-bench code path), then untraced (the
reference for trace_overhead), then traced, and reports the layer
metrics and the two self-tests.

Reads the manifest written by prepare.py on stdin; prints one JSON line.
"""

import argparse
import contextlib
import json
import resource
import sys
import time

import numpy as np
import scipy

import lapeig
import lapeig.dacg as dacg
import lapeig.graphs as graphs
import lapeig.ic0 as ic0
import lapeig.irlm as irlm
import lapeig.jd as jd
import lapeig.results as results
from lapeig.bench import RunConfig
from lapeig.bench import run as cli_run
from lapeig.results import SolverError
from lapeig.sparse import MvpCounter
import tracing
from speed import NOMINAL_S, SpeedMeter
from workloads import SOLVERS, WORKLOADS

GRAM_TOL = 1e-8
KERNEL_TOL = 1e-8
SETUP_SAMPLES = 5

clock = time.perf_counter


def solve(name, a, neig, workload, f, seed, counter):
    """The solver call lapeig-bench makes, with its default settings."""
    delta = workload.delta
    if name == "dacg":
        return dacg.dacg_smallest(a, neig, delta=delta, f=f, seed=seed, counter=counter)
    if name == "jd":
        return jd.jd_smallest(a, neig, delta=delta, delta_pcg=1e-2, itmax_inner=20,
                              m_min=5, m_max=10, f=f, seed=seed, counter=counter)
    return irlm.irlm_smallest(a, neig, ncv=workload.ncv, delta=delta, f=f, seed=seed,
                              counter=counter)


def run_solver(name, a, neig, workload, f, seed, span):
    delta = workload.delta
    counter = MvpCounter()
    t0 = clock()
    try:
        with span(f"solve.{name}"):
            pairs, _ = solve(name, a, neig, workload, f, seed, counter)
    except SolverError as err:
        return {"solve_s": clock() - t0, "verify_s": 0.0, "mvp": counter.count,
                "verify_mvp": 0, "values": [], "errors": [f"SolverError: {err}"]}
    t1 = clock()
    verify = MvpCounter()
    with span(f"verify.{name}"):
        values, vectors, _ = pairs.positive()
        _, resids = results.rayleigh_residuals(a, vectors, verify)
        gram = pairs.gram_defect()
        overlap = pairs.kernel_overlap()
    t2 = clock()
    errors = []
    if len(values) != neig:
        errors.append(f"{len(values)} pairs returned, {neig} wanted")
    if np.any(resids > delta):
        errors.append(f"recomputed residual {resids.max():.3e} above delta {delta:.0e}")
    if gram > GRAM_TOL:
        errors.append(f"gram defect {gram:.3e}")
    if overlap > KERNEL_TOL:
        errors.append(f"kernel overlap {overlap:.3e}")
    return {"solve_s": t1 - t0, "verify_s": t2 - t1, "mvp": counter.count,
            "verify_mvp": verify.count, "values": values.tolist(), "errors": errors}


def setup(graph):
    """File to IC(0) factor; returns the Laplacian, the factor and stage times."""
    t0 = clock()
    edges = graphs.load_edge_list(graph["path"], format=graph["format"])
    t1 = clock()
    ncomp, _ = graphs.connected_components(edges)
    t2 = clock()
    a = graphs.build_laplacian(edges)
    t3 = clock()
    f = ic0.ic0_factorize(a)
    t4 = clock()
    if ncomp != 1:
        raise RuntimeError(f"generated graph {graph['path']} has {ncomp} components")
    times = {"load_s": t1 - t0, "components_s": t2 - t1, "laplacian_s": t3 - t2,
             "factor_s": t4 - t3, "setup_s": t4 - t0}
    return a, f, times


def run_pass(graph, workload, tracer=None, mark=None):
    """One graph from file to verified pairs.  ``mark``, if given, is called
    after set-up and after each solver; the time it returns is left out of
    total_s."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    mark = mark or (lambda: 0.0)
    t0 = clock()
    paused = 0.0
    with span("pass"):
        with span("setup"):
            a, f, times = setup(graph)
        paused += mark()
        neig = min(workload.neig, a.n - 1)
        solvers = {}
        for name in SOLVERS:
            solvers[name] = run_solver(name, a, neig, workload, f, graph["seed"], span)
            paused += mark()
    return {"seed": graph["seed"], **times, "total_s": clock() - t0 - paused,
            "solvers": solvers}


def measure(manifest, workload, seconds):
    """Untraced passes; each carries the machine speed measured around it."""
    meter = SpeedMeter()
    meter.mark()
    start = clock()
    batches = []
    while True:
        b0 = clock()
        batch = []
        for graph in manifest["graphs"]:
            first = len(meter.marks) - 1
            p = run_pass(graph, workload, mark=meter.mark)
            # marks follow set-up and then each solver, so stage k of the
            # pass lies between marks first + k and first + k + 1
            p["speed"] = meter.speed(first)
            p["setup_speed"] = meter.speed(first, first + 1)
            for k, name in enumerate(SOLVERS, start=1):
                p["solvers"][name]["speed"] = meter.speed(first + k, first + k + 1)
            batch.append(p)
        batches.append(batch)
        took = clock() - b0
        # another batch runs if it should end within half a batch of the
        # deadline, so a run measures --seconds give or take half a batch
        if clock() + took / 2 > start + seconds:
            break
    # set-up is cheap next to a pass; repeat it until setup_s has a median of several
    extra = []
    for k in range(max(0, SETUP_SAMPLES - sum(map(len, batches)))):
        first = len(meter.marks) - 1
        setup_s = setup(manifest["graphs"][k % len(manifest["graphs"])])[2]["setup_s"]
        meter.mark()
        extra.append({"setup_s": setup_s, "setup_speed": meter.speed(first)})
    return {"batches": batches, "extra_setups": extra, "nominal_s": NOMINAL_S,
            "reference_s": [s for _, s in meter.marks]}


def cli_pass(graph, workload):
    """The same graph and seed through lapeig.bench.run, as lapeig-bench runs it."""
    config = RunConfig(input=graph["path"], format=graph["format"], neig=workload.neig,
                       delta=workload.delta, ncv=workload.ncv, seed=graph["seed"])
    return {r.solver: {"mvp": r.mvp, "values": r.eigenvalues} for r in cli_run(config)}


def layer_metrics(tracer):
    totals = tracer.totals()
    st = tracer.stats
    m = {}
    for name in ("graphs.load_edge_list", "graphs.connected_components",
                 "graphs.build_laplacian", "ic0.ic0_factorize", "results.rayleigh_residuals"):
        m[f"{name}.s"] = totals[name][1]
    m["ic0.ic0_factorize.attempts"] = st["ic0.ic0_factorize"]["attempts"]
    m["ic0.ic0_factorize.shift"] = st["ic0.ic0_factorize"]["shift"]
    for name in ("ic0.Ic0Factor.apply", "sparse.spmv", "pcg.DeflationBasis.project_out",
                 "pcg.jd_correction_solve", "kernels.dense_sym_eig",
                 "kernels.mgs_orthonormalize"):
        m[f"{name}.calls"], m[f"{name}.s"] = totals[name][:2]
    m["sparse.spmv.bytes_computed"] = st["sparse.spmv"]["bytes_computed"]
    proj = "pcg.DeflationBasis.project_out"
    m[f"{proj}.cols_mean"] = st[proj]["cols"] / totals[proj][0]
    m[f"{proj}.bytes_computed"] = st[proj]["bytes_computed"]
    calls, _, self_s = totals["pcg.pcg_solve"]
    m["pcg.pcg_solve.calls"] = calls
    m["pcg.pcg_solve.iterations"] = st["pcg.pcg_solve"]["iterations"]
    m["pcg.pcg_solve.self_s"] = self_s
    m["pcg.pcg_solve.converged_ratio"] = st["pcg.pcg_solve"]["converged"] / calls
    m["kernels.dense_sym_eig.max_dim"] = st["kernels.dense_sym_eig"]["max_dim"]
    for solver in SOLVERS:
        name = f"{solver}.{solver}_smallest"
        m[f"{solver}.self_s"] = totals[name][2]
        m[f"{solver}.verify_useful"] = st[name]["pairs"] / st[name]["verify_mvp"]
    m["jd.outer_its"] = st["jd.jd_smallest"]["outer_its"]
    m["jd.inner_its"] = st["jd.jd_smallest"]["inner_its"]
    m["jd.restarts"] = st["jd.jd_smallest"]["restarts"]
    m["irlm.solves"] = st["irlm.irlm_smallest"]["outer_its"]
    m["irlm.inner_its"] = st["irlm.irlm_smallest"]["inner_its"]
    m["irlm.restarts"] = st["irlm.irlm_smallest"]["restarts"]
    m["dacg.iterations"] = st["dacg.dacg_smallest"]["inner_its"]
    return m


def outcome(p):
    return {name: (s["mvp"], s["values"]) for name, s in p["solvers"].items()}


def trace(manifest, workload, spans_path):
    graph = manifest["graphs"][0]
    # the lapeig-bench pass goes first and also warms the process up, so
    # the untraced and traced passes start from the same state
    cli = cli_pass(graph, workload)
    untraced = run_pass(graph, workload)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = run_pass(graph, workload, tracer)
    finally:
        uninstall()
    tracer.dump(spans_path)

    checks = []
    ledger = sum(s["mvp"] + s["verify_mvp"] for s in traced["solvers"].values())
    spmv_calls = tracer.totals()["sparse.spmv"][0]
    if spmv_calls != ledger:
        checks.append(f"trace incomplete: {spmv_calls} traced spmv calls, "
                      f"{ledger} products on the MVP ledgers")
    if outcome(traced) != outcome(untraced):
        checks.append("tracing changed eigenvalues or MVP counts")
    staged = outcome(untraced)
    for name in SOLVERS:
        if (cli[name]["mvp"], cli[name]["values"]) != staged[name]:
            checks.append(f"{name}: staged pipeline and lapeig.bench.run disagree "
                          f"(MVPs {staged[name][0]} vs {cli[name]['mvp']})")
    metrics = layer_metrics(tracer)
    for name in SOLVERS:
        metrics[f"{name}.solve_s"] = untraced["solvers"][name]["solve_s"]
    metrics["trace_overhead"] = traced["total_s"] - untraced["total_s"]
    return {"passes": [untraced, traced], "layers": metrics, "self_test_errors": checks,
            "spans": len(tracer.spans)}


def main():
    parser = argparse.ArgumentParser(description="lapeig benchmark pipeline process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()
    manifest = json.load(sys.stdin)
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = trace(manifest, workload, args.spans)
    else:
        out = measure(manifest, workload, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"lapeig": lapeig.__version__, "numpy": np.__version__,
                       "scipy": scipy.__version__, "python": sys.version.split()[0]}
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
