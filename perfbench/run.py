"""lapeig benchmark: time to verified pairs, MVPs, set-up and memory.

    python3 perfbench/run.py --workload rand20k-k10 --seed 1 --seconds 40 --trace 0

Run from the root of a lapeig checkout; the package is imported from
``src``.  A run is a single-process closed loop (one caller, one pass at
a time) with BLAS pinned to one thread, the plain single-threaded
baseline.  It has three steps, each its own process:

1. ``prepare.py`` (untimed) writes the batch's graph files and computes
   each graph's oracle eigenvalues, cached per seed under ``.perfbench``;
2. ``pipeline.py`` runs the measured pipeline on the batch: file read,
   components, Laplacian, IC(0), the three solvers, fresh-residual
   verification;
3. this process compares every solver's eigenvalues with the oracle and
   prints the metrics.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's passes (batches repeat until the run has measured about
``--seconds``); ``setup_s`` is the median of at least five set-ups.
Times are adjusted to machine speed 1 with a reference workload timed
between stages (``speed.py``); the unadjusted medians are printed too.

``--trace 1`` reports per-layer metrics from a traced pass over the
batch's first graph, each solver's wall time from an untraced pass of
it, and ``trace_overhead``.  It also runs two self-tests: traced
``spmv`` calls equal the MVP ledgers, and the staged pipeline
reproduces ``lapeig.bench.run`` bit for bit.

The last line of standard output is the result JSON; a fuller record,
with the environment, goes to ``.perfbench/results``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SOLVERS, WORKLOADS

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170
PINNED_THREADS = "1"

# Each solver's time is a per-layer metric (from the traced run's untraced
# pass), not an end-to-end one: it follows its graph-dependent MVP count,
# and the speed adjustment evens out the machine only in part over a
# single solver call.  Five seeds on a shared 2-core VM put the quartile
# spread of the adjusted per-solver medians at 0.05-0.20, against 0.04-0.10
# for total_s; the largest bound allowed is 0.25.  Per-solver cost stays
# gated through the MVP counts, which repeat exactly for a seed.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "jd_mvp": "count",
    "irlm_mvp": "count",
    "dacg_mvp": "count",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

PER_LAYER = {
    "graphs.load_edge_list.s": "s",
    "graphs.connected_components.s": "s",
    "graphs.build_laplacian.s": "s",
    "ic0.ic0_factorize.s": "s",
    "ic0.ic0_factorize.attempts": "count",
    "ic0.ic0_factorize.shift": "ratio",
    "ic0.Ic0Factor.apply.calls": "count",
    "ic0.Ic0Factor.apply.s": "s",
    "sparse.spmv.calls": "count",
    "sparse.spmv.s": "s",
    "sparse.spmv.bytes_computed": "B",
    "pcg.DeflationBasis.project_out.calls": "count",
    "pcg.DeflationBasis.project_out.s": "s",
    "pcg.DeflationBasis.project_out.cols_mean": "cols",
    "pcg.DeflationBasis.project_out.bytes_computed": "B",
    "pcg.pcg_solve.calls": "count",
    "pcg.pcg_solve.iterations": "count",
    "pcg.pcg_solve.self_s": "s",
    "pcg.pcg_solve.converged_ratio": "ratio",
    "pcg.jd_correction_solve.calls": "count",
    "pcg.jd_correction_solve.s": "s",
    "kernels.dense_sym_eig.calls": "count",
    "kernels.dense_sym_eig.s": "s",
    "kernels.dense_sym_eig.max_dim": "count",
    "kernels.mgs_orthonormalize.calls": "count",
    "kernels.mgs_orthonormalize.s": "s",
    "results.rayleigh_residuals.s": "s",
    "jd.outer_its": "count",
    "jd.inner_its": "count",
    "jd.restarts": "count",
    "jd.verify_useful": "ratio",
    "jd.self_s": "s",
    "irlm.solves": "count",
    "irlm.inner_its": "count",
    "irlm.restarts": "count",
    "irlm.verify_useful": "ratio",
    "irlm.self_s": "s",
    "dacg.iterations": "count",
    "dacg.verify_useful": "ratio",
    "dacg.self_s": "s",
    "jd.solve_s": "s",
    "irlm.solve_s": "s",
    "dacg.solve_s": "s",
    "trace_overhead": "s",
}


class StepFailed(RuntimeError):
    pass


def step(script, args, env, deadline, stdin=None):
    """Run one benchmark process to completion; its last stdout line is JSON."""
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args], input=stdin, env=env,
            capture_output=True, text=True, timeout=max(remaining, 1),
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{script} exceeded the {DEADLINE_S} s run deadline") from None
    if proc.returncode != 0:
        raise StepFailed(f"{script} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def oracle_errors(values, graph, delta):
    """Sorted solver values must sit within the residual bound of the oracle's.

    For orthonormal vectors with residual norms at most delta * theta, each
    of the k values is within sqrt(k) * delta * theta of a distinct
    eigenvalue; a skipped eigenvalue shows up as a gap-sized mismatch.
    """
    oracle = graph["oracle"]
    if len(values) != len(oracle):
        return []  # already counted as a missing pair
    k = len(oracle)
    worst = max(abs(v - o) - (k ** 0.5 * delta * abs(v) + graph["oracle_err"])
                for v, o in zip(values, oracle))
    if worst > 0:
        return [f"eigenvalues differ from the oracle by {worst:.3e} beyond the bound"]
    return []


def check_pass(p, graph, delta):
    calls = 0
    failures = []
    for name in SOLVERS:
        s = p["solvers"][name]
        s["errors"] += oracle_errors(s["values"], graph, delta)
        calls += 1
        if s["errors"]:
            failures.append(f"graph seed {graph['seed']} {name}: {'; '.join(s['errors'])}")
    return calls, failures


def end_to_end(out, attempted, failed):
    """The end-to-end metrics, and the unadjusted wall-clock medians.

    Times are wall times multiplied by the machine speed measured around
    each pass (speed.py).  Every metric is a median over the run's passes.
    A pass's time follows its graph's MVP counts as well as the machine; a
    median ignores the odd hard graph (an extra IRLM restart, a slow DACG
    pair), where a mean takes on part of it.  Whole batches run, so each
    graph weighs the same.
    """
    passes = [p for b in out["batches"] for p in b]
    setups = passes + out["extra_setups"]

    def median(value, samples=passes):
        return statistics.median(value(p) for p in samples)

    m = {"setup_s": median(lambda p: p["setup_s"] * p["setup_speed"], setups),
         "total_s": median(lambda p: p["total_s"] * p["speed"])}
    for name in SOLVERS:
        m[f"{name}_mvp"] = median(lambda p: p["solvers"][name]["mvp"])
    m["peak_rss_mb"] = out["peak_rss_mb"]
    m["verified_frac"] = (attempted - failed) / attempted
    wall = {"setup_s": median(lambda p: p["setup_s"], setups),
            "total_s": median(lambda p: p["total_s"]),
            "speed": median(lambda p: p["speed"])}
    return m, wall


def main():
    parser = argparse.ArgumentParser(description="lapeig benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not Path("src/lapeig/__init__.py").is_file():
        print("perfbench: no src/lapeig here; run from the root of a lapeig checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = pinned_env()
    work = Path(".perfbench")
    for sub in ("results", "trace"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    try:
        # the traced run uses only the batch's first graph
        first = ["--graphs", "1"] if args.trace else []
        manifest = step("prepare.py", ["--workload", workload.name, "--seed", str(args.seed),
                                       *first], env, deadline)
        spans = work / "trace" / f"{tag}.json"
        out = step("pipeline.py", ["--workload", workload.name, "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--spans", str(spans)],
                   env, deadline, stdin=json.dumps(manifest))
    except StepFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    graph_of = {g["seed"]: g for g in manifest["graphs"]}
    passes = out["passes"] if args.trace else [p for b in out["batches"] for p in b]
    attempted = 0
    failures = []
    for p in passes:
        calls, bad = check_pass(p, graph_of[p["seed"]], workload.delta)
        attempted += calls
        failures += bad
    failed = len(failures)
    if args.trace:
        failures += out["self_test_errors"]
        metrics, units = out["layers"], PER_LAYER
        note = "traced pass of the first graph"
    else:
        metrics, wall = end_to_end(out, attempted, failed)
        units = END_TO_END
        note = (f"median over {len(passes)} passes of {workload.graphs} graphs; setup_s median "
                f"of {len(passes) + len(out['extra_setups'])} set-ups; times at machine speed 1\n"
                f"  unadjusted wall clock: setup_s {wall['setup_s']:.4g} s, total_s "
                f"{wall['total_s']:.4g} s, at a median machine speed of {wall['speed']:.3f}")

    environment = {
        "workload": workload.name,
        "seed": args.seed,
        "graph_seeds": [g["seed"] for g in manifest["graphs"]],
        "input_sha256": [g["sha256"] for g in manifest["graphs"]],
        "blas_threads": int(PINNED_THREADS),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **out["versions"],
    }
    record = {"environment": environment, "prepare": manifest, "pipeline": out,
              "failures": failures}
    (work / "results" / f"{tag}.json").write_text(json.dumps(record))

    print(json.dumps({"environment": environment}))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{workload.name}: {note}")
    for name, unit in units.items():
        print(f"  {name:46s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
