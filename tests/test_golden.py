"""Golden records: what the solvers compute on fixed graphs, pinned.

One fresh process under OPENBLAS_NUM_THREADS=1 runs run_graph with
RunConfig(neig=k, seed=1) on three fixed graphs, and IRLM alone on the
heavy-leaf star, whose first Ritz vector fails its fresh test and takes
IRLM's inverse-iteration retry.  Each run's cost tallies, eigenvalues
and the sha256 of its values, vectors and residuals are compared with
tests/golden.json.  The eigenvalues must agree within 1e-12 relative
anywhere; the tallies and digests must agree exactly, but only on the
toolchain the record was made with, and the test says so when it skips
them.

Rewrite the record, from the same kind of fresh process, with

    PYTHONPATH=src python -m tests.test_golden --record

and list each changed field, with its reason, in CHANGES.md.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("golden.json")
EXACT = ("mvp", "outer_its", "inner_its_total", "mvp_verify",
         "sha256_values", "sha256_vectors", "sha256_residuals")
VALUE_RTOL = 1e-12


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # versions whose show_config only prints
        return "unknown"


def toolchain():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas_version(np), "scipy_blas": _blas_version(scipy)}


def _entry(pairs, report):
    return {"mvp": report.mvp, "outer_its": report.outer_its,
            "inner_its_total": report.inner_its_total,
            "mvp_verify": report.config["mvp_verify"],
            "eigenvalues": pairs.values.tolist(),
            **{f"sha256_{name}": hashlib.sha256(getattr(pairs, name).tobytes()).hexdigest()
               for name in ("values", "vectors", "residuals")}}


def compute():
    """The record of this process: its toolchain, then one entry per run."""
    from lapeig import bench
    from lapeig.bench import RunConfig, run_graph
    from lapeig.generators import geometric_graph, grid_graph, random_connected_graph
    from lapeig.graphs import build_laplacian
    from lapeig.irlm import irlm_smallest
    from tests.test_properties import HEAVY_LEAF_STAR

    # run_graph returns reports only; keep each solver's pairs on the way out
    pairs_of = {}

    def keep(name, solve):
        @functools.wraps(solve)
        def run(*args, **kwargs):
            pairs_of[name], report = solve(*args, **kwargs)
            return pairs_of[name], report
        return run

    for name, solve in list(bench.SOLVERS.items()):
        bench.SOLVERS[name] = keep(name, solve)
    runs = {}
    for label, edges, k in (
            ("random_connected_graph(2000, 5000, seed=1000)",
             random_connected_graph(2000, 5000, seed=1000), 10),
            ("geometric_graph(800, 0.08, seed=1000)", geometric_graph(800, 0.08, seed=1000), 20),
            ("grid_graph(30, 40)", grid_graph(30, 40), 8)):
        reports = run_graph(edges, RunConfig(neig=k, seed=1))
        runs[f"{label}, neig {k}"] = {r.solver: _entry(pairs_of[r.solver], r) for r in reports}
    star = irlm_smallest(build_laplacian(HEAVY_LEAF_STAR), 2, seed=1)
    runs["HEAVY_LEAF_STAR, neig 2"] = {"irlm": _entry(*star)}
    return {"toolchain": toolchain(), "runs": runs}


def fresh_record():
    """compute()'s record as JSON text, from a fresh process on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "tests.test_golden"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True).stdout


@pytest.fixture(scope="module")
def fresh():
    return json.loads(fresh_record())


@pytest.fixture(scope="module")
def golden():
    return json.loads(RECORD.read_text())


def test_the_record_covers_the_same_runs(fresh, golden):
    assert {label: sorted(run) for label, run in fresh["runs"].items()} == \
        {label: sorted(run) for label, run in golden["runs"].items()}


def test_eigenvalues_match_the_record(fresh, golden):
    for label, run in golden["runs"].items():
        for solver, want in run.items():
            got = fresh["runs"][label][solver]["eigenvalues"]
            assert np.allclose(got, want["eigenvalues"], rtol=VALUE_RTOL, atol=0), \
                f"{label}, {solver}: {got} against {want['eigenvalues']}"


def test_tallies_and_digests_match_the_record(fresh, golden):
    if fresh["toolchain"] != golden["toolchain"]:
        pytest.skip(f"exact tallies and digests skipped: toolchain {fresh['toolchain']} "
                    f"is not the recorded {golden['toolchain']}")
    changed = [f"{label}, {solver}, {key}: {fresh['runs'][label][solver][key]!r} "
               f"against {want[key]!r}"
               for label, run in golden["runs"].items() for solver, want in run.items()
               for key in EXACT if fresh["runs"][label][solver][key] != want[key]]
    assert not changed, "\n".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        RECORD.write_text(fresh_record())
    else:
        sys.stdout.write(json.dumps(compute(), indent=1) + "\n")
