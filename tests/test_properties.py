"""Randomized property tests: every solver against the dense oracle.

Graphs are small and weighted: complete, star and cycle graphs (whose
eigenvalues repeat when all weights are equal) and random connected
graphs, with weights spanning up to six orders of magnitude on top of
an overall scale of 1e-6 to 1e6.  The tier-1 profile is derandomized
with a small example budget, so every run draws the same cases; the
wide profile widens the search.  Explicit examples pin three solver
defects that these tests found, one per solver, as expected failures;
each fails loudly once its defect is mended.  IRLM's other examples are
cases its earlier hand-written Lanczos failed, and DACG's weighted K7 is
a case it failed before each step projected its iterate off the kernel.
"""

import os

import numpy as np
from hypothesis import HealthCheck, example, given, note, settings
from hypothesis import strategies as st

from lapeig.bench import SOLVERS
from lapeig.dacg import dacg_smallest
from lapeig.generators import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
)
from lapeig.graphs import EdgeList, build_laplacian
from lapeig.irlm import irlm_smallest
from lapeig.jd import jd_smallest
from lapeig.results import SolverError, rayleigh_residuals

DELTA = 1e-6

# tier-1 draws the same twelve cases per property on every run; with
# LAPEIG_PROPERTY_PROFILE=wide it draws 500 fresh ones and prints the
# blob that replays each failure
settings.register_profile("tier1", derandomize=True, max_examples=12, deadline=None,
                          database=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("wide", settings.get_profile("tier1"), derandomize=False,
                          max_examples=500, print_blob=True)
PROFILE = settings.get_profile(os.environ.get("LAPEIG_PROPERTY_PROFILE", "tier1"))


# a cycle with one heavy edge (condition number 1e6) whose Lanczos basis
# spans the whole complement after three steps
HEAVY_CYCLE = EdgeList(4, [0, 0, 1, 2], [1, 3, 2, 3], [1.0, 1.0, 1.0, 1e6])
# a six-cycle with weights from 1e5 to 1e11, and an 11-node star with
# leaf weights from 1e-4 to 100: more cases whose Lanczos basis spans the
# whole complement
HEAVY_SIX_CYCLE = EdgeList(6, [0, 0, 1, 2, 3, 4], [1, 5, 2, 3, 4, 5],
                           [1e5, 1e11, 1e11, 1e8, 1e6, 1e5])
GRADED_STAR = EdgeList(11, [0] * 10, list(range(1, 11)),
                       [10.0, 1.0, 1e-3, 1e-4, 1e-2, 100.0, 1e-2, 1e-3, 1.0, 1e-2])
# a star with four unit leaves and two heavy ones: eigenvalue 1 four times,
# condition number 2e4
HEAVY_LEAF_STAR = EdgeList(8, [0] * 7, [1, 2, 3, 4, 5, 6, 7],
                           [1.0, 1e4, 1.0, 1.0, 1.0, 1.0, 1e3])
# a star with leaf weights 1 x3, 10 x2, 100 x3 and 1000 x2: eigenvalue 1
# twice.  On both stars ARPACK returns a Ritz vector of 1 above delta, and
# one inverse-iteration step brings it below
THREE_DECADE_STAR = EdgeList(11, [0] * 10, list(range(1, 11)),
                             [1.0, 1.0, 1.0, 10.0, 10.0, 100.0, 100.0, 100.0, 1e3, 1e3])
# a star with two weight classes: eigenvalue 1 twice, then 1.653
TWO_CLASS_STAR = EdgeList(7, [0] * 6, [1, 2, 3, 4, 5, 6], [1.0, 1.0, 1.0, 10.0, 10.0, 10.0])
# a six-cycle with weights from 1 to 1e5 (condition number 8.7e4)
GRADED_CYCLE = EdgeList(6, [0, 0, 1, 2, 3, 4], [1, 5, 2, 3, 4, 5],
                        [1e5, 10.0, 10.0, 10.0, 1.0, 1.0])
# the complete graph on 7 nodes with weights from 1e-6 to 1e-3, in
# complete_graph(7)'s edge order, on which DACG's iterate drifts into the
# kernel unless each step projects it off
WEIGHTED_K7 = EdgeList(7, complete_graph(7).i, complete_graph(7).j,
                       [1e-4, 1e-6, 1e-4, 1e-3, 1e-5, 1e-6, 1e-6, 1e-3, 1e-4, 1e-3, 1e-5,
                        1e-3, 1e-3, 1e-3, 1e-6, 1e-4, 1e-4, 1e-6, 1e-5, 1e-6, 1e-5])


@st.composite
def weighted_graphs(draw):
    kind = draw(st.sampled_from(["complete", "star", "cycle", "random"]))
    n = draw(st.integers(4, 12))
    if kind == "complete":
        g = complete_graph(n)
    elif kind == "star":
        g = star_graph(n - 1)
    elif kind == "cycle":
        g = cycle_graph(n)
    else:
        g = random_connected_graph(n, extra_edges=draw(st.integers(0, n)),
                                   seed=draw(st.integers(0, 2**16)), weighted=False)
    scale = draw(st.integers(-6, 6))
    spread = draw(st.sampled_from([0, 3, 6]))
    exponents = draw(st.lists(st.integers(0, spread), min_size=g.m, max_size=g.m))
    w = 10.0 ** (scale + np.array(exponents, dtype=np.float64))
    neig = draw(st.integers(1, min(n - 1, 6)))
    return EdgeList(n, g.i, g.j, w), neig


def _laplacian(case):
    edges, neig = case
    note(f"n={edges.n_nodes} neig={neig} edges={edges.pairs()}")
    return build_laplacian(edges), neig


def _check_against_oracle(a, pairs, neig):
    vals, vecs = pairs.values, pairs.vectors
    want = np.linalg.eigvalsh(a.toarray())[1 : neig + 1]
    assert vals.shape == (neig,)
    # sorted Ritz values lie within ||R||_2 <= sqrt(k) max ||r_i|| of the
    # wanted eigenvalues; the oracle adds its own roundoff
    tol = np.sqrt(neig) * DELTA * want[-1] + 1e-12 * np.abs(a.toarray()).max()
    assert np.abs(vals - want).max() <= tol
    _, resid = rayleigh_residuals(a, vecs)
    assert resid.max() <= DELTA
    assert pairs.gram_defect() <= 1e-8
    assert pairs.kernel_overlap() <= 1e-8


@PROFILE
@given(case=weighted_graphs(), seed=st.integers(0, 2**16))
@example(case=(WEIGHTED_K7, 4), seed=0)
@example(case=(GRADED_CYCLE, 2), seed=1908).xfail(
    raises=SolverError,
    reason="the second pair stalls at residual 1.5e-6 against the first, "
           "locked at delta, and hits the 20000-iteration cap")
def test_dacg_matches_dense_oracle(case, seed):
    a, neig = _laplacian(case)
    pairs, _ = dacg_smallest(a, neig, delta=DELTA, seed=seed)
    _check_against_oracle(a, pairs, neig)


@PROFILE
@given(case=weighted_graphs(), seed=st.integers(0, 2**16))
@example(case=(TWO_CLASS_STAR, 2), seed=0).xfail(
    raises=AssertionError,
    reason="after the first lock the carried search space is invariant and "
           "holds the exact 1.653 eigenvector, which is accepted before the "
           "random expansion reveals the second copy of 1")
def test_jd_matches_dense_oracle(case, seed):
    a, neig = _laplacian(case)
    pairs, _ = jd_smallest(a, neig, delta=DELTA, seed=seed)
    _check_against_oracle(a, pairs, neig)


@PROFILE
@given(case=weighted_graphs(), seed=st.integers(0, 2**16))
@example(case=(HEAVY_CYCLE, 1), seed=0)
@example(case=(HEAVY_SIX_CYCLE, 2), seed=56986)
@example(case=(GRADED_STAR, 1), seed=41336)
@example(case=(HEAVY_LEAF_STAR, 2), seed=1)
@example(case=(THREE_DECADE_STAR, 1), seed=3)
def test_irlm_matches_dense_oracle(case, seed):
    a, neig = _laplacian(case)
    pairs, _ = irlm_smallest(a, neig, delta=DELTA, seed=seed)
    _check_against_oracle(a, pairs, neig)


@PROFILE
@given(case=weighted_graphs(), seed=st.integers(0, 2**16),
       solver=st.sampled_from(sorted(SOLVERS)))
def test_fixed_seed_is_bitwise_deterministic(case, seed, solver):
    a, neig = _laplacian(case)
    first, rep1 = SOLVERS[solver](a, neig, delta=DELTA, seed=seed)
    second, rep2 = SOLVERS[solver](a, neig, delta=DELTA, seed=seed)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    assert rep1.mvp == rep2.mvp
