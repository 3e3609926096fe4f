"""Workload definitions shared by the benchmark's processes.

A workload is a graph family from ``lapeig.generators``, the file format
the graph is read from, and the eigenproblem solved on it.  One run of a
workload processes a batch of ``graphs`` graphs whose generator seeds are
derived from the run's ``--seed``; each graph's seed also seeds the
solvers' random starts, as ``lapeig-bench --seed`` does.

MVP counts depend strongly on the graph and on the start vector: on
rand20k-k10 one graph per seed gave JD 409-771 and DACG 439-1,185 MVPs
over 115 graphs (DACG's coefficient of variation is 0.23).  A run
therefore takes the median over a batch of graphs: five on rand20k-k10,
three on geo3k-k40.  Resampling those 115 graphs put the ten-seed
quartile spread of a median of five DACG counts at about 0.15, and of
JD's at 0.09.  geo3k-k40's counts move less between graphs, but one
graph in eight or so can still be slow for one solver, and a median of
three ignores it.

IRLM is the exception that needs a setting: with too small a basis its
count jumps by a whole restart cycle on some graphs and not on others.
Each workload sets ``ncv`` so that nearly every graph converges in the
same number of cycles.
"""

from dataclasses import dataclass, field

SOLVERS = ("dacg", "jd", "irlm")  # the order lapeig-bench runs them in


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    params: dict = field(hash=False)
    format: str
    neig: int
    delta: float
    graphs: int
    oracle: str
    ncv: int | None = None  # IRLM basis size, lapeig-bench --ncv

    def graph_seeds(self, seed):
        return [1000 * seed + k for k in range(self.graphs)]


WORKLOADS = {
    w.name: w
    for w in (
        # Solver hot path on a small-world pattern: per-MVP layers (spmv,
        # IC(0) apply, projections) dominate and set-up is under 1 s.
        # IRLM's default basis of 40 converges after one, two or three
        # cycles depending on the graph (703 to 1,422 MVPs over 15
        # graphs).  With 60, 47 graphs of 50 took exactly one thick
        # restart (1,110-1,283 MVPs) and three none (669-670), so the
        # median over a batch barely moves.  A larger basis is worse:
        # with 75, five graphs in 22 still needed a restart (about 1,500
        # MVPs against 770-835), as one in nine still did with 90.
        Workload(
            name="rand20k-k10",
            generator="random_connected_graph",
            params={"n": 20000, "extra_edges": 50000},
            format="edgelist",
            neig=10,
            delta=1e-6,
            graphs=5,
            oracle="lobpcg",
            ncv=60,
        ),
        # Clustered, poorly separated spectrum: many MVPs per pair on a
        # small matrix, so projections against up to 41 columns, the
        # dense kernels and solver self time weigh most.  Read as Matrix
        # Market, which keeps that parser measured.  IRLM's default basis
        # of 100 converges without a restart on most graphs (7,200-8,000
        # MVPs) but needs one on about one in eight (11,600-11,800); a
        # basis of 120 converged without one on all 17 graphs tried,
        # those two included (8,580-9,480 MVPs).
        Workload(
            name="geo3k-k40",
            generator="geometric_graph",
            params={"n": 3000, "radius": 0.04},
            format="mtx",
            neig=40,
            delta=1e-6,
            graphs=3,
            oracle="dense",
            ncv=120,
        ),
    )
}
