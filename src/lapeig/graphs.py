"""Weighted undirected graphs: file formats, Laplacian assembly, stats.

Graphs are stored as canonical edge lists (i < j, lexicographically
sorted, strictly positive weights, no self-loops, no duplicates).  The
Laplacian L = D - A keeps every diagonal entry explicitly, so its
stored nonzero count is n + 2m.
"""

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components as _scipy_components

from .sparse import CsrMatrix


class GraphFormatError(ValueError):
    """Malformed graph input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EdgeList:
    """Canonical weighted edge list on nodes 0..n_nodes-1.

    Edges are held as three aligned arrays (i, j, w) with i < j, sorted
    lexicographically.  Construction validates index ranges, rejects
    self-loops, non-finite or nonpositive weights and duplicate pairs.
    """

    __slots__ = ("n_nodes", "i", "j", "w")

    def __init__(self, n_nodes, i, j, w):
        n_nodes = int(n_nodes)
        i = np.asarray(i, dtype=np.int64).copy()
        j = np.asarray(j, dtype=np.int64).copy()
        w = np.asarray(w, dtype=np.float64).copy()
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        if not (i.shape == j.shape == w.shape) or i.ndim != 1:
            raise ValueError("i, j, w must be 1-D arrays of equal length")
        if i.size:
            if i.min() < 0 or j.min() < 0 or i.max() >= n_nodes or j.max() >= n_nodes:
                raise ValueError("node index out of range")
            if np.any(i == j):
                k = int(np.flatnonzero(i == j)[0])
                raise ValueError(f"self-loop at node {i[k]}")
            bad = ~np.isfinite(w)
            if np.any(bad):
                k = int(np.flatnonzero(bad)[0])
                raise ValueError(f"non-finite weight {w[k]} on edge ({i[k]}, {j[k]})")
            if np.any(w <= 0):
                k = int(np.flatnonzero(w <= 0)[0])
                raise ValueError(f"nonpositive weight {w[k]} on edge ({i[k]}, {j[k]})")
            swap = i > j
            i[swap], j[swap] = j[swap], i[swap]
            order = np.lexsort((j, i))
            i, j, w = i[order], j[order], w[order]
            dup = (np.diff(i) == 0) & (np.diff(j) == 0)
            if np.any(dup):
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate edge ({i[k]}, {j[k]})")
        self.n_nodes = n_nodes
        self.i, self.j, self.w = i, j, w
        for arr in (self.i, self.j, self.w):
            arr.setflags(write=False)

    @classmethod
    def from_pairs(cls, n_nodes, triples):
        """Build from an iterable of (i, j, weight) tuples."""
        triples = list(triples)
        if not triples:
            return cls(n_nodes, [], [], [])
        i, j, w = zip(*triples)
        return cls(n_nodes, i, j, w)

    @property
    def m(self):
        return int(self.i.size)

    def pairs(self):
        return list(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))


@dataclass(frozen=True)
class GraphStats:
    n: int
    nnz: int
    anzr: float
    components: int


def _merge_triples(n, raw, symmetrize, lines):
    """Canonicalize raw (i, j, w) triples collected from a file.

    raw entries may name either endpoint first.  Without symmetrize any
    repeated unordered pair is an error (reported with its line
    number); with symmetrize repeats collapse to the maximum weight, so
    a directed file yields max(w_uv, w_vu).
    """
    ii = np.array([t[0] for t in raw], dtype=np.int64)
    jj = np.array([t[1] for t in raw], dtype=np.int64)
    ww = np.array([t[2] for t in raw], dtype=np.float64)
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    order = np.lexsort((hi, lo))
    lo, hi, ww = lo[order], hi[order], ww[order]
    lines = [lines[k] for k in order]
    if lo.size > 1:
        dup = (np.diff(lo) == 0) & (np.diff(hi) == 0)
        if np.any(dup) and not symmetrize:
            k = int(np.flatnonzero(dup)[0]) + 1
            raise GraphFormatError(
                f"duplicate edge ({lo[k]}, {hi[k]}); pass symmetrize to merge", lines[k]
            )
        if np.any(dup):
            keep = np.concatenate(([True], ~dup))
            group = np.cumsum(keep) - 1
            merged = np.zeros(int(group[-1]) + 1)
            np.maximum.at(merged, group, ww)
            lo, hi, ww = lo[keep], hi[keep], merged
    return EdgeList(n, lo, hi, ww)


def _parse_edge_list(lines_iter, symmetrize):
    n = None
    raw = []
    raw_lines = []
    for lineno, line in enumerate(lines_iter, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError("expected a single node count on the first line", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphFormatError(f"bad node count {fields[0]!r}", lineno) from None
            if n < 1:
                raise GraphFormatError("node count must be positive", lineno)
            continue
        if len(fields) != 3:
            raise GraphFormatError(f"expected 'i j w', got {text!r}", lineno)
        try:
            a, b, wt = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise GraphFormatError(f"could not parse edge {text!r}", lineno) from None
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"node index out of range in {text!r}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop at node {a}", lineno)
        if not math.isfinite(wt):
            raise GraphFormatError(f"non-finite weight {wt}", lineno)
        if not wt > 0:
            raise GraphFormatError(f"nonpositive weight {wt}", lineno)
        raw.append((a, b, wt))
        raw_lines.append(lineno)
    if n is None:
        raise GraphFormatError("empty input, no node count found")
    if not raw:
        return EdgeList(n, [], [], [])
    return _merge_triples(n, raw, symmetrize, raw_lines)


def _parse_matrix_market(lines_iter, symmetrize):
    header = None
    lineno = 0
    for lineno, line in enumerate(lines_iter, start=1):
        header = line.strip()
        break
    if not header or not header.startswith("%%MatrixMarket"):
        raise GraphFormatError("missing %%MatrixMarket header", 1)
    tokens = header.lower().split()
    if len(tokens) != 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
        raise GraphFormatError(f"unsupported header {header!r}", 1)
    field, symmetry = tokens[3], tokens[4]
    if field not in ("real", "integer", "pattern"):
        raise GraphFormatError(f"unsupported field type {field!r}", 1)
    if symmetry not in ("symmetric", "general"):
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}", 1)
    want = 2 if field == "pattern" else 3
    size = None
    raw = []
    raw_lines = []
    count = 0
    for lineno, line in enumerate(lines_iter, start=lineno + 1):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        fields = text.split()
        if size is None:
            if len(fields) != 3:
                raise GraphFormatError("expected 'rows cols nnz'", lineno)
            try:
                rows, cols, nnz = (int(f) for f in fields)
            except ValueError:
                raise GraphFormatError(f"bad size line {text!r}", lineno) from None
            if rows != cols:
                raise GraphFormatError(f"matrix is {rows}x{cols}, not square", lineno)
            if rows < 1:
                raise GraphFormatError("matrix must have at least one row", lineno)
            size = (rows, nnz)
            continue
        if len(fields) != want:
            raise GraphFormatError(f"expected {want} fields, got {text!r}", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
            wt = float(fields[2]) if want == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"could not parse entry {text!r}", lineno) from None
        count += 1
        if not (1 <= a <= size[0] and 1 <= b <= size[0]):
            raise GraphFormatError(f"index out of range in {text!r}", lineno)
        if not math.isfinite(wt):
            raise GraphFormatError(f"non-finite value {wt}", lineno)
        if a == b:
            continue  # diagonal of an adjacency-style matrix carries no edge
        wt = abs(wt)
        if wt == 0.0:
            raise GraphFormatError("explicit zero off-diagonal entry", lineno)
        raw.append((a - 1, b - 1, wt))
        raw_lines.append(lineno)
    if size is None:
        raise GraphFormatError("missing size line")
    if count != size[1]:
        raise GraphFormatError(f"header promised {size[1]} entries, found {count}")
    if not raw:
        return EdgeList(size[0], [], [], [])
    return _merge_triples(size[0], raw, symmetrize, raw_lines)


def load_edge_list(source, format="edgelist", symmetrize=False):
    """Read a graph from a path or open text stream.

    format is "edgelist" (first line n, then 'i j w' lines, # comments)
    or "mtx" (Matrix Market coordinate; diagonal entries are dropped,
    off-diagonal magnitudes become weights).
    """
    if format not in ("edgelist", "mtx"):
        raise ValueError(f"unknown format {format!r}")
    parser = _parse_edge_list if format == "edgelist" else _parse_matrix_market
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return parser(fh, symmetrize)
    if isinstance(source, bytes):
        source = source.decode("utf-8")
        return parser(io.StringIO(source), symmetrize)
    return parser(source, symmetrize)


def build_laplacian(g):
    """Weighted Laplacian L = D - A as a symmetric CsrMatrix.

    Every diagonal entry is stored even when zero, so nnz = n + 2m and
    each row sums exactly to zero.  Raises ValueError when a weighted
    degree overflows to a non-finite value.
    """
    n = g.n_nodes
    deg = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(deg, g.i, g.w)
        np.add.at(deg, g.j, g.w)
    bad = np.flatnonzero(~np.isfinite(deg))
    if bad.size:
        raise ValueError(f"weighted degree of node {int(bad[0])} is not finite "
                         f"({deg[bad[0]]}); edge weights are too large")
    rows = np.concatenate([g.i, g.j, np.arange(n)])
    cols = np.concatenate([g.j, g.i, np.arange(n)])
    vals = np.concatenate([-g.w, -g.w, deg])
    return CsrMatrix.from_coo(n, rows, cols, vals, symmetric=True)


def connected_components(g):
    """(count, labels) with labels[v] the 0-based component id of v.

    Components are numbered by their smallest node, so labels[0] == 0.
    """
    n = g.n_nodes
    return _labelled_components(coo_array((g.w, (g.i, g.j)), shape=(n, n)))


def _labelled_components(adjacency):
    # scipy's undirected search starts a new component at each unlabelled
    # node in index order, which numbers components by their smallest node
    count, labels = _scipy_components(adjacency, directed=False)
    return int(count), labels.astype(np.int64)


def largest_component(g):
    """Restrict g to its largest component (ties: smallest component id).

    Returns (subgraph, node_map) where node_map[v] is the new index of
    v, or -1 for dropped nodes.
    """
    count, labels = connected_components(g)
    sizes = np.bincount(labels, minlength=count)
    keep_label = int(np.argmax(sizes))
    keep = labels == keep_label
    node_map = np.full(g.n_nodes, -1, dtype=np.int64)
    node_map[keep] = np.arange(int(keep.sum()))
    mask = keep[g.i]
    sub = EdgeList(int(keep.sum()), node_map[g.i[mask]], node_map[g.j[mask]], g.w[mask])
    return sub, node_map


def stats(g):
    """Size summary: n, Laplacian nonzeros n + 2m, average per row, components."""
    count, _ = connected_components(g)
    nnz = g.n_nodes + 2 * g.m
    return GraphStats(n=g.n_nodes, nnz=nnz, anzr=nnz / g.n_nodes, components=count)


def csr_connected_components(a):
    """Component count and labels from the off-diagonal pattern of a CsrMatrix."""
    return _labelled_components(a.csr)


def write_matrix_market(a, stream=None):
    """Serialize a symmetric CsrMatrix in coordinate format (lower triangle)."""
    own = stream is None
    out = io.StringIO() if own else stream
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = a.col_idx <= rows
    out.write("%%MatrixMarket matrix coordinate real symmetric\n")
    out.write(f"{a.n} {a.n} {int(lower.sum())}\n")
    for i, j, v in zip((rows[lower] + 1).tolist(), (a.col_idx[lower] + 1).tolist(),
                       a.values[lower].tolist()):
        out.write(f"{i} {j} {v!r}\n")
    return out.getvalue() if own else None
