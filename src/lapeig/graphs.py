"""Weighted undirected graphs: file formats, Laplacian assembly, stats.

Graphs are stored as canonical edge lists (i < j, lexicographically
sorted, strictly positive weights, no self-loops, no duplicates).  The
Laplacian L = D - A keeps every diagonal entry explicitly, so its
stored nonzero count is n + 2m.

Set-up sorts nothing that canonical order already sorts.  The edges
(i, j) are the upper triangle of A in CSR order, which the component
search takes as is.  Listed as lower triangle (j, i), diagonal, then
upper triangle (i, j), the Laplacian's triplets bring each row's
columns in increasing order, and scipy's COO to CSR pass keeps the
input order within a row, so no row is sorted.

Each format has one reader, a loop over the lines of the file.  Past
the node-count or size line it hands the rest of the file to numpy's C
text parser (np.loadtxt), straight into int64, int64 and float64
columns, and checks every row with one vectorized mask.  Where that read
might differ from the loop it is refused, and the loop reads on: a byte
outside ASCII that no comment holds or a separator 0x1c-0x1f (loadtxt
splits on them, bytes.split() does not), any loadtxt error or warning,
a failed row check, a duplicate without symmetrize, and in Matrix Market
a % after a field.  The loop names the first failing row and its line;
its int() and float() also take a few fields loadtxt refuses (1_0).
"""

import contextlib
import io
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
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
        # _canonical makes new i and j; w is copied so the caller's stays writable
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        if not (i.shape == j.shape == w.shape) or i.ndim != 1:
            raise ValueError("i, j, w must be 1-D arrays of equal length")
        if i.size and (i.min() < 0 or j.min() < 0 or i.max() >= n_nodes
                       or j.max() >= n_nodes):
            raise ValueError("node index out of range")
        i, j, w, _, dup = _canonical(i, j, w)
        for bad, say in ((i == j, "self-loop at node {i}"),
                         (~np.isfinite(w), "non-finite weight {w} on edge ({i}, {j})"),
                         (~(w > 0), "nonpositive weight {w} on edge ({i}, {j})"),
                         (dup, "duplicate edge ({i}, {j})")):
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ValueError(say.format(i=i[k], j=j[k], w=w[k]))
        self._hold(n_nodes, i, j, w)

    @classmethod
    def _canonical_checked(cls, n_nodes, i, j, w):
        """An EdgeList of int64 i, j and float64 w that are already
        canonical and checked, held without sorting or checking again."""
        g = cls.__new__(cls)
        g._hold(n_nodes, i, j, np.ascontiguousarray(w))
        return g

    def _hold(self, n_nodes, i, j, w):
        self.n_nodes = n_nodes
        self.i, self.j, self.w = i, j, w
        for arr in (self.i, self.j, self.w):
            arr.setflags(write=False)

    @classmethod
    def from_pairs(cls, n_nodes, triples):
        """Build from an iterable of (i, j, weight) tuples."""
        triples = list(triples)
        i, j, w = zip(*triples) if triples else ((), (), ())
        return cls(n_nodes, i, j, w)

    @property
    def m(self):
        return int(self.i.size)

    def pairs(self):
        return list(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))


def _canonical(i, j, w):
    """The pairs as i < j in lexicographic order with their weights, the
    permutation applied (None when they already were in strictly
    increasing order), and the mask of pairs equal to the one before."""
    i, j = np.minimum(i, j), np.maximum(i, j)
    # comparisons of neighbours, not np.diff: one byte per pair, not eight
    tie = i[1:] == i[:-1]
    if np.all((i[1:] > i[:-1]) | (tie & (j[1:] > j[:-1]))):
        return i, j, w, None, np.zeros(tie.size, dtype=bool)
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    return i, j, w[order], order, (i[1:] == i[:-1]) & (j[1:] == j[:-1])


@dataclass(frozen=True)
class GraphStats:
    n: int
    nnz: int
    anzr: float
    components: int


def _merge_rows(n, symmetrize, i, j, w, rows=None):
    """Canonical EdgeList of parsed rows, i and j in either order.  Without
    symmetrize a repeated unordered pair is an error naming the line of its
    second row (a refusal when rows is None, as for the C read); with it,
    repeats collapse to the maximum weight, so a directed file yields
    max(w_uv, w_vu)."""
    lo, hi, w, order, dup = _canonical(i, j, w)
    if np.any(dup) and not symmetrize:
        if rows is None:
            raise _Refused
        k = int(np.argmax(dup)) + 1
        raise GraphFormatError(f"duplicate edge ({lo[k]}, {hi[k]}); pass symmetrize "
                               "to merge", int(rows[order[k]]))
    del order  # one word per row
    if np.any(dup):
        keep = np.concatenate(([True], ~dup))
        lo, hi, w = lo[keep], hi[keep], np.maximum.reduceat(w, np.flatnonzero(keep))
    # the readers have checked every row, and _canonical has ordered them
    return EdgeList._canonical_checked(n, lo, hi, w)


def _parse_edge_list(data, symmetrize):
    stream, n = io.BytesIO(data), None
    columns = array("q"), array("q"), array("d"), array("q")  # i, j, w, line
    for line, raw in enumerate(stream, 1):
        text = raw.split(b"#", 1)[0].strip()
        fields = text.split()
        if not fields:
            continue
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError("expected a single node count on the first line", line)
            try:
                n = _int64(fields[0])
            except ValueError:
                raise GraphFormatError(f"bad node count {fields[0].decode()!r}", line) from None
            if n < 1:
                raise GraphFormatError("node count must be positive", line)
            with contextlib.suppress(_Refused):
                i, j, w = _loadtxt(data, stream.tell(), "#", "ijw")
                if not np.any((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
                              | ~np.isfinite(w) | ~(w > 0)):
                    return _merge_rows(n, symmetrize, i, j, w)
            continue
        if len(fields) != 3:
            raise GraphFormatError(f"expected 'i j w', got {text.decode()!r}", line)
        try:
            a, b, x = _int64(fields[0]), _int64(fields[1]), float(fields[2])
        except ValueError:
            raise GraphFormatError(f"could not parse edge {text.decode()!r}", line) from None
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"node index out of range in {text.decode()!r}", line)
        if a == b:
            raise GraphFormatError(f"self-loop at node {a}", line)
        if not math.isfinite(x):
            raise GraphFormatError(f"non-finite weight {x}", line)
        if not x > 0:
            raise GraphFormatError(f"nonpositive weight {x}", line)
        for column, value in zip(columns, (a, b, x, line)):
            column.append(value)
    if n is None:
        raise GraphFormatError("empty input, no node count found")
    return _merge_rows(n, symmetrize, *map(np.asarray, columns))


def _matrix_market_field(stream):
    """The field type named by the %%MatrixMarket line that opens stream."""
    header = stream.readline().decode().strip()
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError("missing %%MatrixMarket header", 1)
    tokens = header.lower().split()
    if len(tokens) != 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
        raise GraphFormatError(f"unsupported header {header!r}", 1)
    field, symmetry = tokens[3], tokens[4]
    if field not in ("real", "integer", "pattern"):
        raise GraphFormatError(f"unsupported field type {field!r}", 1)
    if symmetry not in ("symmetric", "general"):
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}", 1)
    return field


def _parse_matrix_market(data, symmetrize):
    stream = io.BytesIO(data)
    names = "ij" if _matrix_market_field(stream) == "pattern" else "ijw"
    size, entries = None, 0
    columns = array("q"), array("q"), array("d"), array("q")  # i, j, w, line
    for line, raw in enumerate(stream, 2):
        text = raw.strip()
        if not text or text.startswith(b"%"):  # after line 1, % opens a comment line
            continue
        fields = text.split()
        if size is None:
            if len(fields) != 3:
                raise GraphFormatError("expected 'rows cols nnz'", line)
            try:
                size, cols, nnz = map(_int64, fields)
            except ValueError:
                raise GraphFormatError(f"bad size line {text.decode()!r}", line) from None
            if size != cols:
                raise GraphFormatError(f"matrix is {size}x{cols}, not square", line)
            if size < 1:
                raise GraphFormatError("matrix must have at least one row", line)
            with contextlib.suppress(_Refused):
                # loadtxt ends a row at any %, the line loop only on a comment line
                if any(data[data.rfind(b"\n", 0, m.start()) + 1:m.start()].strip()
                       for m in _PERCENT.finditer(data, stream.tell())):
                    raise _Refused
                i, j, *w = _loadtxt(data, stream.tell(), "%", names)
                w = w[0] if w else np.ones(i.size)
                if i.size == nnz and not np.any((i < 1) | (i > size) | (j < 1) | (j > size)
                                                | ~np.isfinite(w) | ((i != j) & (w == 0))):
                    off = i != j  # the diagonal of an adjacency-style matrix carries no edge
                    return _merge_rows(size, symmetrize, i[off] - 1, j[off] - 1, np.abs(w[off]))
            continue
        if len(fields) != len(names):
            raise GraphFormatError(f"expected {len(names)} fields, got {text.decode()!r}",
                                   line)
        try:
            a, b = _int64(fields[0]), _int64(fields[1])
            x = float(fields[2]) if len(names) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"could not parse entry {text.decode()!r}", line) from None
        if not (1 <= a <= size and 1 <= b <= size):
            raise GraphFormatError(f"index out of range in {text.decode()!r}", line)
        if not math.isfinite(x):
            raise GraphFormatError(f"non-finite value {x}", line)
        if a != b and x == 0:
            raise GraphFormatError("explicit zero off-diagonal entry", line)
        entries += 1
        if a != b:
            for column, value in zip(columns, (a - 1, b - 1, abs(x), line)):
                column.append(value)
    if size is None:
        raise GraphFormatError("missing size line")
    if entries != nnz:
        raise GraphFormatError(f"header promised {nnz} entries, found {entries}")
    return _merge_rows(size, symmetrize, *map(np.asarray, columns))


class _Refused(Exception):
    """numpy's C parser does not read these rows as the line loop would."""


_PERCENT = re.compile(rb"%.*")


def _int64(field):
    """int(field), failing as a parse where numpy's int64 would not hold it."""
    value = int(field)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} does not fit int64")
    return value


def _ascii_outside_comments(data, start, comment):
    """Whether every byte of data past offset start is ASCII, except in
    comments, which run from the comment character to the end of the line."""
    if data.isascii():
        return True
    codes, at = np.frombuffer(data, dtype=np.uint8), start
    while (opens := data.find(comment.encode(), at)) >= 0:
        if codes[at:opens].max(initial=0) >= 0x80:
            return False
        at = data.find(b"\n", opens)
        if at < 0:
            return True
    return codes[at:].max(initial=0) < 0x80


def _loadtxt(data, start, comment, names):
    """The named columns (i, j: int64; w: float64) of the rows of data
    after offset start, parsed by numpy's C tokenizer.  loadtxt splits
    fields on the separators 0x1c-0x1f and on non-ASCII spaces, where
    bytes.split() does not, so both are refused: the separators anywhere,
    a non-ASCII byte unless a comment holds it."""
    if any(data.find(bytes([c]), start) >= 0 for c in range(0x1c, 0x20)):
        raise _Refused
    if not _ascii_outside_comments(data, start, comment):
        raise _Refused
    stream = io.BytesIO(data)
    stream.seek(start)
    dtype = [(c, np.float64 if c == "w" else np.int64) for c in names]
    # loadtxt only warns, of a file with no rows and, in older numpy, of an
    # int read as a float; recording rather than raising keeps a warning in
    # another thread from turning into an exception
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = np.loadtxt(stream, dtype=dtype, comments=comment, quotechar=None,
                               ndmin=1, encoding="utf-8")
        except ValueError as err:
            raise _Refused from err
    if caught:
        raise _Refused
    return [table[c] for c in names]


def load_edge_list(source, format="edgelist", symmetrize=False):
    """Read a graph from a path, bytes or an open text stream.

    format is "edgelist" (first line n, then 'i j w' lines, # comments)
    or "mtx" (Matrix Market coordinate; diagonal entries are dropped,
    off-diagonal magnitudes become weights).  In every source \r\n and
    a lone \r end a line, as in a file opened in text mode.
    """
    if format not in ("edgelist", "mtx"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read().encode()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")  # one pass over the whole file, so the offset names the line
    except UnicodeDecodeError as err:
        raise GraphFormatError(f"byte {data[err.start]:#04x} is not UTF-8 ({err.reason})",
                               data.count(b"\n", 0, err.start) + 1) from None
    parse = _parse_edge_list if format == "edgelist" else _parse_matrix_market
    return parse(data, symmetrize)


def build_laplacian(g):
    """Weighted Laplacian L = D - A as a symmetric CsrMatrix.

    Every diagonal entry is stored even when zero, so nnz = n + 2m and
    each row sums exactly to zero.  Raises ValueError when a weighted
    degree overflows to a non-finite value.  g's canonical order leaves
    every row's columns in increasing order (see the module docstring).
    """
    n = g.n_nodes
    with np.errstate(over="ignore", invalid="ignore"):
        # bincount adds in input order: a degree sums the node's edges as
        # i, then as j, each in edge order
        deg = np.bincount(np.concatenate([g.i, g.j]), weights=np.concatenate([g.w, g.w]),
                          minlength=n)
    bad = np.flatnonzero(~np.isfinite(deg))
    if bad.size:
        raise ValueError(f"weighted degree of node {int(bad[0])} is not finite "
                         f"({deg[bad[0]]}); edge weights are too large")
    diag = np.arange(n)
    rows = np.concatenate([g.j, diag, g.i])
    cols = np.concatenate([g.i, diag, g.j])
    vals = np.concatenate([-g.w, deg, -g.w])
    return CsrMatrix.from_coo(n, rows, cols, vals, symmetric=True)


def connected_components(g):
    """(count, labels) with labels[v] the 0-based component id of v.

    Components are numbered by their smallest node, so labels[0] == 0.
    """
    n = g.n_nodes
    ptr = np.zeros(n + 1, dtype=np.int64)  # the upper triangle as CSR, in edge order
    np.cumsum(np.bincount(g.i, minlength=n), out=ptr[1:])
    return _labelled_components(csr_array((g.w, g.j, ptr), shape=(n, n)))


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
    labels = connected_components(g)[1]
    keep = labels == np.argmax(np.bincount(labels))
    node_map = np.where(keep, np.cumsum(keep) - 1, -1)
    mask = keep[g.i]
    sub = EdgeList(int(keep.sum()), node_map[g.i[mask]], node_map[g.j[mask]], g.w[mask])
    return sub, node_map


def drop_isolated(g):
    """g restricted to the nodes on an edge, renumbered in order, in O(m); one node if m is 0."""
    nodes, ends = np.unique(np.concatenate([g.i, g.j]), return_inverse=True)
    return EdgeList(max(nodes.size, 1), ends[: g.m], ends[g.m :], g.w)


def stats(g):
    """Size summary: n, Laplacian nonzeros n + 2m, average per row, components, in O(m)."""
    sub = drop_isolated(g)
    count = g.n_nodes - sub.n_nodes + connected_components(sub)[0]
    nnz = g.n_nodes + 2 * g.m
    return GraphStats(n=g.n_nodes, nnz=nnz, anzr=nnz / g.n_nodes, components=count)


def csr_connected_components(a):
    """Component count and labels from the off-diagonal pattern of a CsrMatrix."""
    return _labelled_components(a.csr)


def write_matrix_market(a, stream=None):
    """Serialize a CsrMatrix flagged symmetric in coordinate format (lower triangle)."""
    if not a.symmetric:
        raise ValueError("write_matrix_market writes only a matrix flagged symmetric")
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = a.col_idx <= rows
    entries = zip((rows[lower] + 1).tolist(), (a.col_idx[lower] + 1).tolist(),
                  a.values[lower].tolist())
    text = (f"%%MatrixMarket matrix coordinate real symmetric\n{a.n} {a.n} {int(lower.sum())}\n"
            + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries))
    if stream is None:
        return text
    stream.write(text)
