"""Weighted undirected graphs: file formats, Laplacian assembly, stats.

Graphs are stored as canonical edge lists (i < j, lexicographically
sorted, strictly positive weights, no self-loops, no duplicates).  The
Laplacian L = D - A keeps every diagonal entry explicitly, so its
stored nonzero count is n + 2m.

Both readers hand the rows of a file to numpy's C text parser
(np.loadtxt), straight into int64, int64 and float64 columns, and check
every row with one vectorized mask.  That read keeps only what it parses
as the line-numbering path would and refuses the rest: a byte outside
ASCII or a separator 0x1c-0x1f (loadtxt splits on them, bytes.split()
does not), any loadtxt error or warning, a failed row check, a duplicate
without symmetrize, and in Matrix Market a % after a field.  The
line-numbering path then reads the file again: numpy counts the fields
of each line, one split and one map per column make arrays of them, and
an error names the first failing row and its line.  So every input gives
the same EdgeList, or the same message and line, whichever path reads
it; int() and float() also take a few fields loadtxt refuses (1_0).
"""

import io
import re
import warnings
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


def _table(data, comment, repl):
    """data with each comment replaced by repl, the 1-based number and
    field count of each line holding a field, then the fields, one object each."""
    data = re.sub(comment, repl, data)
    buf = np.frombuffer(data, dtype=np.uint8)
    space = buf == 32
    space |= buf - 9 < 5  # bytes.split() splits on \t\n\v\f\r and space
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))  # field starts
    heads = np.concatenate(([0], np.flatnonzero(buf[:-1] == 10) + 1))  # line starts
    counts = np.diff(np.searchsorted(starts, heads), append=starts.size)
    rows = np.flatnonzero(counts)
    del space, starts, heads  # before the fields take their memory
    return data, rows + 1, counts[rows], data.split()


def _columns(tokens, skip, counts, parsers):
    """One array per field of the rows after the first skip tokens, up to
    the first row whose field count is not len(parsers), and the mask of
    those rows whose fields parse.  A column is one map over its tokens
    until that fails; then each token is parsed alone."""
    width = len(parsers)
    cut = int(np.argmax(counts != width)) if np.any(counts != width) else counts.size
    ok, columns = np.ones(cut, dtype=bool), []
    for k, parse in enumerate(parsers):
        fields = tokens[skip + k:skip + width * cut:width]
        dtype = np.int64 if parse is int else np.float64
        try:
            columns.append(np.fromiter(map(parse, fields), dtype, cut))
        except (ValueError, OverflowError):  # an integer past int64 does not parse
            columns.append(np.zeros(cut, dtype))
            for r, field in enumerate(fields):
                try:
                    columns[-1][r] = parse(field)
                except (ValueError, OverflowError):
                    ok[r] = False
    return columns, ok


def _check_rows(rows, checks):
    """Raise for the first failing row in file order, naming its line.
    checks are (mask, message of row k) pairs in the order one row is
    checked; a mask may stop short of the last rows."""
    failed = np.zeros(rows.size, dtype=bool)
    for mask, _ in checks:
        failed[:mask.size] |= mask
    if np.any(failed):
        k = int(np.argmax(failed))
        message = next(say(k) for mask, say in checks if k < mask.size and mask[k])
        raise GraphFormatError(message, int(rows[k]))


def _merge_rows(n, i, j, w, symmetrize, rows):
    """Canonical EdgeList of parsed rows, i and j in either order.  Without
    symmetrize a repeated unordered pair is an error naming the line of its
    second row (a refusal when rows is None); with it, repeats collapse to
    the maximum weight, so a directed file yields max(w_uv, w_vu)."""
    lo, hi, w, order, dup = _canonical(i, j, w)
    if np.any(dup) and not symmetrize:
        if rows is None:
            raise _Refused
        k = int(np.argmax(dup)) + 1
        raise GraphFormatError(f"duplicate edge ({lo[k]}, {hi[k]}); pass symmetrize "
                               "to merge", int(rows[order[k]]))
    del order  # one word per row: drop it before EdgeList copies the columns
    if np.any(dup):
        keep = np.concatenate(([True], ~dup))
        lo, hi, w = lo[keep], hi[keep], np.maximum.reduceat(w, np.flatnonzero(keep))
    return EdgeList(n, lo, hi, w)


def _quote(data, line):
    """Line `line` of data, as an error message quotes it."""
    return data.split(b"\n")[line - 1].strip().decode()


def _parse_edge_list(data, symmetrize):
    data, rows, counts, tokens = _table(data, rb"#[^\n]*", b"")
    if not rows.size:
        raise GraphFormatError("empty input, no node count found")
    (n,), ok = _columns(tokens, 0, counts[:1], (int,))
    _check_rows(rows[:1], [
        (counts[:1] != 1, lambda k: "expected a single node count on the first line"),
        (~ok, lambda k: f"bad node count {tokens[0].decode()!r}"),
        (n < 1, lambda k: "node count must be positive"),
    ])
    n, rows, counts = int(n[0]), rows[1:], counts[1:]
    (a, b, w), ok = _columns(tokens, 1, counts, (int, int, float))
    del tokens  # one object per field: drop them once the columns are built
    _check_rows(rows, [
        (counts != 3, lambda k: f"expected 'i j w', got {_quote(data, rows[k])!r}"),
        (~ok, lambda k: f"could not parse edge {_quote(data, rows[k])!r}"),
        ((a < 0) | (a >= n) | (b < 0) | (b >= n),
         lambda k: f"node index out of range in {_quote(data, rows[k])!r}"),
        (a == b, lambda k: f"self-loop at node {a[k]}"),
        (~np.isfinite(w), lambda k: f"non-finite weight {float(w[k])}"),
        (~(w > 0), lambda k: f"nonpositive weight {float(w[k])}"),
    ])
    return _merge_rows(n, a, b, w, symmetrize, rows)


def _matrix_market_field(data):
    """The field type named by the %%MatrixMarket line that opens data."""
    header = data.split(b"\n", 1)[0].decode().strip()
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
    field = _matrix_market_field(data)
    # after line 1, a line whose first field starts with % is a comment
    data, rows, counts, tokens = _table(data, rb"\n[ \t\r\x0b\x0c]*%[^\n]*", b"\n")
    skip, rows, counts = counts[0], rows[1:], counts[1:]
    if not rows.size:
        raise GraphFormatError("missing size line")
    (size, cols, nnz), ok = _columns(tokens, skip, counts[:1], (int, int, int))
    _check_rows(rows[:1], [
        (counts[:1] != 3, lambda k: "expected 'rows cols nnz'"),
        (~ok, lambda k: f"bad size line {_quote(data, rows[0])!r}"),
        (size != cols, lambda k: f"matrix is {size[0]}x{cols[0]}, not square"),
        (size < 1, lambda k: "matrix must have at least one row"),
    ])
    size, nnz, rows, counts = int(size[0]), int(nnz[0]), rows[1:], counts[1:]
    parsers = (int, int) if field == "pattern" else (int, int, float)
    (a, b, *w), ok = _columns(tokens, skip + 3, counts, parsers)
    del tokens
    w = w[0] if w else np.ones(a.size)
    _check_rows(rows, [
        (counts != len(parsers),
         lambda k: f"expected {len(parsers)} fields, got {_quote(data, rows[k])!r}"),
        (~ok, lambda k: f"could not parse entry {_quote(data, rows[k])!r}"),
        ((a < 1) | (a > size) | (b < 1) | (b > size),
         lambda k: f"index out of range in {_quote(data, rows[k])!r}"),
        (~np.isfinite(w), lambda k: f"non-finite value {float(w[k])}"),
        ((a != b) & (w == 0), lambda k: "explicit zero off-diagonal entry"),
    ])
    if rows.size != nnz:
        raise GraphFormatError(f"header promised {nnz} entries, found {rows.size}")
    off = a != b  # the diagonal of an adjacency-style matrix carries no edge
    return _merge_rows(size, a[off] - 1, b[off] - 1, np.abs(w[off]), symmetrize, rows[off])


class _Refused(Exception):
    """The C-parsed read does not take this file; the line-numbering path reads it."""


# the first line at or after a position whose first field does not open a comment
_EDGE_LIST_ROW = re.compile(rb"(?m)^[ \t\r\x0b\x0c]*[^\s#].*")
_MATRIX_MARKET_ROW = re.compile(rb"(?m)^[ \t\r\x0b\x0c]*[^\s%].*")
_PERCENT = re.compile(rb"%.*")


def _sizes(line, width):
    """The width fields of line as positive ints that fit int64, or _Refused."""
    fields = line.split()
    if len(fields) != width or not all(f.isdigit() and 0 < int(f) < 2**63 for f in fields):
        raise _Refused
    return [int(f) for f in fields]


def _loadtxt(data, start, comment, names):
    """The named columns (i, j: int64; w: float64) of the rows of data
    after offset start, parsed by numpy's C tokenizer.  loadtxt splits
    fields on the separators 0x1c-0x1f and on non-ASCII spaces, where
    bytes.split() does not: the first are refused here, the second by the
    ascii codec."""
    if any(bytes([c]) in data for c in range(0x1c, 0x20)):
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
                               ndmin=1, encoding="ascii")
        except ValueError as err:
            raise _Refused from err
    if caught:
        raise _Refused
    return [table[c] for c in names]


def _read_edge_list(data, symmetrize):
    """The EdgeList of a well-formed edge list, C-parsed; _Refused otherwise."""
    head = _EDGE_LIST_ROW.search(data)
    if head is None:
        raise _Refused
    (n,) = _sizes(head.group().split(b"#", 1)[0], 1)
    a, b, w = _loadtxt(data, head.end(), "#", "ijw")
    if np.any((a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b)
              | ~np.isfinite(w) | ~(w > 0)):
        raise _Refused
    return _merge_rows(n, a, b, w, symmetrize, None)


def _read_matrix_market(data, symmetrize):
    """The EdgeList of a well-formed Matrix Market file, C-parsed; _Refused otherwise."""
    field = _matrix_market_field(data)
    line2 = data.find(b"\n") + 1  # 0 when there is no second line
    size = _MATRIX_MARKET_ROW.search(data, line2) if line2 else None
    if size is None:
        raise _Refused
    n, cols, nnz = _sizes(size.group(), 3)
    # loadtxt ends a row at any %, the line-numbering path only on a comment line
    if n != cols or any(data[data.rfind(b"\n", 0, m.start()) + 1:m.start()].strip()
                        for m in _PERCENT.finditer(data, size.end())):
        raise _Refused
    a, b, *w = _loadtxt(data, size.end(), "%", "ij" if field == "pattern" else "ijw")
    w = w[0] if w else np.ones(a.size)
    if a.size != nnz or np.any((a < 1) | (a > n) | (b < 1) | (b > n) | ~np.isfinite(w)
                               | ((a != b) & (w == 0))):
        raise _Refused
    off = a != b
    return _merge_rows(n, a[off] - 1, b[off] - 1, np.abs(w[off]), symmetrize, None)


def load_edge_list(source, format="edgelist", symmetrize=False):
    """Read a graph from a path, bytes or an open text stream.

    format is "edgelist" (first line n, then 'i j w' lines, # comments)
    or "mtx" (Matrix Market coordinate; diagonal entries are dropped,
    off-diagonal magnitudes become weights).
    """
    if format not in ("edgelist", "mtx"):
        raise ValueError(f"unknown format {format!r}")
    # text mode reads any line end as \n, as the stream of an open file does
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        if not data.isascii() or b"\r" in data:  # else decoding changes nothing
            data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().encode()
    elif isinstance(source, bytes):
        source.decode("utf-8")  # reject what is not UTF-8, as a file read would
        data = source
    else:
        data = source.read().encode()
    read, parse = ((_read_edge_list, _parse_edge_list) if format == "edgelist"
                   else (_read_matrix_market, _parse_matrix_market))
    try:
        return read(data, symmetrize)
    except _Refused:
        return parse(data, symmetrize)


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
    """Serialize a symmetric CsrMatrix in coordinate format (lower triangle)."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = a.col_idx <= rows
    entries = zip((rows[lower] + 1).tolist(), (a.col_idx[lower] + 1).tolist(),
                  a.values[lower].tolist())
    text = (f"%%MatrixMarket matrix coordinate real symmetric\n{a.n} {a.n} {int(lower.sum())}\n"
            + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries))
    if stream is None:
        return text
    stream.write(text)
