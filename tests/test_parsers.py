"""The graph readers against the line-by-line readers of the grammar.

reference_parse_edge_list and reference_parse_matrix_market are loop
parsers on text, kept here as oracles the way reference_ic0 is kept for
IC(0).  Each reader in lapeig.graphs is a loop on bytes that hands the
rows to numpy's C parser when it can.  A derandomized property test
writes valid files with comments, blank lines, tabs, CRLF line ends,
every Matrix Market field and symmetry, diagonal entries and repeated
pairs, then applies one or two one-line mutations.  Both readers must
return bitwise-equal arrays, or raise GraphFormatError with the same
message and line.  TestCParsedRead checks which files the C parser reads
and that the files it refuses read as the loop does.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lapeig.graphs
from lapeig.graphs import EdgeList, GraphFormatError, load_edge_list

PROFILE = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _reference_merge(n, raw, symmetrize, lines):
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


def reference_parse_edge_list(lines_iter, symmetrize=False):
    """Line-by-line edge-list reader: the grammar and errors to match."""
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
    return _reference_merge(n, raw, symmetrize, raw_lines)


def reference_parse_matrix_market(lines_iter, symmetrize=False):
    """Line-by-line Matrix Market reader: the grammar and errors to match."""
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
    return _reference_merge(size[0], raw, symmetrize, raw_lines)


def outcome(read):
    """What a reader makes of a file: its arrays bit for bit, or its error."""
    try:
        g = read()
    except GraphFormatError as err:
        return ("error", str(err), err.line)
    return ("graph", g.n_nodes, g.i.tobytes(), g.j.tobytes(), g.w.tobytes())


WEIGHTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=1, max_value=1000).map(float),
)
FORMATS = (repr, lambda x: "%.17g" % x)
MUTATIONS = ("fields", "token", "range", "self-loop", "non-finite", "nonpositive",
             "zero", "duplicate", "count")


@st.composite
def layouts(draw):
    """Field separator, line end, and where comments and blank lines go."""
    return {
        "sep": draw(st.sampled_from([" ", "\t", "  ", " \t "])),
        "eol": draw(st.sampled_from(["\n", "\r\n"])),
        "number": draw(st.sampled_from(FORMATS)),
        "noise": draw(st.lists(st.sampled_from(["", "comment", "blank"]), min_size=40,
                               max_size=40)),
    }


def assemble(head, rows, layout, comment, trailing):
    """Text of a file: head lines, then rows with comment and blank lines
    between them and, for edge lists, comments after some rows."""
    lines = list(head)
    for k, row in enumerate(rows):
        noise = layout["noise"][k % len(layout["noise"])]
        if noise == "comment":
            lines.append(f"{comment} note {k}")
        elif noise == "blank":
            lines.append(" " if k % 2 else "")
        lines.append(row + (f"  {comment} tail" if trailing and noise == "comment" else ""))
    return layout["eol"].join(lines) + layout["eol"]


def mutate(rows, kind, k, n, base, weighted, draw):
    """Apply one mutation of the given kind to row k of rows (a list of
    field lists); base is the smallest valid index.  A field the row no
    longer has, after an earlier mutation, is left alone."""
    fields = rows[k]

    def put(column, value):
        if column < len(fields):
            fields[column] = value

    if kind == "fields":
        rows[k] = fields[:-1] if draw(st.booleans()) else fields + ["7"]
    elif kind == "token":
        put(draw(st.integers(0, 2)), draw(st.sampled_from(["x", "1.5", "0x1", "1e", "--1",
                                                           "\u00e9"])))
    elif kind == "range":
        put(draw(st.integers(0, 1)), str(draw(st.sampled_from(
            [base - 1, n + base, base - 1, n + base, 2**63 - 1, -(2**63)]))))
    elif kind == "self-loop":
        put(1, fields[0])
    elif kind in ("non-finite", "nonpositive", "zero") and weighted:
        put(2, draw(st.sampled_from({
            "non-finite": ["inf", "-inf", "nan", "Infinity"],
            "nonpositive": ["-2.5", "-1e-300", "-0.0"],
            "zero": ["0", "0.0", "-0"],
        }[kind])))
    elif kind == "duplicate":
        rows.insert(draw(st.integers(k + 1, len(rows))), list(fields))


@st.composite
def mutations(draw, n_rows):
    """One or two (kind, row) mutations; the second often hits the same
    row, so that the order of the checks within a row is exercised."""
    kinds = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2))
    k = draw(st.integers(0, n_rows - 1))
    return [(kind, k if draw(st.booleans()) else draw(st.integers(0, n_rows - 1)))
            for kind in kinds]


@st.composite
def edge_list_cases(draw, mutated):
    n = draw(st.integers(2, 9))
    symmetrize = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n)), min_size=int(mutated), max_size=14))
    if not symmetrize:
        pairs = list({frozenset(p): p for p in pairs}.values())
    layout = draw(layouts())
    rows = [[str(a), str(b), layout["number"](draw(WEIGHTS))] for a, b in pairs]
    count = str(n)
    for kind, k in draw(mutations(len(rows))) if mutated else ():
        if kind == "count":
            count = draw(st.sampled_from(["0", "-3", "x", f"{n} 1", str(2**62)]))
        else:
            mutate(rows, kind, k, n, 0, True, draw)
    head = ["# a graph", "", count + draw(st.sampled_from(["", "  # nodes"]))]
    body = [layout["sep"].join(r) for r in rows]
    return assemble(head, body, layout, "#", trailing=True), symmetrize


@st.composite
def matrix_market_cases(draw, mutated):
    n = draw(st.integers(1, 8))
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    symmetrize = draw(st.booleans())
    # about half the entries on the diagonal, which carries no edge but is checked
    entries = draw(st.lists(st.one_of(st.tuples(st.integers(1, n), st.integers(1, n)),
                                      st.integers(1, n).map(lambda d: (d, d))),
                            min_size=int(mutated), max_size=14))
    if not symmetrize:
        # off-diagonal pairs once each; the diagonal carries no edge
        entries = list({frozenset(e) if e[0] != e[1] else e: e for e in entries}.values())
    layout = draw(layouts())
    rows = []
    for a, b in entries:
        row = [str(a), str(b)]
        if field == "real":
            row.append(layout["number"](draw(WEIGHTS) * draw(st.sampled_from([1, -1]))))
        elif field == "integer":
            row.append(str(draw(st.integers(1, 99)) * draw(st.sampled_from([1, -1]))))
        rows.append(row)
    nnz = len(rows)
    for kind, k in draw(mutations(len(rows))) if mutated else ():
        if kind == "count":
            nnz += draw(st.sampled_from([-1, 1]))
        else:
            before = len(rows)
            mutate(rows, kind, k, n, 1, field != "pattern", draw)
            nnz += len(rows) - before
    head = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% generated",
            f"{n} {n} {nnz}"]
    body = [layout["sep"].join(r) for r in rows]
    return assemble(head, body, layout, "%", trailing=False), symmetrize


def read_both(text, format, symmetrize):
    reference = {"edgelist": reference_parse_edge_list,
                 "mtx": reference_parse_matrix_market}[format]
    want = outcome(lambda: reference(io.StringIO(text), symmetrize))
    got = outcome(lambda: load_edge_list(text.encode(), format=format, symmetrize=symmetrize))
    return got, want


class TestReadersMatchTheLoops:
    @settings(PROFILE, max_examples=100)
    @given(case=edge_list_cases(mutated=False))
    def test_valid_edge_lists_give_the_same_arrays(self, case):
        got, want = read_both(case[0], "edgelist", case[1])
        assert got[0] == "graph" and got == want

    @settings(PROFILE, max_examples=100)
    @given(case=matrix_market_cases(mutated=False))
    def test_valid_matrix_market_gives_the_same_arrays(self, case):
        got, want = read_both(case[0], "mtx", case[1])
        assert got[0] == "graph" and got == want

    @PROFILE
    @given(case=edge_list_cases(mutated=True))
    def test_mutated_edge_lists_fail_alike(self, case):
        got, want = read_both(case[0], "edgelist", case[1])
        assert got == want

    @PROFILE
    @given(case=matrix_market_cases(mutated=True))
    def test_mutated_matrix_market_fails_alike(self, case):
        got, want = read_both(case[0], "mtx", case[1])
        assert got == want


@contextlib.contextmanager
def no_line_path():
    """Fail the test if the line loop, not numpy's C parser, reads the rows."""
    merge = lapeig.graphs._merge_rows

    def spy(n, symmetrize, i, j, w, rows=None):
        assert rows is None, "rows read by the line loop"
        return merge(n, symmetrize, i, j, w, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lapeig.graphs, "_merge_rows", spy)
        yield


def data_rows(text, comment):
    """Lines holding a field before any comment, less the count or size line."""
    return sum(bool(line.split(comment, 1)[0].split()) for line in text.splitlines()) - 1


MM_HEAD = "%%MatrixMarket matrix coordinate {} general\n"
WELL_FORMED = [
    ("edgelist", "# a graph\r\n\r\n3  # nodes\r\n0\t1\t1.5\r\n# note\r\n \r\n"
                 "2 1 2.5e-3  # tail\r\n", [(0, 1, 1.5), (1, 2, 2.5e-3)]),
    ("edgelist", "4\n 3\t 0 \t0.25\n\n1 2 7 # integer weight\n", [(0, 3, 0.25), (1, 2, 7.0)]),
    ("mtx", MM_HEAD.format("real") + "% made by hand\n3 3 4\n1\t1 2.0\r\n"
            "% between entries\n  % indented\n\n2 1 -1.5\n3\t2\t-0.5\n3 3 1e0\n",
     [(0, 1, 1.5), (1, 2, 0.5)]),
    ("mtx", MM_HEAD.format("integer") + "3 3 2\r\n2 1 -4\r\n3 1 9\r\n",
     [(0, 1, 4.0), (0, 2, 9.0)]),
    ("mtx", MM_HEAD.format("pattern") + "\n3 3 2\n2\t1\n% last\n3 2\n",
     [(0, 1, 1.0), (1, 2, 1.0)]),
    # a lone carriage return ends a line in every source, bytes and streams too
    ("edgelist", "3\r0 1 1.0\r1 2 2.0\r", [(0, 1, 1.0), (1, 2, 2.0)]),
    ("edgelist", "3\n0 1 1.0\r1 2 2.0\n", [(0, 1, 1.0), (1, 2, 2.0)]),
    ("mtx", MM_HEAD.format("real").replace("\n", "\r") + "% c\r3 3 2\r2 1 1.5\r3 2 1.0\r",
     [(0, 1, 1.5), (1, 2, 1.0)]),
    # a byte outside ASCII is read by the C parser inside a comment
    ("edgelist", "# na\u00efve\n3\n0 1 1.5\n", [(0, 1, 1.5)]),
    ("mtx", MM_HEAD.format("real") + "% caf\u00e9\n3 3 1\n2 1 1.5\n", [(0, 1, 1.5)]),
    ("edgelist", "3\n0 1 1.0 # na\u00efve\n1 2 2.0\n", [(0, 1, 1.0), (1, 2, 2.0)]),
    ("edgelist", "3\n0 1 1.0\n1 2 2.0\n# na\u00efve", [(0, 1, 1.0), (1, 2, 2.0)]),
    ("mtx", MM_HEAD.format("real") + "3 3 2\n2 1 1.5\n% \u00e9t\u00e9 \u2028\n3 2 1.0\n",
     [(0, 1, 1.5), (1, 2, 1.0)]),
    # and so is a separator 0x1c-0x1f, which loadtxt splits on
    ("edgelist", "3\n0 1 1.5 # a\x1cb\n1 2 2.0\n", [(0, 1, 1.5), (1, 2, 2.0)]),
    ("mtx", MM_HEAD.format("real") + "3 3 2\n2 1 1.5\n% a\x1fb\n3 2 1.0\n",
     [(0, 1, 1.5), (1, 2, 1.0)]),
]

# inputs on which np.loadtxt and the line loop disagree: each gives what
# the line loop gives, arrays or message and line
DISAGREEING = [
    ("edgelist", "3\n0 1 1.0\n1.0 2 1.0\n", ("could not parse edge '1.0 2 1.0'", 3)),
    ("mtx", MM_HEAD.format("real") + "3 3 1\n2.0 1 1.0\n",
     ("could not parse entry '2.0 1 1.0'", 3)),
    ("edgelist", "3\n0 1 1_0\n", [(0, 1, 10.0)]),
    ("edgelist", "12\n1_0 2 1.0\n", [(2, 10, 1.0)]),
    ("mtx", MM_HEAD.format("real") + "12 12 1\n1_1 2 1_5\n", [(1, 10, 15.0)]),
    ("edgelist", f"3\n0 1 1.0\n1 {2**63} 1.0\n", (f"could not parse edge '1 {2**63} 1.0'", 3)),
    ("mtx", MM_HEAD.format("real") + "3 3 2\n2 1 1.0\n3 2 2.0 % note\n",
     ("expected 3 fields, got '3 2 2.0 % note'", 4)),
    ("mtx", MM_HEAD.format("real") + "3 3 1\n2 1 1.0%\n", ("could not parse entry '2 1 1.0%'", 3)),
    ("edgelist", "5\n", []),
    ("edgelist", "# only\n\n  7 # nodes\n# none\n", []),
    ("mtx", MM_HEAD.format("real") + "% c\n4 4 0\n", []),
    # int() and float() on bytes refuse a full-width digit as loadtxt does
    ("edgelist", "3\n0 1 \uff12.5\n", ("could not parse edge '0 1 \uff12.5'", 2)),
    # loadtxt splits on these, bytes.split() does not
    ("edgelist", "3\n0 1 1.0\u00a0\n", ("could not parse edge '0 1 1.0\\xa0'", 2)),
    ("edgelist", "3\n0\x1c1 1.0\n", ("expected 'i j w', got '0\\x1c1 1.0'", 2)),
    # outside a comment a byte outside ASCII is refused, wherever a comment follows
    ("edgelist", "3\n0 1 1.0\u00e9\n# na\u00efve\n",
     ("could not parse edge '0 1 1.0\u00e9'", 2)),
    ("edgelist", "3\n0 1 1.0\n1 2 2.0 \u00e9 # x\n",
     ("expected 'i j w', got '1 2 2.0 \u00e9'", 3)),
    ("mtx", MM_HEAD.format("real") + "% \u00e9\n3 3 1\n2 1 1.\u00e9\n",
     ("could not parse entry '2 1 1.\u00e9'", 4)),
]


class TestCParsedRead:
    @pytest.mark.parametrize("fmt, text, pairs", WELL_FORMED)
    def test_well_formed_files_skip_the_line_path(self, tmp_path, fmt, text, pairs):
        path = tmp_path / "graph"
        path.write_bytes(text.encode())
        with no_line_path():
            for source in (text.encode(), io.StringIO(text), path):
                assert load_edge_list(source, format=fmt).pairs() == pairs

    @settings(PROFILE, max_examples=100)
    @given(case=edge_list_cases(mutated=False))
    def test_generated_edge_lists_skip_the_line_path(self, case):
        assume(data_rows(case[0], "#") > 0)  # a count alone is "no data" to loadtxt
        want = outcome(lambda: reference_parse_edge_list(io.StringIO(case[0]), case[1]))
        with no_line_path():
            got = outcome(lambda: load_edge_list(case[0].encode(), symmetrize=case[1]))
        assert got == want

    @settings(PROFILE, max_examples=100)
    @given(case=matrix_market_cases(mutated=False))
    def test_generated_matrix_market_skips_the_line_path(self, case):
        assume(data_rows(case[0], "%") > 0)
        want = outcome(lambda: reference_parse_matrix_market(io.StringIO(case[0]), case[1]))
        with no_line_path():
            got = outcome(lambda: load_edge_list(case[0].encode(), format="mtx",
                                                 symmetrize=case[1]))
        assert got == want

    @pytest.mark.parametrize("fmt, text, want", DISAGREEING)
    def test_disagreements_read_as_the_line_path_does(self, fmt, text, want):
        if isinstance(want, list):
            assert load_edge_list(text.encode(), format=fmt).pairs() == want
        else:
            with pytest.raises(GraphFormatError) as err:
                load_edge_list(text.encode(), format=fmt)
            assert (str(err.value), err.value.line) == (f"line {want[1]}: {want[0]}", want[1])
