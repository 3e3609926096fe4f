"""In-memory spans around lapeig's public functions, for the traced run.

Each wrapper records one span (name, start, end, parent span, pass id)
and the counters of its layer.  ``from .sparse import spmv``-style
imports bind a function object in every importing module, so a wrapper
is installed at every binding of the original object across the lapeig
modules, including values of module-level dicts; methods are wrapped on
their class.  Spans stay in memory and are written out by ``dump``.

Byte counts are computed from array sizes (the least traffic the call
needs), not measured.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0  # spans of one pass share it
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest without overlap in one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)


def _spmv(st, args, out):
    a = args[0]
    st["bytes_computed"] += (a.row_ptr.nbytes + a.col_idx.nbytes + a.values.nbytes
                             + 2 * out.nbytes)


def _project_out(st, args, out):
    basis = args[0]
    st["cols"] += basis.k
    st["bytes_computed"] += 2 * basis.columns.nbytes + 2 * out.nbytes


def _pcg_solve(st, args, out):
    st["iterations"] += out.iterations
    st["converged"] += out.converged


def _dense_sym_eig(st, args, out):
    st["max_dim"] = max(st["max_dim"], len(out[0]))


def _ic0_factorize(st, args, out):
    st["attempts"] += out.attempts
    st["shift"] = max(st["shift"], out.shift)


def _solver(st, args, out):
    report = out[1]
    st["pairs"] += len(report.eigenvalues)
    st["outer_its"] += report.outer_its
    st["inner_its"] += report.inner_its_total
    st["restarts"] += report.config.get("restarts", 0)
    st["verify_mvp"] += report.config["mvp_verify"]


# (module, function or Class.method, probe recording layer counters)
TARGETS = (
    ("graphs", "load_edge_list", None),
    ("graphs", "connected_components", None),
    ("graphs", "build_laplacian", None),
    ("ic0", "ic0_factorize", _ic0_factorize),
    ("ic0", "Ic0Factor.apply", None),
    ("sparse", "spmv", _spmv),
    ("pcg", "DeflationBasis.project_out", _project_out),
    ("pcg", "pcg_solve", _pcg_solve),
    ("pcg", "jd_correction_solve", None),
    ("kernels", "dense_sym_eig", _dense_sym_eig),
    ("kernels", "mgs_orthonormalize", None),
    ("results", "rayleigh_residuals", None),
    ("dacg", "dacg_smallest", _solver),
    ("jd", "jd_smallest", _solver),
    ("irlm", "irlm_smallest", _solver),
)


def _wrap(tracer, name, fn, probe):
    stats = tracer.stats[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if probe is not None:
            probe(stats, args, out)
        return out

    return wrapper


def install(tracer):
    """Wrap every target at every binding; returns a function undoing it."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "lapeig" or key.startswith("lapeig.")]
    undo = []
    for module, qualname, probe in TARGETS:
        home = sys.modules["lapeig." + module]
        name = f"{module}.{qualname}"
        owner, _, attr = qualname.rpartition(".")
        if owner:
            cls = getattr(home, owner)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, original, probe))
            undo.append(functools.partial(setattr, cls, attr, original))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(tracer, name, original, probe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append(functools.partial(setattr, m, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
                            undo.append(functools.partial(value.__setitem__, k, original))

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall
