"""Span tracing of tlh's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span (name, start, end, parent) per call, plus a few counts gathered from
the call's arguments and result.  Every binding of a traced function is
patched: ``tlh.cli`` imports ``gram_matrix`` and ``factorize`` by name, and
``AlgebraElement.__mul__`` reaches ``multiply`` through the globals of
``tlh.algebra``, so patching only the defining module would miss calls.
Spans stay in memory until :meth:`Tracer.write`; the originals are restored
when the ``with`` block ends.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

#: Traced callables: (module, attribute path, span name).  A span name is the
#: layer (the tlh module) followed by the public name.
TARGETS = (
    ("tlh.ring", "LaurentPoly.__mul__", "ring.LaurentPoly.__mul__"),
    ("tlh.ring", "LaurentPoly.__add__", "ring.LaurentPoly.__add__"),
    ("tlh.ring", "LaurentPoly.divmod_by", "ring.LaurentPoly.divmod_by"),
    ("tlh.tangle", "DecoratedTangle.concat", "tangle.DecoratedTangle.concat"),
    ("tlh.diagram", "Diagram.__post_init__", "diagram.Diagram"),
    ("tlh.diagram", "enumerate_diagrams", "diagram.enumerate_diagrams"),
    ("tlh.algebra", "normal_form", "algebra.normal_form"),
    ("tlh.algebra", "reduce_tangle", "algebra.reduce_tangle"),
    ("tlh.algebra", "multiply", "algebra.multiply"),
    ("tlh.algebra", "evaluate_word", "algebra.evaluate_word"),
    ("tlh.cellular", "gram_matrix", "cellular.gram_matrix"),
    ("tlh.cellular", "expand_in_cell_basis", "cellular.expand_in_cell_basis"),
    ("tlh.cellular", "cell_element", "cellular.cell_element"),
    ("tlh.cellular", "RingMatrix.det", "cellular.RingMatrix.det"),
    ("tlh.factor", "factorize", "factor.factorize"),
    ("tlh.cli", "main", "cli.main"),
)

#: Span names whose calls and self time are reported as per-layer metrics.
TIMED = tuple(name for _, _, name in TARGETS if name != "cellular.cell_element")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._open_spans = [-1]
        self.counts: dict = {}
        self.glued_pairs: set = set()
        self._layers: list = []  # labels of the gram_matrix calls in progress
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open_spans[-1])
        self.end.append(0.0)
        self._open_spans.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int):
        self.end[idx] = self.clock()
        self._open_spans.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per operation."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_max(self, key: str, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- observers: counts taken from a traced call's arguments and result ----

    def _observe_mul(self, args, result):
        other = args[1]  # a scalar operand counts as one term
        self._count("mul_terms", len(args[0]._terms) + (len(other._terms) if hasattr(other, "_terms") else 1))

    def _observe_concat(self, args, result):
        self.glued_pairs.add((args[0], args[1]))

    def _observe_normal_form(self, args, result):
        self._count("normal_form_terms", len(result))

    def _observe_multiply(self, args, result):
        self._count("multiply_gluings", len(args[0]._terms) * len(args[1]._terms))

    def _observe_expand(self, args, result):
        if self._layers:  # only expansions made for a known layer count
            label = self._layers[-1]
            self._count("expand_terms", len(result))
            self._count("expand_kept", sum(1 for mu, _, _ in result if mu == label))

    def _observe_det(self, args, result):
        self._count_max("det_max_dim", args[0].n_rows)
        if not result.is_zero():
            self._count_max("det_degree_span", result.max_exp - result.min_exp)

    def _observe_factorize(self, args, result):
        self._count("word_tokens", len(result))

    _OBSERVERS = {
        "ring.LaurentPoly.__mul__": _observe_mul,
        "tangle.DecoratedTangle.concat": _observe_concat,
        "algebra.normal_form": _observe_normal_form,
        "algebra.multiply": _observe_multiply,
        "cellular.expand_in_cell_basis": _observe_expand,
        "cellular.RingMatrix.det": _observe_det,
        "factor.factorize": _observe_factorize,
    }

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        scoped = name == "cellular.gram_matrix"
        observe = self._OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if scoped:
                tracer._layers.append(args[0])
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if scoped:
                    tracer._layers.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_golden(self, fn):
        """GoldenScalar construction is counted, not timed: millions of calls."""
        tracer = self

        @functools.wraps(fn)
        def counted(scalar):
            fn(scalar)
            tracer._count("golden")
            if not (isinstance(scalar.a, int) and isinstance(scalar.b, int)):
                tracer._count("golden_rational")

        return counted

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Rebind every tlh module attribute and class attribute that is ``original``."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tlh" or mod_name.startswith("tlh.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    found = True
        return found

    def _patch_method(self, cls, original, replacement):
        for attr, value in list(vars(cls).items()):
            if value is original:  # aliases such as __rmul__ = __mul__ too
                self._set(cls, attr, replacement)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        # import every module first: one imported later would copy a patched binding
        modules = {mod_name: importlib.import_module(mod_name) for mod_name, _, _ in TARGETS}
        for mod_name, path, name in TARGETS:
            mod = modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch_method(cls, vars(cls)[meth], self._wrap(name, vars(cls)[meth]))
            else:
                original = getattr(mod, path)
                if not self._patch_everywhere(original, self._wrap(name, original)):
                    raise RuntimeError(f"no binding of {mod_name}.{path} found")
        golden = modules["tlh.ring"].GoldenScalar
        post_init = vars(golden)["__post_init__"]
        self._patch_method(golden, post_init, self._wrap_golden(post_init))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, total self time); self time excludes child spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict = {}
        names = self.names
        for i in range(n):
            name = names[self.name_id[i]]
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end[i] - start[i]) - child[i])
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric values keyed by the names used in BENCHMARK.json."""
        times = self.self_times()
        calls = {name: times.get(name, (0, 0.0))[0] for _, _, name in TARGETS}
        c = self.counts
        out: dict = {}
        for name in TIMED:
            if name != "diagram.enumerate_diagrams":
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = times.get(name, (0, 0.0))[1]

        def ratio(num, den):
            return num / den if den else 0.0

        gluings = calls["tangle.DecoratedTangle.concat"]
        out["ring.LaurentPoly.__mul__.mean_terms"] = ratio(c.get("mul_terms", 0), 2 * calls["ring.LaurentPoly.__mul__"])
        out["ring.GoldenScalar.count"] = c.get("golden", 0)
        out["ring.GoldenScalar.rational_ratio"] = ratio(c.get("golden_rational", 0), c.get("golden", 0))
        out["tangle.DecoratedTangle.concat.distinct_ratio"] = ratio(len(self.glued_pairs), gluings)
        out["diagram.Diagram.per_gluing"] = ratio(calls["diagram.Diagram"], gluings)
        out["algebra.normal_form.terms_per_call"] = ratio(c.get("normal_form_terms", 0), calls["algebra.normal_form"])
        out["algebra.multiply.gluings_per_call"] = ratio(c.get("multiply_gluings", 0), calls["algebra.multiply"])
        out["cellular.expand_in_cell_basis.useful_ratio"] = ratio(c.get("expand_kept", 0), c.get("expand_terms", 0))
        out["cellular.cell_element.calls"] = calls["cellular.cell_element"]
        out["cellular.RingMatrix.det.max_dim"] = c.get("det_max_dim", 0)
        out["cellular.RingMatrix.det.degree_span"] = c.get("det_degree_span", 0)
        out["factor.factorize.word_len_mean"] = ratio(c.get("word_tokens", 0), calls["factor.factorize"])
        return out

    def write(self, path, phase: str):
        """Append this tracer's spans to a gzip file as one JSON header line plus raw arrays."""
        header = {
            "phase": phase,
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "ab", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path) -> list:
    """The (header, {array name: array}) sections of a file written by Tracer.write."""
    sections = []
    with gzip.open(path, "rb") as fh:
        while line := fh.readline():
            header = json.loads(line)
            arrays = {}
            for name, code in header["arrays"]:
                arr = array.array(code)
                arr.frombytes(fh.read(arr.itemsize * header["spans"]))
                arrays[name] = arr
            sections.append((header, arrays))
    return sections
