"""Span tracing of the gburge layers, installed from outside the package.

install() wraps the public functions of every gburge module, and the
methods of the classes each module defines, and rebinds each wrapped name in
every gburge module that holds it: correspondences imports the kernels by
name, polymer imports gburge by name, and so on.  Each wrapped call is one
span; its self time is its duration minus the time covered by the wrapped
calls it made.  The benchmark opens one span per timed batch (region), so
self times can be split by op kind as well as by layer.

Spans are kept in memory per thread and written out by write().  Only the
spans the benchmark's own files open (depth 0) and the calls they make into
the program (depth 1) are kept as records; deeper calls, and calls made in
the program's worker threads, are folded into per-function totals: one 24x24
gburge makes about 50 000 semifield operations, and keeping each as a record
would cost more memory than the rest of the run.

A few private functions are wrapped too, because they are where a layer's
work happens: the sampler helpers of polymer (so that sampler and estimator
time can be told apart) and ShapedArray._wrap (the constructor the maps
use).  Hot accessors (Grid.get/set/gwb/contains, Shape.row_length,
Stream.u64) are left unwrapped; their time counts to their caller's layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time

MODULES = (
    "shapes",
    "values",
    "arrays",
    "localmaps",
    "correspondences",
    "oracles",
    "calculus",
    "polymer",
    "whittaker",
    "cli",
)

# polymer is split in three layers, so that sampler, estimator and KS test
# time can be reported apart.
_POLYMER_SAMPLER = {
    "Stream.__init__",
    "Stream.uniform",
    "Stream.normal",
    "sample_inv_gamma",
    "sample_symmetric_env",
    "sample_replica_env",
    "_symmetric_rows",
    "_replica_rows",
}
_POLYMER_KS = {"ks_two_sample"}
_PRIVATE = {
    "polymer": {"_symmetric_rows", "_replica_rows", "_corner_Z", "_dual_Z", "_staircase_Z_replica"},
    "arrays": {"ShapedArray._wrap"},
}
_SKIP = {
    "localmaps": {"Grid.get", "Grid.set", "Grid.gwb", "Grid.contains",
                  "UpperGrid.get", "UpperGrid.set", "UpperGrid.gwb", "UpperGrid.contains"},
    "shapes": {"Shape.row_length"},
    "polymer": {"Stream.u64"},
}
_DUNDERS = {"__init__", "__contains__"}
_ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__",
}

SPAN_DEPTH = 2


def _layer(module: str, qualname: str) -> str:
    if module != "polymer":
        return module
    if qualname in _POLYMER_SAMPLER:
        return "polymer.sampler"
    if qualname in _POLYMER_KS:
        return "polymer.ks"
    return "polymer.estimator"


def _wanted(module: str, qualname: str) -> bool:
    if qualname in _SKIP.get(module, ()):
        return False
    if qualname in _PRIVATE.get(module, ()):
        return True
    attr = qualname.rsplit(".", 1)[-1]
    if attr in _DUNDERS or (module == "calculus" and attr in _ARITHMETIC):
        return True
    return not attr.startswith("_")


class _ThreadState:
    """One thread's span stack, spans and totals."""

    __slots__ = ("base", "stack", "calls", "total", "own", "spans")

    def __init__(self, base):
        self.base = base  # depth of this thread's outermost calls
        self.stack = []
        self.calls = {}
        self.total = {}
        self.own = {}
        self.spans = []


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.region = "setup"
        self.batch = 0  # identifier shared by the spans of one benchmark batch
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self.origin = time.perf_counter()
        self._main = threading.get_ident()

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState(
                0 if threading.get_ident() == self._main else SPAN_DEPTH
            )
            with self._lock:
                self._threads.append((threading.get_ident(), st))
            return st

    # -- spans -------------------------------------------------------------------

    def _enter(self):
        st = self._state()
        frame = [0.0]
        st.stack.append(frame)
        return st, frame, time.perf_counter()

    def _leave(self, st, frame, start, layer, name):
        end = time.perf_counter()
        st.stack.pop()
        dur = end - start
        own = dur - frame[0]
        if st.stack:
            st.stack[-1][0] += dur
        key = (self.region, layer, name)
        st.calls[key] = st.calls.get(key, 0) + 1
        st.total[key] = st.total.get(key, 0.0) + dur
        st.own[key] = st.own.get(key, 0.0) + own
        depth = st.base + len(st.stack)
        if depth < SPAN_DEPTH:
            st.spans.append(
                (self.batch, depth, self.region, layer, name, start - self.origin, end - self.origin, own)
            )

    @contextlib.contextmanager
    def span(self, region: str):
        """One benchmark batch: sets the region label and records the batch
        as a depth-0 span of the 'bench' layer, the parent of the depth-1
        spans that share its batch identifier."""
        self.batch += 1
        self.region = region
        ctx = self._enter()
        try:
            yield
        finally:
            self._leave(*ctx, "bench", region)

    def _wrap(self, fn, layer, name):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame, start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(st, frame, start, layer, name)

        return traced

    # -- installing ----------------------------------------------------------------

    def install(self, package="gburge"):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        holders = [importlib.import_module(package), *mods.values()]
        replaced = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and _wanted(short, name):
                    replaced[id(obj)] = self._wrap(obj, _layer(short, name), f"{short}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patches.append((holder, name, obj))
                    setattr(holder, name, wrapper)

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not _wanted(short, qual):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if getattr(fn, "__module__", None) != cls.__module__:
                continue  # inherited or generated elsewhere
            wrapped = self._wrap(fn, _layer(short, qual), f"{short}.{qual}")
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def totals(self):
        """Calls, inclusive seconds and self seconds per (region, layer,
        function), summed over threads."""
        calls, total, own = {}, {}, {}
        with self._lock:
            states = [st for _, st in self._threads]
        for st in states:
            for src, dst in ((st.calls, calls), (st.total, total), (st.own, own)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        return calls, total, own

    def write(self, path, extra: dict):
        calls, total, own = self.totals()
        with self._lock:
            threads = list(self._threads)
        doc = {
            **extra,
            "span_fields": ["batch", "depth", "region", "layer", "name", "start_s", "end_s", "self_s"],
            "spans": {str(tid): st.spans for tid, st in threads},
            "functions": [
                {"region": region, "layer": layer, "name": name, "calls": calls[key],
                 "total_s": total[key], "self_s": own[key]}
                for key in sorted(calls)
                for region, layer, name in [key]
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
