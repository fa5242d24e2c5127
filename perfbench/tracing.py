"""Spans around eggsum's layer boundaries, for the traced run only.

A layer is a module of the ``eggsum`` package.  While a ``Tracer`` is
active, every public function of one layer that another module holds in
its globals is replaced there by a wrapper that records a span, and every
layer module held in a global is replaced by a proxy whose public
functions are wrapped the same way.  Calls inside one layer stay
unwrapped, except the tail fit, whose count is the bisection's probe
count.  Nothing inside eggsum is edited: the wrappers live in the callers'
namespaces and are removed when the tracer is deactivated.

A span records its name, its parent, its wall-clock start and end
(``time.perf_counter``) and the process CPU time at both ends
(``time.process_time``).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("gammakit", "domain", "commutator", "lattice", "reduction", "summability", "zetalab", "cli")
PACKAGE = "eggsum"

# Intra-layer calls wrapped anyway: (layer, function).
_INTRA = {("summability", "fit_tail_slope")}


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim < 2 else a.shape[0]


def _count(counts: Counter, caller: str | None, name: str, args, result) -> None:
    """Work counters at the boundary, keyed by metric name."""
    if name == "gammakit.log_gamma":
        counts["gammakit.lgamma_elems"] += int(np.size(args[0]))
    elif name == "domain.log_norm_bulk":
        counts["domain.norm_rows"] += _rows(args[1])
    elif name == "commutator.eigenvalue_bulk":
        counts["commutator.eig_rows"] += _rows(args[2])
    elif name == "lattice.shell_indices":
        counts["lattice.rows"] += result.shape[0]
        if caller == "zetalab":
            counts["zetalab.terms"] += result.shape[0]
    elif name in ("reduction.kahan_sum", "reduction.reduce_sum"):
        counts["reduction.calls"] += 1
        counts["reduction.elems"] += int(np.size(args[0]))


def _public_functions(module) -> dict:
    """Functions the module exports by name: its ``__all__``, else every
    function defined there whose name has no leading underscore (``cli``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: fn
        for n in names
        if isinstance(fn := getattr(module, n, None), types.FunctionType)
        and fn.__module__ == module.__name__
    }


class _Proxy:
    """A layer module as one caller sees it: public functions wrapped."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, callers):
        """``callers``: the modules whose globals get wrappers (the benchmark's
        own workload module and every eggsum layer)."""
        self.callers = list(callers)
        self._exports = {layer: _public_functions(sys.modules[f"{PACKAGE}.{layer}"]) for layer in LAYERS}
        # (name, parent index or -1, t0, t1, cpu0, cpu1)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, t0, c0) -> None:
        t1 = time.perf_counter()
        c1 = time.process_time()
        self._stack().pop()
        self.spans[sid] = (name, parent, t0, t1, c0, c1)

    @contextlib.contextmanager
    def operation(self, name: str):
        """Wrappers installed and a root span open around one benchmark
        operation."""
        with self.active():
            sid, parent = self._open()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self._close(sid, f"bench.{name}", parent, t0, c0)

    def _wrap(self, layer: str, fn, caller: str | None):
        name = f"{layer}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, parent, t0, c0)
            _count(self.counts, caller, name, args, result)
            return result

        return wrapper

    def _public(self, layer: str, caller: str | None) -> dict:
        return {n: self._wrap(layer, fn, caller) for n, fn in self._exports[layer].items()}

    @staticmethod
    def _layer_of(obj) -> str | None:
        if isinstance(obj, types.ModuleType):
            name = obj.__name__
        elif isinstance(obj, types.FunctionType):
            name = obj.__module__
        else:
            return None
        pkg, _, layer = name.partition(".")
        return layer if pkg == PACKAGE and layer in LAYERS else None

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for mod in self.callers:
                own = self._layer_of(mod)
                for attr, obj in list(vars(mod).items()):
                    layer = self._layer_of(obj)
                    if layer is None:
                        continue
                    if isinstance(obj, types.ModuleType):
                        if layer == own:
                            continue
                        new = _Proxy(obj, self._public(layer, own))
                    elif attr in self._exports[layer] and (
                        layer != own or (layer, attr) in _INTRA
                    ):
                        new = self._wrap(layer, obj, own)
                    else:
                        continue
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, obj in reversed(saved):
                setattr(mod, attr, obj)

    # ------------------------------------------------------------ summary

    def layer_totals(self) -> dict:
        """Self wall and CPU seconds per layer, and the bisection probe count.

        A span's self time is its duration minus that of its direct
        children; spans whose name is not a layer (the benchmark's own
        operation spans) are left out.
        """
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for name, parent, t0, t1, c0, c1 in self.spans:
            if parent >= 0:
                child_wall[parent] += t1 - t0
                child_cpu[parent] += c1 - c0
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("self_s", "self_cpu_s")}
        probes = 0
        for i, (name, parent, t0, t1, c0, c1) in enumerate(self.spans):
            layer = name.partition(".")[0]
            if layer not in LAYERS:
                continue
            out[f"{layer}.self_s"] += (t1 - t0) - child_wall[i]
            out[f"{layer}.self_cpu_s"] += (c1 - c0) - child_cpu[i]
            if name == "summability.fit_tail_slope" and parent >= 0 and (
                self.spans[parent][0] == "summability.empirical_threshold"
            ):
                probes += 1
        out["summability.probes"] = probes
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, parent, start/end in microseconds since the
        first span, process CPU at both ends in microseconds."""
        if not self.spans:
            return
        base_t, base_c = self.spans[0][2], self.spans[0][4]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_us,end_us,cpu_start_us,cpu_end_us\n")
            for i, (name, parent, t0, t1, c0, c1) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{parent},{round((t0 - base_t) * 1e6)},{round((t1 - base_t) * 1e6)},"
                    f"{round((c0 - base_c) * 1e6)},{round((c1 - base_c) * 1e6)}\n"
                )
